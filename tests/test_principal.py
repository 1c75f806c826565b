"""Linear equivalence by one exact integer solve, against test-only references.

``equivalent`` and the class-membership test behind the representative
searches (``divisors._members``) decide principality with
``divisors._principal``.  Here they are compared with two references that
share no code with it: ``helpers.rational_equivalent``, a Fraction solve in
another elimination order from another base vertex, and the definition by
reduction (the reduced form of the difference is zero).  Neither reads the
rank oracle's lattice.  On long sparse graphs with signed chips the
reduction does not finish, so there only the rational reference runs.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from chipfire import (
    BudgetExceededError,
    Divisor,
    WeightedMultigraph,
    canonical_divisor,
    class_of,
    equivalent,
    reduce_to,
    t_set,
)
from chipfire.divisors import _members
from chipfire.enumeration import DEFAULT_BUDGET
from helpers import (
    chain_blob_graph,
    child_env,
    cycle,
    golden_graph,
    graph_file,
    ladder,
    rational_equivalent,
    reference_box_members,
    star_blob_graph,
    theta,
)


def random_looped_multigraph(rng):
    """1-10 vertices, weights, multi-edges and loops; every third graph has
    a loop at its base vertex."""
    n = rng.randint(1, 10)
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[rng.randrange(i)], verts[i], rng.randint(1, 3)) for i in range(1, n)]
    for _ in range(rng.randint(0, n)):
        edges.append((rng.choice(verts), rng.choice(verts), rng.randint(1, 2)))
    if rng.randrange(3) == 0:
        edges.append(("v0", "v0"))
    weights = {v: rng.choice([0, 0, 1, 2]) for v in verts}
    return WeightedMultigraph(verts, weights, edges)


def pairs(rng, g, lo=-3, hi=3):
    """A true pair, d1 and d1 plus a multiple of a random set's firing, and
    the pair that then moves one chip, which is true only where the
    Jacobian allows it."""
    names = g.vertices
    d1 = Divisor(g, [rng.randint(lo, hi) for _ in names])
    zone = rng.sample(names, rng.randint(1, len(names)))
    d2 = d1 + rng.choice([-2, -1, 1, 2]) * t_set(g, zone)
    a, b = rng.randrange(len(names)), rng.randrange(len(names))
    moved = Divisor(g, {names[a]: -1}) + Divisor(g, {names[b]: 1})
    return [(d1, d2), (d1, d2 + moved)]


def by_reduction(g, d1, d2):
    return d1.degree == d2.degree and not any(reduce_to(g, d1 - d2, g.base_vertex()).values)


def test_equivalent_matches_both_references_on_random_multigraphs():
    rng = random.Random(2214)
    verdicts = [0, 0]
    looped_base = multi = 0
    for _ in range(300):
        g = random_looped_multigraph(rng)
        looped_base += g.loop_count("v0") > 0
        multi += any(m > 1 for _, _, m in g._pairs)
        for d1, d2 in pairs(rng, g):
            got = equivalent(g, d1, d2)
            assert got is rational_equivalent(g, d1, d2) is by_reduction(g, d1, d2)
            assert equivalent(g, d2, d1) is got
            verdicts[got] += 1
        d1, d2 = pairs(rng, g)[0]
        assert not equivalent(g, d1, d2 + Divisor(g, {"v0": 1}))
    assert looped_base and multi
    assert min(verdicts) > 150


@pytest.mark.parametrize("make", [cycle, ladder, theta])
@pytest.mark.parametrize("n", [40, 120, 400])
def test_equivalent_matches_the_rational_reference_on_long_sparse_graphs(make, n):
    g = make(n)
    rng = random.Random(f"{make.__name__}{n}")
    for _ in range(2):
        for k, (d1, d2) in enumerate(pairs(rng, g, -2, 2)):
            got = equivalent(g, d1, d2)
            assert got is rational_equivalent(g, d1, d2)
            if k == 0:
                assert got


def signed_pair(g, rng):
    """Chips in [-2, 2] and the divisor made by firing half the vertices."""
    d1 = Divisor(g, [rng.randint(-2, 2) for _ in g.vertices])
    return d1, d1 + t_set(g, rng.sample(g.vertices, len(g.vertices) // 2))


@pytest.mark.parametrize("make, n", [(ladder, 40), (theta, 40), (ladder, 400)])
def test_signed_pairs_answer_within_a_second(make, n):
    """Reducing the difference of such a pair ran past 20 s on the 40-vertex
    ladder and theta graph."""
    g = make(n)
    d1, d2 = signed_pair(g, random.Random(n))
    start = time.perf_counter()
    assert equivalent(g, d1, d2)
    assert time.perf_counter() - start < 1


def test_the_cli_answers_on_a_400_vertex_ladder(tmp_path):
    """``chipfire equivalent`` in a child interpreter: a signed pair
    related by a set firing answers true, and false once a chip moves,
    each within 20 s.  Reducing their difference did not finish in
    minutes."""
    g = ladder(400)
    d1 = Divisor(g, [-1 if i % 97 == 5 else 3 for i in range(400)])
    d2 = d1 + t_set(g, [v for i, v in enumerate(g.vertices) if i * 37 % 100 < 50])
    d3 = d2 + Divisor(g, {g.vertices[0]: -1, g.vertices[399]: 1})
    path = graph_file(tmp_path, "ladder400", g)
    for other, expected in ((d2, True), (d3, False)):
        argv = [sys.executable, "-m", "chipfire.cli", "equivalent", path, "--json"]
        for d in (d1, other):
            argv += ["--divisor", ",".join(f"{v}={x}" for v, x in zip(g.vertices, d.values))]
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["equivalent"] is expected


def test_equivalent_and_members_reduce_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reduced")

    g = ladder(40)
    d1, d2 = signed_pair(g, random.Random(3))
    c = class_of(golden_graph(), Divisor(golden_graph(), [0, 3, 2]), "v1")
    for name in ("_reduce_off", "_burn", "_make_effective_off", "_superstabilize"):
        monkeypatch.setattr(f"chipfire.reduction.{name}", refuse)
    assert equivalent(g, d1, d2)
    assert len(list(_members(c.graph, c, [0] * 3, [5] * 3, DEFAULT_BUDGET, "box"))) == 9


@pytest.mark.parametrize("make", [golden_graph, chain_blob_graph, star_blob_graph])
def test_members_keeps_the_reference_box_members(make):
    """The box [0, K] of the uniform search and a box around the class's
    canonical form, at several classes and base vertices."""
    g = make()
    rng = random.Random(make.__name__)
    k = [canonical_divisor(g).value(v) for v in g.vertices_sorted]
    found = 0
    for _ in range(4):
        d = Divisor(g, [rng.randint(-1, 2) for _ in g.vertices])
        c = class_of(g, d, rng.choice(g.vertices))
        canon = [c.canonical.value(v) for v in g.vertices_sorted]
        for lows, highs in (([0] * len(k), k), ([x - 1 for x in canon], [x + 1 for x in canon])):
            want = reference_box_members(g, c, lows, highs)
            assert list(_members(g, c, lows, highs, DEFAULT_BUDGET, "box")) == want
            found += len(want)
    assert found


def test_members_checks_the_box_budget_when_called():
    """The box of 21 vectors, [0, 5]^3 at sum 5, trips a budget of 20
    before any vector is walked, and names the stage it is given."""
    g = golden_graph()
    c = class_of(g, Divisor(g, [0, 3, 2]), "v1")
    with pytest.raises(BudgetExceededError) as excinfo:
        _members(g, c, [0] * 3, [5] * 3, 20, "effective_representatives")
    assert (excinfo.value.count, excinfo.value.stage) == (21, "effective_representatives")
    assert len(list(_members(g, c, [0] * 3, [5] * 3, 21, "box"))) == 9

"""The rank scan's incremental step against reduction from scratch.

``rank._walk_off_base`` steps its compositions in place and reduces a
candidate missing from the reduce cache from the reduced form of a cached
parent, one or two chips richer at one vertex, preferring one that needs
no borrowing; the scan folds the base vertex out, reducing each candidate
off it once for every level.  Both must equal the from-scratch reduction
of every candidate of the full scan wherever they are used: on dense and
sparse graphs, through the rank scan and its witness walk (against the
from-scratch scan in ``helpers``), and through ``rank`` against the
independent ``rank_oracle`` on long, large-valued cycles, theta graphs
and ladders.
"""

import importlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chipfire import (
    BudgetExceededError,
    Divisor,
    InternalError,
    WeightedMultigraph,
    bullet_model,
    canonical_divisor,
    rank,
    rank_lower_bound_edeg,
    rank_oracle,
)
from chipfire.enumeration import DEFAULT_BUDGET
from helpers import (
    complete,
    cycle,
    ladder,
    named_graph,
    petersen,
    reference_burn,
    reference_compositions,
    reference_model_rank,
    reference_off_base_min,
    reference_uncovered,
    scratch_reduce,
    spy,
    theta,
)

reduction = importlib.import_module("chipfire.reduction")
rank_module = importlib.import_module("chipfire.rank")


def weighted_cycle(n, weights):
    """C_n on w0, w1, ... with the given weights and a loop at w0."""
    return named_graph("w", n, [(i, (i + 1) % n) for i in range(n)] + [(0, 0)], weights)


STEP_GRAPHS = {
    "K5": complete(5),
    "K6": complete(6),
    "K7": complete(7),
    "petersen": petersen(),
    "wcycle5": weighted_cycle(5, (1, 0, 2, 0, 0)),
    "wcycle6": weighted_cycle(6, (0, 1, 0, 1, 0, 3)),
    **{
        f"{make.__name__}{n}": make(n)
        for make, sizes in ((cycle, (16, 20, 24)), (theta, (16, 20)), (ladder, (16, 20, 24)))
        for n in sizes
    },
}


def _twin(g):
    """An equal graph with its own, empty caches."""
    return WeightedMultigraph(g.vertices, g.weights, g.edges)


def _rotated(g, r):
    """An equal graph declared from its r-th vertex on, with its own, empty
    caches: its base vertex, the lex-first name, sits at another index."""
    verts = g.vertices
    return WeightedMultigraph(verts[r:] + verts[:r], g.weights, g.edges)


def _stored(g, vals):
    """What g's reduce cache holds for vals, under its key with 0 at the
    base vertex u, shifted by the chips of vals at u."""
    u = g.vertex_index(g.base_vertex())
    red = list(g._reduced[(*vals[:u], 0, *vals[u + 1 :])])
    red[u] += vals[u]
    return tuple(red)


def _scan_reduce(g, vals):
    """The reduced form at g's base vertex of vals, as the scan's walk
    stores it for its one degree-0 candidate."""
    rank_module._walk_off_base(g, vals, 0, ([], []), float("-inf"))
    return _stored(g, vals)


def _step(g, vals, p, s):
    """The reduced form at g's base vertex u of vals as the scan's walk
    steps it from its parent vals + s*e_p: the walk's one degree-1
    candidate over one coordinate at p whose first chip costs s.  Returns
    what the walk stored for it, shifted by the chips at u."""
    parent = list(vals)
    parent[p] += s
    _, least = rank_module._walk_off_base(g, parent, 1, ([p], [[0, s]]), float("-inf"))
    red = _stored(g, vals)
    assert least == red[g.vertex_index(g.base_vertex())]
    return red


@pytest.mark.parametrize("name", STEP_GRAPHS)
def test_step_matches_reduction_from_scratch(name, monkeypatch):
    rng = random.Random(name)
    borrowed = 0
    for _ in range(3):
        g = _rotated(STEP_GRAPHS[name], rng.randrange(STEP_GRAPHS[name]._n))
        u = g.vertex_index(g.base_vertex())
        # a random u-reduced divisor: small signed chips, reduced at u
        parent = _scan_reduce(g, tuple(rng.randint(-2, 3) for _ in range(g._n)))
        assert scratch_reduce(g, parent, u) == parent
        assert _scan_reduce(g, parent) == parent  # and now cached under its own key
        for p in range(g._n):
            for s in (1, 2):
                vals = list(parent)
                vals[p] -= s
                vals = tuple(vals)
                borrowed += p != u and parent[p] < s
                with monkeypatch.context() as mp:
                    calls = spy(mp, "chipfire.reduction._make_effective_off")
                    got = _step(g, vals, p, s)
                assert calls == []  # the parent was cached
                assert got == scratch_reduce(g, vals, u)
                assert all(x >= 0 for i, x in enumerate(got) if i != u)
                assert all(reference_burn(g, got, [u])[0])
    assert borrowed > 0


def test_step_without_a_cached_parent_reduces_it_from_scratch():
    g = complete(6)
    vals = (4, -3, 7, -1, 0, 2)
    got = _step(g, vals, 3, 2)
    assert got == scratch_reduce(g, vals, 0)
    parent = (0, -3, 7, 1, 0, 2)
    assert g._reduced[parent] == scratch_reduce(g, parent, 0)
    assert len(g._reduced) == 2


@pytest.mark.parametrize("name", STEP_GRAPHS)
def test_cold_walks_store_only_reduced_forms(name):
    """Walks of degrees 1-3 over g's coordinates, and on a weighted or
    looped graph over the model's too, each on an empty cache: every
    candidate is stored, stepped from whichever parent is cached or from
    one reduced from scratch, and every entry the walks store is the
    reduction from scratch of its key.  The model's coordinates include
    satellites hosted at the base vertex u, whose steps change the walk's
    chips at u; every key still holds 0 there.  That is checked as the
    reduced form is defined, which is faster than reducing from scratch on
    the longest ladders: the entry is reduced at u (``reference_burn``) and
    lies in its key's class (the oracle's lattice test), and a class holds
    one divisor reduced at u."""
    rng = random.Random(name)
    for j in (1, 2, 3):
        g = _rotated(STEP_GRAPHS[name], rng.randrange(STEP_GRAPHS[name]._n))
        u = g.vertex_index(g.base_vertex())
        vals = tuple(rng.randint(-1, 3) for _ in range(g._n))
        model = bullet_model(g)
        for over in (None, model) if model is not g else (None,):
            g._reduced.clear()
            dests, costs = rank_module._coords(g, j, over)
            rest = dests[1:], costs[1:]
            assert rank_module._walk_off_base(g, vals, j, rest, float("-inf"))[0] is None
            for combo in reference_compositions(j, len(rest[0])):
                target = list(vals)
                for to, cost, x in zip(*rest, combo):
                    target[to] -= cost[x]
                target[u] = 0
                assert tuple(target) in g._reduced
            lattice = rank_module._lattice_data(g)
            for key, red in g._reduced.items():
                assert key[u] == 0
                assert all(x >= 0 for i, x in enumerate(red) if i != u)
                assert all(reference_burn(g, red, [u])[0])
                assert rank_module._class_key(lattice, red) == rank_module._class_key(lattice, key)
                if g._n <= 10:  # from scratch where that is fast
                    assert red == scratch_reduce(g, key, u)


def _walk_one_miss(g, vals, p, q, monkeypatch):
    """The degree-2 walk over one coordinate at p and one at q, each chip
    costing 1, with every candidate but (1, 1) and both of its parents
    cached: so (1, 1), whose last nonzero part is q, is the walk's one
    miss.  Returns what the walk stored for it and the _borrow calls."""
    for at_p, at_q in ((1, 0), (0, 1), (2, 0), (0, 2)):
        target = list(vals)
        target[p] -= at_p
        target[q] -= at_q
        _scan_reduce(g, tuple(target))
    borrows = spy(monkeypatch, "chipfire.rank._borrow", record=lambda args, _: args[3])
    rank_module._walk_off_base(g, vals, 2, ([p, q], [[0, 1, 2]] * 2), float("-inf"))
    target = list(vals)
    target[p] -= 1
    target[q] -= 1
    return _stored(g, tuple(target)), borrows


def test_miss_steps_from_a_cached_parent_that_holds_the_chips(monkeypatch):
    """On K4, (1, 1) at k2 and k3 has two parents.  The one at its last
    nonzero part, (1, 0), reduces to 0, which holds no chip at k3; the
    other, (0, 1), reduces to (-3, 1, 2, 0), which holds one at k2.  So
    the candidate is that form less a chip at k2, with no borrowing."""
    g = complete(4)
    vals = (0, 0, 1, 0)
    assert _scan_reduce(g, (0, 0, 0, 0)) == (0, 0, 0, 0)
    assert _scan_reduce(g, (0, 0, 1, -1)) == (-3, 1, 2, 0)
    got, borrows = _walk_one_miss(g, vals, 2, 3, monkeypatch)
    assert got == (-3, 1, 1, 0) == scratch_reduce(g, (0, 0, 0, -1), 0)
    assert borrows == []


def test_miss_borrows_when_no_cached_parent_holds_the_chips(monkeypatch):
    """On K4, (1, 1) at k1 and k3: its parent (1, 0) reduces to (-2, 1, 2,
    0), with no chip at k3, and (0, 1) to (0, 0, 0, 1), with none at k1.
    So a parent borrows, once, and gets the reduction from scratch."""
    g = complete(4)
    vals = (0, 0, 0, 2)
    assert _scan_reduce(g, (0, -1, 0, 2)) == (-2, 1, 2, 0)
    assert _scan_reduce(g, (0, 0, 0, 1)) == (0, 0, 0, 1)
    got, borrows = _walk_one_miss(g, vals, 1, 3, monkeypatch)
    assert got == scratch_reduce(g, (0, -1, 0, 1), 0)
    assert len(borrows) == 1


@pytest.mark.parametrize(
    "name, vals, r",
    [("K6", [3, 1, 2, 2, 1, 2], 3), ("petersen", [2, 1, 1, 1, 1, 1, 1, 1, 1, 0], 4)],
)
def test_each_level_steps_from_the_last(monkeypatch, name, vals, r):
    g = _twin(STEP_GRAPHS[name])
    calls = spy(monkeypatch, "chipfire.reduction._make_effective_off")
    assert rank(g, Divisor(g, vals), shortcuts=False).rank == r
    assert len(calls) == 1  # level 0's one candidate


@pytest.mark.parametrize("name", ["wcycle5", "wcycle6"])
def test_each_inflated_level_steps_from_the_last(monkeypatch, name):
    g = _twin(STEP_GRAPHS[name])
    calls = spy(monkeypatch, "chipfire.reduction._make_effective_off")
    d = Divisor(g, [6, 2, 3, 1, 4] + [2] * (g._n - 5))
    assert [rank_lower_bound_edeg(g, d, s) for s in range(4)] == [True] * 4
    assert len(calls) == 1


@pytest.mark.parametrize("moved", [None, ("w0", "w1"), ("w2", "w3")])
def test_witness_walk_steps_from_cached_parents(monkeypatch, moved):
    """Cold ranks of K, and of K with one chip moved, on the 5-cycle with
    weights (1, 0, 2, 0, 0) and a loop: the level scan runs over g's
    coordinates and the witness walk over the model's, whose candidates
    the level scan never walked.  Every miss of either finds a cached
    parent, one chip fewer at any nonzero part, so the only reduction from
    scratch is level 0's one candidate, where stepping from the last
    nonzero part alone took 12 to 17."""
    g = _twin(STEP_GRAPHS["wcycle5"])
    d = canonical_divisor(g)
    if moved is not None:
        d = d + Divisor(g, {moved[0]: -1, moved[1]: 1})
    want = reference_model_rank(_twin(g), Divisor(_twin(g), d.values), shortcuts=False)
    calls = spy(monkeypatch, "chipfire.reduction._reduce_off", "chipfire.rank._reduce_off")
    got = rank(g, d, shortcuts=False)
    assert (got.rank, got.witness.values) == (want.rank, want.witness.values)
    assert got.witness.graph is bullet_model(g)
    assert len(calls) == 1


def _minima_reads(monkeypatch):
    """Count the reads of the scan's record of minima; returns the list of
    degrees read."""
    reads = []

    class Counted(rank_module._Minima):
        def get(self, j):
            reads.append(j)
            return super().get(j)

    monkeypatch.setattr(rank_module, "_Minima", Counted)
    return reads


@pytest.mark.parametrize(
    "verts, edges, witnesses",
    [
        (["a"], [], {2000: (2001,), 4000: (4001,)}),
        (["a", "b"], [("a", "b", 3)], {2000: (0, 1999), 4000: (2, 3997)}),
    ],
)
def test_levels_read_the_minima_only_where_they_may_fail(monkeypatch, verts, edges, witnesses):
    """A passing level reads one minimum, its own new degree; only the
    failing level reads the rest.  So the reads grow linearly with the
    chips, not with their square."""
    reads = _minima_reads(monkeypatch)
    for chips, witness in witnesses.items():
        g = WeightedMultigraph(verts, {}, edges)
        del reads[:]
        r = rank(g, Divisor(g, [chips] + [0] * (len(verts) - 1)), shortcuts=False)
        assert (r.rank, r.witness.values) == (chips - g.genus, witness)
        # levels 0 to r.rank read one each, level r.rank + 1 at most all of them
        assert len(reads) <= 2 * r.rank + 3


def test_borrow_guard_trips(monkeypatch):
    g = cycle(5)
    parent = (0, 0, 0, 0, 0)  # reduced at the first vertex: nothing off it
    assert _scan_reduce(g, parent) == parent
    monkeypatch.setattr(reduction, "_round_guard", lambda g, vals: 0)
    with pytest.raises(InternalError, match="borrowing"):
        # the debt at c02 takes 6 borrowing steps, past n = 5
        _step(g, (0, 0, -1, 0, 0), 2, 1)


def test_borrowing_within_n_steps_skips_the_guard(monkeypatch):
    g = complete(5)
    parent = (5, 0, 0, 0, 0)
    assert _scan_reduce(g, parent) == parent
    guards = []
    monkeypatch.setattr(reduction, "_round_guard", lambda g, vals: guards.append(1) or 0)
    # the debt at k1 takes 4 borrowing steps, within n = 5
    assert _step(g, (5, -1, 0, 0, 0), 1, 1) == (1, 0, 1, 1, 1)
    assert guards == []


# -- the scan against its from-scratch copy --------------------------------

NAMES = ["a", "b", "c", "d", "e", "f"]


@st.composite
def graph_specs(draw):
    """(vertices, weights, edges) of a connected graph: weightless and
    loopless, weighted, or looped, with a model of at most 9 vertices."""
    kind = draw(st.sampled_from(["plain", "weighted", "looped"]))
    verts = draw(st.permutations(NAMES).map(lambda p: p[: draw(st.integers(1, 5))]))
    n = len(verts)
    edges = [(verts[draw(st.integers(0, i - 1))], verts[i]) for i in range(1, n)]
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(verts)), draw(st.sampled_from(verts))
        if a != b or kind == "looped":
            edges.append((a, b))
    spare = 9 - n - sum(a == b for a, b in edges)
    weights = {}
    if kind == "weighted":
        for v in verts:
            weights[v] = draw(st.integers(0, max(0, min(2, spare))))
            spare -= weights[v]
    return list(verts), weights, edges


@st.composite
def scan_cases(draw):
    spec = draw(graph_specs())
    g = WeightedMultigraph(*spec)
    vals = [draw(st.integers(-2, 3)) for _ in range(g._n)]
    budget = draw(st.sampled_from([3, 8, 40, 200, DEFAULT_BUDGET]))
    limit = draw(st.sampled_from([None, 8]))  # 8 evicts parents mid-level
    return spec, vals, draw(st.booleans()), budget, limit


def _outcome(call):
    try:
        r = call()
    except BudgetExceededError as exc:
        return "budget", exc.stage, exc.level, exc.count
    if isinstance(r, bool):
        return r
    w = r.witness
    return r.rank, None if w is None else (w.graph.vertices, w.values), r.method


def _patch_reference(mp):
    """Route rank's level scan to the from-scratch reference; returns the
    list of its calls, so a test can show the reference ran."""
    calls = []

    def reference(*args, **kwargs):
        calls.append(args[2])
        return reference_uncovered(*args, **kwargs)

    mp.setattr(rank_module, "_uncovered", reference)
    return calls


def _against_reference(call, spec, limit):
    """call(graph) on the package's scan and on the from-scratch one, each
    on a fresh graph, and whether the reference scanned a level."""
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(rank_module, "_CACHE_LIMIT", limit)
        got = _outcome(lambda: call(WeightedMultigraph(*spec)))
        calls = _patch_reference(mp)
        want = _outcome(lambda: call(WeightedMultigraph(*spec)))
    return got, want, bool(calls)


@given(scan_cases())
@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
def test_rank_matches_the_scratch_scan(case):
    spec, vals, shortcuts, budget, limit = case
    got, want, scanned = _against_reference(
        lambda g: rank(g, Divisor(g, vals), shortcuts=shortcuts, budget=budget), spec, limit
    )
    assert got == want
    assert scanned or want[-1] == "regime_shortcut"


@given(scan_cases(), st.integers(0, 4))
@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
def test_lower_bound_at_an_unscanned_level_matches_the_scratch_scan(case, s):
    spec, vals, _, budget, limit = case
    got, want, scanned = _against_reference(
        lambda g: rank_lower_bound_edeg(g, Divisor(g, vals), s, budget=budget), spec, limit
    )
    assert got == want
    assert scanned or want[0] == "budget"


@given(scan_cases(), st.booleans())
@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.too_slow])
def test_scan_and_its_minima_match_the_scratch_scan(case, on_model):
    """rank._uncovered level by level, with one mins record per pass as
    rank shares it: lex-first failures equal the reference's, a failure
    found without lex fails from scratch, and every recorded minimum is the
    from-scratch minimum over the off-base candidates of its degree."""
    spec, vals, _, _, limit = case
    g, scratch = WeightedMultigraph(*spec), WeightedMultigraph(*spec)
    u = g.vertex_index(g.base_vertex())
    coords = rank_module._coords(g, 4, bullet_model(g) if on_model else None)
    dests, costs = coords
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(rank_module, "_CACHE_LIMIT", limit)
        for lex in (True, False):
            mins = rank_module._Minima()
            for k in range(5):
                got = rank_module._uncovered(g, vals, k, coords, mins, lex)
                want = reference_uncovered(scratch, vals, k, coords)
                if lex:
                    assert got == want
                else:
                    assert (got is None) == (want is None)
                if got is not None:
                    target = list(vals)
                    for to, cost, x in zip(dests, costs, got):
                        target[to] -= cost[x]
                    assert sum(got) == k and scratch_reduce(scratch, tuple(target), u)[u] < 0
                assert set(mins) <= set(range(k + 1))
                for j, least in mins.items():
                    assert least == reference_off_base_min(scratch, vals, j, coords)
                if got is not None:
                    break
                assert k in mins


def _rank_and_next_level(make_graph, vals):
    """rank with shortcuts=False, then rank_lower_bound_edeg one level past
    it, each on make_graph()."""
    g = make_graph()
    r = rank(g, Divisor(g, vals), shortcuts=False)
    g = make_graph()
    return _outcome(lambda: r), rank_lower_bound_edeg(g, Divisor(g, vals), r.rank + 1)


@pytest.mark.parametrize(
    "name, vals",
    [
        ("K7", (4, 4, 4, 4, 4, 0, 0)),  # degrees 20-22; (3, ..., 3) reaches level 10
        ("K7", (3, 3, 3, 3, 3, 3, 3)),
        ("K7", (6, 4, 4, 4, 4, 0, 0)),
        ("petersen", (2, 1, 1, 1, 1, 1, 1, 1, 1, 0)),  # degrees 10-12
        ("petersen", (2, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
        ("petersen", (2, 2, 1, 1, 1, 1, 1, 1, 1, 1)),
        ("wcycle5", (2, 1, 2, 1, 1)),  # genus 5: degrees 2g - 3 to 2g - 1
        ("wcycle5", (2, 2, 2, 1, 1)),
        ("wcycle5", (3, 2, 2, 1, 1)),
    ],
)
def test_deep_carries_match_the_scratch_scan(monkeypatch, name, vals):
    """Steps of the walk that reset three or more trailing parts move the
    running target at several parts at once; the scan must still agree
    with the from-scratch one on rank, witness, method and the next level."""
    g = STEP_GRAPHS[name]
    got = _rank_and_next_level(lambda: _twin(g), vals)
    r = got[0][0]
    # the passing level r walks every off-base candidate of degree r; a
    # step resets the parts after the first one it changes
    walk = list(reference_compositions(r, g._n - 1))
    resets = [
        g._n - 2 - next(i for i, (a, b) in enumerate(zip(prev, vec)) if a != b)
        for prev, vec in zip(walk, walk[1:])
    ]
    assert max(resets) >= 3
    calls = _patch_reference(monkeypatch)
    assert got == _rank_and_next_level(lambda: _twin(g), vals)
    # every level of rank's scan, and the level past the rank for the bound
    assert calls[: r + 2] == list(range(r + 2)) and calls[-1] == r + 1


def test_cache_limit_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(rank_module, "_CACHE_LIMIT", 8)
    g = complete(5)
    rank(g, Divisor(g, [3, 0, 1, 2, 2]), shortcuts=False)
    assert 0 < len(g._reduced) <= 8


# -- rank against the oracle on long, large-valued graphs ------------------

ORACLE_GRAPHS = {
    **{f"cycle{n}": cycle(n) for n in range(10, 15)},
    "theta12": theta(12),
    "theta14": theta(14),
    "ladder10": ladder(10),
    "ladder12": ladder(12),
}


def _chips(rng, n, lo, hi):
    """Chips in [-20, 20] whose degree lands in [lo, hi]."""
    vals = [rng.randint(-20, 20) for _ in range(n)]
    while not lo <= sum(vals) <= hi:
        i = rng.randrange(n)
        step = 1 if sum(vals) < lo else -1
        if -20 <= vals[i] + step <= 20:
            vals[i] += step
    return vals


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_rank_matches_oracle_on_sparse_large_valued_graphs(name):
    g = ORACLE_GRAPHS[name]
    rng = random.Random(name)
    budget = 20_000  # a defect that scans too far fails fast
    for _ in range(6):
        d = Divisor(g, _chips(rng, g._n, -1, g.genus + 1))
        assert rank(g, d, shortcuts=False, budget=budget).rank == rank_oracle(g, d, budget=budget)


def test_oracle_sizes_the_model_before_building_it():
    g = WeightedMultigraph(["a", "b"], {"a": 10**7}, [("a", "b")])
    with pytest.raises(BudgetExceededError) as excinfo:
        rank_oracle(g, Divisor(g, [0, 0]))
    assert (excinfo.value.stage, excinfo.value.level) == ("oracle", 0)
    assert excinfo.value.count == 10**7 + 2
    assert g._model is None

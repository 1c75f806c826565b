"""Kernel work over fixed rounds of each benchmark workload's kind, pinned.

The kernel functions in ``COUNTED`` are wrapped by name, as in
``test_reduce_once.py``, and their calls counted over one fixed round per
kind: ranks with default arguments, signed reductions, and the CLI's
``report`` and ``clifford-rep``.  The counts depend on neither the machine
nor the interpreter's flags, so a change that makes a kernel do more work
fails here even where wall time cannot resolve the loss.  Every round
builds its graphs afresh, so no cache carries over from another test.  A
change that lowers a count updates its pin and says so in CHANGES.md.
"""

import importlib
import random
from itertools import combinations

import pytest

from chipfire import (
    Divisor,
    WeightedMultigraph,
    effectivize,
    equivalent,
    rank,
    reduce_to,
    residual,
    t_set,
)
from chipfire.cli import main, serialize_graph
from helpers import golden_graph
from test_sparse_reduction import ladder, theta

divisors = importlib.import_module("chipfire.divisors")
rank_module = importlib.import_module("chipfire.rank")
reduction = importlib.import_module("chipfire.reduction")

# count name -> the module attributes whose calls it counts; the rank scan
# keeps its own references to the reduction kernel and to _borrow
COUNTED = {
    "from_scratch": [(reduction, "_reduce_off"), (rank_module, "_reduce_off")],
    "borrows": [(rank_module, "_borrow")],
    "burns": [(reduction, "_burn")],
    "principal": [(divisors, "_principal")],
    "misses": [(rank_module, "_reduce_missing")],
    "walks": [(rank_module, "_walk_off_base")],
}


def _named(prefix, n, pairs, weights=()):
    verts = [f"{prefix}{i}" for i in range(n)]
    return WeightedMultigraph(
        verts, dict(zip(verts, weights)), [(verts[i], verts[j]) for i, j in pairs]
    )


def complete(n):
    return _named("k", n, list(combinations(range(n), 2)))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _named("p", 10, outer + inner + [(i, 5 + i) for i in range(5)])


def weighted_cycle():
    return _named("w", 5, [(i, (i + 1) % 5) for i in range(5)], (1, 0, 1, 0, 0))


def chorded_cycle(n):
    return _named("c", n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])


def _at_degree(rng, g, deg, lo, hi):
    """Chips drawn in [lo, hi], then one vertex moved to make the degree."""
    vals = [rng.randint(lo, hi) for _ in g.vertices]
    vals[rng.randrange(len(vals))] += deg - sum(vals)
    return Divisor(g, vals)


def rank_round():
    """Drawn divisors across [0, 2g - 2] and, for every vertex v, the
    classes K - v and K - v - w with w drawn, on K6, the Petersen graph, the golden graph and a weighted
    5-cycle."""
    rng = random.Random(2406)
    for g, degrees in (
        (complete(6), (2, 6, 10, 14, 18)),
        (petersen(), (2, 4, 6, 8, 10)),
        (golden_graph(), range(0, 11, 2)),
        (weighted_cycle(), range(5)),
    ):
        for deg in degrees:
            rank(g, _at_degree(rng, g, deg, -1, 2))
        for v in g.vertices:
            e = Divisor(g, {v: 1})
            rank(g, residual(g, e))
            rank(g, residual(g, e + Divisor(g, {rng.choice(g.vertices): 1})))


def reduction_round():
    """reduce_to at a drawn vertex, equivalent with a fired or a nudged
    partner, and effectivize, on signed chips in [-2, 2]."""
    rng = random.Random(3987)
    for g in (chorded_cycle(16), theta(16), ladder(16)):
        n = len(g.vertices)
        for _ in range(5):
            d = _at_degree(rng, g, rng.randint(-2, 4), -2, 2)
            reduce_to(g, d, rng.choice(g.vertices))
            other = d + t_set(g, rng.sample(g.vertices, rng.randint(1, n - 1)))
            if rng.random() < 0.5:
                a, b = rng.sample(g.vertices, 2)
                other = other + Divisor(g, {a: 1, b: -1})
            equivalent(g, d, other)
            effectivize(g, _at_degree(rng, g, rng.randint(0, g.genus), -2, 2))


def _loop_graph():
    """A chain of 2-edge-connected components with a loop at every weight-0
    vertex, where clifford-rep takes the Uniform branch."""
    return WeightedMultigraph(
        ["a", "b", "c"], {"b": 1}, [("a", "b"), ("a", "b"), ("b", "c"), ("a", "a"), ("c", "c")]
    )


CLI_ROUND = [
    ("report", "golden", "v2=4,v3=1"),
    ("report", "golden", "v1=1,v2=-1"),
    ("report", "golden", "v1=2,v2=3,v3=3"),
    ("report", "loops", "a=2,b=3,c=1"),
    ("report", "loops", "a=1,c=5"),
    ("clifford-rep", "golden", "v1=1,v2=-1"),
    ("clifford-rep", "golden", "v2=4,v3=6"),
    ("clifford-rep", "golden", "v2=4,v3=1"),
    ("clifford-rep", "loops", "a=1,c=5"),
    ("clifford-rep", "loops", "a=2,b=3,c=1"),
    ("clifford-rep", "loops", "b=4"),
]


def cli_round(tmp_path):
    files = {}
    for name, g in (("golden", golden_graph()), ("loops", _loop_graph())):
        files[name] = tmp_path / f"{name}.graph"
        files[name].write_text(serialize_graph(g), encoding="utf-8")
    for command, name, literal in CLI_ROUND:
        assert main([command, str(files[name]), "--divisor", literal, "--json"]) in (0, 1)


PINS = {
    "ranks": {
        "from_scratch": 29, "borrows": 2002, "burns": 194, "principal": 0, "misses": 6605, "walks": 382
    },
    "reductions": {
        "from_scratch": 30, "borrows": 0, "burns": 8644, "principal": 15, "misses": 0, "walks": 0
    },
    "cli": {
        "from_scratch": 32, "borrows": 68, "burns": 92, "principal": 15, "misses": 103, "walks": 45
    },
}


@pytest.fixture
def counts(monkeypatch):
    counted = dict.fromkeys(COUNTED, 0)
    for key, sites in COUNTED.items():
        for module, name in sites:
            monkeypatch.setattr(module, name, _counting(counted, key, getattr(module, name)))
    return counted


def _counting(counted, key, fn):
    def wrapper(*args):
        counted[key] += 1
        return fn(*args)

    return wrapper


@pytest.mark.parametrize("kind", PINS)
def test_kernel_work_is_pinned(kind, counts, tmp_path, capsys):
    if kind == "ranks":
        rank_round()
    elif kind == "reductions":
        reduction_round()
    else:
        cli_round(tmp_path)
    capsys.readouterr()
    assert counts == PINS[kind]

"""Kernel work over fixed rounds of each benchmark workload's kind, pinned.

The kernel functions in ``COUNTED`` are wrapped with ``helpers.spy`` and
their calls counted over one fixed round per kind: ranks with default
arguments, signed reductions, and three rounds of the CLI as cli-report
runs it: ``report`` and ``clifford-rep``; ``semibalanced`` and
``uniform`` on the chain and star fixtures with a loop at every vertex;
and ``info``, ``equivalent`` and ``reduce`` on a file of large
multiplicities.  ``levels`` counts the rank module's budget checks by
stage: one per level a rank scan enters (``rank``) and one per witness
walk on the model (``witness``).  The counts depend on neither the machine nor the
interpreter's flags, so a change that makes a kernel do more work fails
here even where wall time cannot resolve the loss.  Every round builds its
graphs afresh, so no cache carries over from another test.  A change that
lowers a count updates its pin and says so in CHANGES.md.
"""

import random
from collections import Counter

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
from chipfire.cli import main
from helpers import (
    chain_blob_graph,
    complete,
    golden_graph,
    graph_file,
    ladder,
    loop_chain_graph,
    named_graph,
    petersen,
    spy,
    star_blob_graph,
    theta,
)

# count name -> the functions whose calls it counts
COUNTED = {
    "from_scratch": ["chipfire.reduction._reduce_off"],
    "borrows": ["chipfire.reduction._borrow"],
    "burns": ["chipfire.reduction._burn"],
    "principal": ["chipfire.divisors._principal"],
    "misses": ["chipfire.rank._reduce_missing"],
    "walks": ["chipfire.rank._walk_off_base"],
}


def weighted_cycle():
    return named_graph("w", 5, [(i, (i + 1) % 5) for i in range(5)], (1, 0, 1, 0, 0))


def chorded_cycle(n):
    return named_graph("c", n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])


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


def _looped(g):
    """g with a loop at every vertex, so the loop hypothesis holds."""
    return WeightedMultigraph(g.vertices, g.weights, [*g.edges, *((v, v) for v in g.vertices)])


# kind -> (graph name -> graph or file text, [(command, graph name, divisor literal, ...)]);
# every command parses its file afresh
CLI_ROUNDS = {
    "cli": (
        {"golden": golden_graph(), "loops": loop_chain_graph()},
        [
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
        ],
    ),
    "reps": (
        {"chain": _looped(chain_blob_graph()), "star": _looped(star_blob_graph())},
        [
            (command, name, literal)
            for command in ("semibalanced", "uniform")
            for name, literal in (
                ("chain", "0"),
                ("chain", "t1=3,m2=-1,p3=4"),
                ("chain", "t2=2,m1=5,p1=3,p2=-2,p3=4"),
                ("chain", "t1=4,t3=4,m1=4,m2=4,p2=4"),
                ("star", "0"),
                ("star", "c1=2,x2=4,y1=-1,z2=6"),
                ("star", "c2=3,c3=3,x1=2,y2=2,z1=2"),
                ("star", "c1=5,x1=5,x2=4,y1=5,z1=5"),
            )
        ],
    ),
    "large": (
        # large multiplicities on three vertices, as in cli-report's files
        {
            "large": "graph\nvertex a weight 500\nvertex b weight 0\nvertex c weight 0\n"
            "edge a b x50000\nedge b c x3\nedge a c x2\n"
        },
        [
            ("info", "large"),
            ("reduce", "large", "a=3,b=-2,c=1"),
            ("reduce", "large", "a=-3,c=2"),
            ("reduce", "large", "b=3,c=-3"),
            # firing a, then firing c, then a moved chip
            ("equivalent", "large", "a=1,b=-2,c=3", "a=-50001,b=49998,c=5"),
            ("equivalent", "large", "b=2,c=-1", "a=2,b=5,c=-6"),
            ("equivalent", "large", "a=1,b=-2,c=3", "a=-50002,b=49999,c=5"),
        ],
    ),
}


def cli_round(tmp_path, graphs, commands):
    files = {name: graph_file(tmp_path, name, graph) for name, graph in graphs.items()}
    for command, name, *literals in commands:
        argv = [command, files[name]]
        for literal in literals:
            argv += ["--divisor", literal]
        code = main([*argv, "--json"])
        assert code in (0, 1)


PINS = {
    "ranks": {
        "from_scratch": 29, "borrows": 2002, "burns": 194, "principal": 0, "misses": 6605, "walks": 382,
        "levels": {"rank": 350, "witness": 27},
    },
    "reductions": {
        "from_scratch": 30, "borrows": 0, "burns": 8644, "principal": 15, "misses": 0, "walks": 0,
        "levels": {},
    },
    "cli": {
        "from_scratch": 30, "borrows": 68, "burns": 90, "principal": 15, "misses": 103, "walks": 45,
        "levels": {"rank": 34, "witness": 10},
    },
    "reps": {
        "from_scratch": 16, "borrows": 0, "burns": 106, "principal": 8978, "misses": 0, "walks": 0,
        "levels": {},
    },
    "large": {
        "from_scratch": 9, "borrows": 0, "burns": 15, "principal": 3, "misses": 0, "walks": 0,
        "levels": {},
    },
}


@pytest.mark.parametrize("kind", PINS)
def test_kernel_work_is_pinned(kind, monkeypatch, tmp_path, capsys):
    calls = {key: spy(monkeypatch, *targets) for key, targets in COUNTED.items()}
    stages = spy(monkeypatch, "chipfire.rank.check_budget", record=lambda args, _: args[2])
    if kind == "ranks":
        rank_round()
    elif kind == "reductions":
        reduction_round()
    else:
        cli_round(tmp_path, *CLI_ROUNDS[kind])
    capsys.readouterr()
    counts = {key: len(made) for key, made in calls.items()}
    assert {**counts, "levels": dict(Counter(stages))} == PINS[kind]

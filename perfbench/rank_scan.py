"""rank-scan: closed-loop `rank` calls with default arguments.

Why: `rank` and the reduction kernel inside it do nearly all the work.
Weightless graphs (K5-K7, Petersen) are built once per round and held, so
their reduce cache stays warm from call to call; weighted graphs (the
golden graph, weighted cycles) get a fresh loopless model on every call
and start cold.  A change to the cache policy therefore shows on both
sides.  The K - E classes on K7 carry the level count that scanning the
cheaper side of Riemann-Roch would cut.
"""

from __future__ import annotations

from common import (
    canonical,
    complete,
    cycle,
    fresh_divisor,
    genus,
    golden,
    petersen,
    random_effective,
)

NAME = "rank-scan"

GRAPHS = {
    "K5": complete(5),
    "K6": complete(6),
    "K7": complete(7),
    "petersen": petersen(),
    "golden": golden(),
    "wcycle5": cycle(5, (1, 0, 1, 0, 0), prefix="w"),
    "wcycle6": cycle(6, (1, 0, 0, 1, 0, 1), prefix="u"),
}

# Per graph and round: the K - E classes (an int e draws a random effective
# E of degree e; "each_vertex" and "all_but_each_vertex" give one class per
# vertex v, with E = v and E = (sum of all vertices) - v, in a drawn order),
# the degrees of the divisors drawn in [0, 2g - 2], and how many ops fall
# outside that range (the shortcut path).  The lists are fixed, so every
# seed gives a round of the same shape.  Drawn degrees, or drawn E on K7,
# made a round's cost swing by more than 10% with a few high-rank draws;
# a whole vertex orbit costs the same in any order on a warm cache.  The
# golden graph's K comes 10 times and wcycle5's K 40 times: each call
# rebuilds the loopless model and scans cold at a fixed cost, and these
# calls sit at the 90th percentile and at the median, so op_p90_ms and
# op_p50_ms are set by fixed inputs rather than by the draw.
PLAN = {
    "K7": {"k_minus": ("all_but_each_vertex",), "degrees": (2, 5, 8, 10), "outside": 2},
    "K6": {"k_minus": (0, "each_vertex"), "degrees": tuple(range(0, 19, 2)), "outside": 2},
    "K5": {"k_minus": (0, 1, 2), "degrees": tuple(range(0, 11)), "outside": 2},
    "petersen": {"k_minus": (0, "each_vertex"), "degrees": (0, 2, 4, 6, 8, 10), "outside": 2},
    "golden": {"k_minus": (0,) * 10 + (1, 2, 3), "degrees": tuple(range(0, 11)), "outside": 2},
    "wcycle5": {"k_minus": (0,) * 40 + (1, 2), "degrees": tuple(range(0, 5)) * 2, "outside": 2},
    "wcycle6": {"k_minus": (0, 1, 2), "degrees": tuple(range(0, 7)) * 2, "outside": 2},
}

PARAMS = {
    "graphs": {k: {"vertices": len(g[0]), "weights": list(g[1]), "genus": genus(g)} for k, g in GRAPHS.items()},
    "plan": PLAN,
    "drawn_divisors": "random chips in [-1, 2], nudged one chip at a time to the listed degree",
    "outside": "degree drawn from [-3, -1] or [2g - 1, 2g + 2]",
    "order": "ops of all graphs interleaved round-robin in PLAN order",
}


def make_round(rng):
    per_graph = []
    for key, plan in PLAN.items():
        g = GRAPHS[key]
        n, gen, k = len(g[0]), genus(g), canonical(g)
        ops = []
        for e in plan["k_minus"]:
            if e == "each_vertex":
                es = [tuple(int(i == v) for i in range(n)) for v in range(n)]
            elif e == "all_but_each_vertex":
                es = [tuple(int(i != v) for i in range(n)) for v in range(n)]
            else:
                es = [random_effective(rng, n, e)]
            rng.shuffle(es)
            ops += [(key, tuple(a - b for a, b in zip(k, ev))) for ev in es]
        for deg in plan["degrees"]:
            ops.append((key, fresh_divisor(rng, n, deg)))
        for _ in range(plan["outside"]):
            deg = rng.choice((rng.randint(-3, -1), rng.randint(2 * gen - 1, 2 * gen + 2)))
            ops.append((key, fresh_divisor(rng, n, deg)))
        per_graph.append(ops)
    ordered = []
    for i in range(max(len(ops) for ops in per_graph)):
        ordered += [ops[i] for ops in per_graph if i < len(ops)]
    return ordered


def build(cf, ops, workdir):
    return {key: cf.build_graph(GRAPHS[key]) for key in {k for k, _ in ops}}


def run_op(cf, graphs, op):
    key, vals = op
    g = graphs[key]
    report = cf.rank.rank(g, cf.divisors.Divisor(g, vals))
    w = report.witness
    # ints and tuples only: a held report would keep the model graph and
    # its reduce cache alive into the next op
    return (report.rank, None if w is None else w.sort_key())


def checker(cf, ops, tracer):
    """Each rank must equal rank_oracle on whichever of D and K - D has the
    lower degree, carried over through Riemann-Roch."""
    graphs = build(cf, ops, None)

    def verdict(op, res):
        key, vals = op
        spec = GRAPHS[key]
        g = graphs[key]
        gen, deg = genus(spec), sum(vals)
        if deg <= gen - 1:
            side, shift = vals, 0
        else:
            side = tuple(a - b for a, b in zip(canonical(spec), vals))
            shift = deg - gen + 1
        with tracer.span("rank.rank_oracle"):
            expected = cf.rank.rank_oracle(g, cf.divisors.Divisor(g, side)) + shift
        r, wkey = res
        if r != expected:
            return f"rank {r}, oracle says {expected}"
        if wkey is not None and (sum(wkey) != r + 1 or min(wkey) < 0):
            return f"witness {wkey} is not effective of degree {r + 1}"
        return None

    return verdict

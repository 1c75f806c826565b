"""Pure-data helpers shared by the workloads.

Everything here works on plain ints and tuples, never on chipfire objects,
so the inputs and the correctness checks stay independent of the code
under test.  A graph spec is ``(vertices, weights, edges)``: vertex names,
their weights, and ``(i, j, multiplicity)`` triples, where ``i == j`` is a
loop.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations
from math import comb


def spec(vertices, edges, weights=None):
    vertices = tuple(vertices)
    weights = tuple(weights) if weights is not None else (0,) * len(vertices)
    return (vertices, weights, tuple(edges))


def complete(n):
    return spec([f"v{i}" for i in range(n)], [(i, j, 1) for i, j in combinations(range(n), 2)])


def petersen():
    outer = [(i, (i + 1) % 5, 1) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
    spokes = [(i, 5 + i, 1) for i in range(5)]
    return spec([f"p{i}" for i in range(10)], outer + inner + spokes)


def golden():
    """The three-vertex weighted graph of the test suite (genus 6)."""
    return spec(["v1", "v2", "v3"], [(0, 1, 3), (1, 2, 1)], [0, 3, 1])


def cycle(n, weights=None, prefix="c"):
    return spec([f"{prefix}{i:03d}" for i in range(n)], [(i, (i + 1) % n, 1) for i in range(n)], weights)


def theta(n):
    """Two hubs joined by three internally disjoint paths over n vertices."""
    rest = list(range(2, n))
    k = len(rest)
    edges = []
    for part in (rest[: k // 3], rest[k // 3: 2 * k // 3], rest[2 * k // 3:]):
        chain = [0] + part + [1]
        edges += [(chain[i], chain[i + 1], 1) for i in range(len(chain) - 1)]
    return spec([f"t{i:03d}" for i in range(n)], edges)


def ladder(n):
    """Two paths of n // 2 vertices joined by rungs."""
    m = n // 2
    rails = [(i, i + 1, 1) for i in range(m - 1)] + [(m + i, m + i + 1, 1) for i in range(m - 1)]
    rungs = [(i, m + i, 1) for i in range(m)]
    return spec([f"l{i:03d}" for i in range(2 * m)], rails + rungs)


def genus(g):
    vertices, weights, edges = g
    return sum(m for _, _, m in edges) - len(vertices) + 1 + sum(weights)


def canonical(g):
    """2 * weight - 2 + valence at each vertex; a loop adds 2 to the valence."""
    vertices, weights, edges = g
    val = [0] * len(vertices)
    for i, j, m in edges:
        val[i] += m
        val[j] += m
    return tuple(2 * w - 2 + v for w, v in zip(weights, val))


def model_size(g):
    """Vertex count of the loopless, weightless model: one satellite per
    unit of weight and per loop."""
    vertices, weights, edges = g
    return len(vertices) + sum(weights) + sum(m for i, j, m in edges if i == j)


def lex_order(g):
    """Vertex indices sorted by name, the package-wide canonical order."""
    return sorted(range(len(g[0])), key=lambda i: g[0][i])


def base_index(g):
    return lex_order(g)[0]


def fresh_divisor(rng, n, degree, lo=-1, hi=2):
    """Random chips in [lo, hi], nudged one chip at a time to the degree."""
    vals = [rng.randint(lo, hi) for _ in range(n)]
    while sum(vals) > degree:
        vals[rng.randrange(n)] -= 1
    while sum(vals) < degree:
        vals[rng.randrange(n)] += 1
    return tuple(vals)


def random_effective(rng, n, degree):
    vals = [0] * n
    for _ in range(degree):
        vals[rng.randrange(n)] += 1
    return tuple(vals)


def fire(g, vals, zone):
    """vals after firing every vertex of the zone once."""
    out = list(vals)
    for i, j, m in g[2]:
        if (i in zone) != (j in zone):
            src, dst = (i, j) if i in zone else (j, i)
            out[src] -= m
            out[dst] += m
    return tuple(out)


def composition_index(combo):
    """0-based position of a nonnegative tuple among all tuples of its
    length and sum, in ascending lexicographic order."""
    remaining = sum(combo)
    n = len(combo)
    index = 0
    for i, x in enumerate(combo[:-1]):
        slots = n - i - 1
        # tuples that put a smaller value at position i come first
        for a in range(x):
            index += comb(remaining - a + slots - 1, slots - 1)
        remaining -= x
    return index


def level_candidates(n, k):
    """Effective divisors of degree k on n vertices."""
    return comb(k + n - 1, n - 1)


def firing_solution(g, delta, base):
    """Integer firing vector x with L x = delta and x[base] = 0, or None.

    Exact sparse Gaussian elimination over the rationals on the reduced
    Laplacian (minimum-degree pivot order, so cycles, ladders and theta
    graphs stay sparse).  delta is principal exactly when its degree is 0
    and the unique rational solution is integral.
    """
    vertices, _, edges = g
    n = len(vertices)
    if sum(delta) != 0:
        return None
    rows = {v: {} for v in range(n) if v != base}
    for i, j, m in edges:
        if i == j:
            continue
        for a, b in ((i, j), (j, i)):
            if a != base:
                rows[a][a] = rows[a].get(a, 0) + m
                if b != base:
                    rows[a][b] = rows[a].get(b, 0) - m
    rhs = {v: Fraction(delta[v]) for v in rows}
    rows = {v: {c: Fraction(x) for c, x in r.items() if x} for v, r in rows.items()}
    order = []
    live = set(rows)
    while live:
        p = min(live, key=lambda v: (len(rows[v]), v))
        live.discard(p)
        order.append(p)
        prow = rows[p]
        piv = prow[p]
        for r in [c for c in prow if c in live]:
            row = rows[r]
            f = row[p] / piv
            for c, x in prow.items():
                if c == p:
                    continue
                y = row.get(c, 0) - f * x
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
            del row[p]
            rhs[r] -= f * rhs[p]
    x = [Fraction(0)] * n
    for p in reversed(order):
        prow = rows[p]
        s = rhs[p] - sum(v * x[c] for c, v in prow.items() if c != p)
        x[p] = s / prow[p]
    if any(v.denominator != 1 for v in x):
        return None
    return tuple(int(v) for v in x)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]

"""Shared fixtures, generators, and brute-force oracles for the test suite.

The brute-force routines here intentionally avoid the package's burning
machinery so they can serve as independent cross-checks: reducedness is
checked against the raw subset definition, and equivalence by bounded
search over integer combinations of single-vertex firings.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from chipfire import Divisor, WeightedMultigraph, t_set


def golden_graph() -> WeightedMultigraph:
    """Three vertices with weights 0/3/1, a triple edge and a bridge; genus 6."""
    return WeightedMultigraph(
        ["v1", "v2", "v3"],
        {"v1": 0, "v2": 3, "v3": 1},
        [("v1", "v2"), ("v1", "v2"), ("v1", "v2"), ("v2", "v3")],
    )


def chain_blob_graph() -> WeightedMultigraph:
    """Two triangles and a doubled edge strung along two bridges.

    Its bridge contraction is a three-vertex path, so it is a chain of
    2-edge-connected components.
    """
    return WeightedMultigraph(
        ["t1", "t2", "t3", "m1", "m2", "p1", "p2", "p3"],
        {},
        [
            ("t1", "t2"), ("t2", "t3"), ("t1", "t3"),
            ("t3", "m1"),
            ("m1", "m2"), ("m1", "m2"),
            ("m2", "p1"),
            ("p1", "p2"), ("p2", "p3"), ("p1", "p3"),
        ],
    )


def star_blob_graph() -> WeightedMultigraph:
    """A central triangle with three bridges to doubled-edge blobs.

    Its bridge contraction is a star whose center has valence 3, so it is
    not a chain of 2-edge-connected components.
    """
    return WeightedMultigraph(
        ["c1", "c2", "c3", "x1", "x2", "y1", "y2", "z1", "z2"],
        {},
        [
            ("c1", "c2"), ("c2", "c3"), ("c1", "c3"),
            ("c1", "x1"), ("x1", "x2"), ("x1", "x2"),
            ("c2", "y1"), ("y1", "y2"), ("y1", "y2"),
            ("c3", "z1"), ("z1", "z2"), ("z1", "z2"),
        ],
    )


def random_connected_graph(
    rng: random.Random,
    *,
    max_vertices: int = 6,
    max_extra_edges: int = 3,
    max_weight: int = 2,
    max_genus: int = 5,
    max_model_vertices: int = 10,
    allow_loops: bool = True,
    require_weight: bool = False,
) -> WeightedMultigraph:
    """Random connected multigraph within the given caps.

    Built from a random spanning tree plus a few extra edges (possibly
    parallel or loops), with small weights; instances whose genus or
    loopless-model size exceed the caps are resampled so that definitional
    rank scans stay cheap.
    """
    while True:
        n = rng.randint(1, max_vertices)
        verts = [f"v{i}" for i in range(1, n + 1)]
        edges = []
        for i in range(1, n):
            edges.append((verts[rng.randrange(i)], verts[i]))
        for _ in range(rng.randint(0, max_extra_edges)):
            a = rng.randrange(n)
            b = rng.randrange(n)
            if not allow_loops and a == b:
                continue
            edges.append((verts[a], verts[b]))
        weights = {}
        for v in verts:
            weights[v] = rng.choice([0, 0, 0, 0, 1, 1, max_weight])
        if require_weight and all(w == 0 for w in weights.values()):
            weights[rng.choice(verts)] = 1
        g = WeightedMultigraph(verts, weights, edges)
        model_size = n + sum(weights.values()) + sum(1 for a, b in edges if a == b)
        if g.genus <= max_genus and model_size <= max_model_vertices:
            return g


def random_divisor(rng: random.Random, g: WeightedMultigraph, lo: int = -5, hi: int = 5) -> Divisor:
    return Divisor(g, [rng.randint(lo, hi) for _ in g.vertices])


def clip_degree(rng: random.Random, d: Divisor, lo: int, hi: int) -> Divisor:
    """Nudge random entries until the degree lands in [lo, hi]."""
    vals = list(d.values)
    while sum(vals) > hi:
        vals[rng.randrange(len(vals))] -= 1
    while sum(vals) < lo:
        vals[rng.randrange(len(vals))] += 1
    return Divisor(d.graph, vals)


def random_principal_shift(rng: random.Random, g: WeightedMultigraph, moves: int = 3) -> Divisor:
    """A random sum of set-firing divisors (an element of the principal lattice)."""
    out = Divisor.zero(g)
    for _ in range(moves):
        size = rng.randint(1, max(1, len(g.vertices) - 1))
        zone = rng.sample(list(g.vertices), size)
        out = out + rng.choice([1, 1, 2, -1]) * t_set(g, zone)
    return out


def brute_is_reduced(g: WeightedMultigraph, d: Divisor, zone) -> bool:
    """Subset-definition check: effective off the set, and every nonempty
    outside subset A has a vertex with fewer chips than its edges out of A."""
    zone = set(zone)
    others = [v for v in g.vertices if v not in zone]
    if any(d.value(v) < 0 for v in others):
        return False
    idx = {v: g.vertex_index(v) for v in g.vertices}
    for r in range(1, len(others) + 1):
        for sub in combinations(others, r):
            inside = {idx[v] for v in sub}
            found = False
            for v in sub:
                outward = sum(
                    m
                    for i, j, m in g._pairs
                    if (i == idx[v] and j not in inside) or (j == idx[v] and i not in inside)
                )
                if d.value(v) < outward:
                    found = True
                    break
            if not found:
                return False
    return True


def brute_equivalent(g: WeightedMultigraph, d1: Divisor, d2: Divisor, bound: int = 4) -> bool:
    """Search bounded integer combinations of single-vertex firings.

    Complete only within the coefficient bound; used on instances small
    enough that the bound is known to suffice.
    """
    if d1.degree != d2.degree:
        return False
    diff = (d1 - d2).values
    gens = [t_set(g, [v]).values for v in g.vertices[:-1]]
    if not gens:
        return diff == (0,) * len(g.vertices)
    n = len(diff)
    for coeffs in product(range(-bound, bound + 1), repeat=len(gens)):
        vec = tuple(
            sum(c * gen[i] for c, gen in zip(coeffs, gens)) for i in range(n)
        )
        if vec == diff:
            return True
    return False


def reference_burn(g: WeightedMultigraph, vals, seed):
    """Round-synchronous Dhar burning that rescans every vertex each round.

    The O(n * rounds) form of the package's burning kernel, kept as its
    reference: returns (burnt mask, inflow, chain of burnt index sets),
    where inflow[v] counts the edges from v into the final burnt set.
    """
    n = len(g.vertices)
    burnt = [False] * n
    inflow = [0] * n
    current = []
    for s in seed:
        if not burnt[s]:
            burnt[s] = True
            current.append(s)
    for v in current:
        for w, m in g._rows[v]:
            inflow[w] += m
    chain = [frozenset(current)]
    while True:
        newly = [v for v in range(n) if not burnt[v] and inflow[v] > vals[v]]
        if not newly:
            return burnt, inflow, chain
        for v in newly:
            burnt[v] = True
            for w, m in g._rows[v]:
                inflow[w] += m
        chain.append(chain[-1] | frozenset(newly))


def reduced_laplacian_inverse(g: WeightedMultigraph):
    """Exact inverse of the Laplacian with the first vertex's row and column
    deleted, by Fraction Gauss-Jordan elimination (loops do not enter)."""
    n = len(g.vertices)
    idx = g.vertex_index
    lap = [[Fraction(0)] * n for _ in range(n)]
    for a, b in g.edges:
        i, j = idx(a), idx(b)
        if i != j:
            lap[i][i] += 1
            lap[j][j] += 1
            lap[i][j] -= 1
            lap[j][i] -= 1
    m = n - 1
    a = [row[1:] for row in lap[1:]]
    inv = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(m):
            f = a[r][col]
            if r != col and f != 0:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def rational_equivalent(inv, d1: Divisor, d2: Divisor) -> bool:
    """d1 ~ d2 iff they have equal degree and the reduced Laplacian system
    L' x = (d2 - d1) off the first vertex has an integer solution x (the
    firing counts); ``inv`` comes from :func:`reduced_laplacian_inverse`."""
    if d1.degree != d2.degree:
        return False
    rhs = [b - a for a, b in zip(d1.values[1:], d2.values[1:])]
    return all(
        sum(c * y for c, y in zip(row, rhs) if y).denominator == 1 for row in inv
    )

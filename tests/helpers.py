"""Shared fixtures, generators, and brute-force oracles for the test suite.

This is the one module that test modules import from; none imports
another.  It holds:

- the fixture graphs: ``golden_graph``, ``chain_blob_graph``,
  ``star_blob_graph``, ``loop_chain_graph``, ``complete``, ``petersen``,
  and the long sparse ``cycle``, ``theta`` and ``ladder`` (``GRAPHS``
  names their sizes), all built by ``named_graph`` where the names are
  indexed;
- ``graph_file``, which writes a graph file for the CLI;
- ``spy``, which wraps package functions and records their calls;
- ``SOURCES``, the package's source files, for the AST checks, and
  ``child_env``, for tests that run chipfire in a child interpreter;
- random graphs and divisors;
- the independent references below.

The brute-force routines here intentionally avoid the package's burning
machinery so they can serve as independent cross-checks: reducedness is
checked against the raw subset definition, and equivalence by bounded
search over integer combinations of single-vertex firings, or by
``rational_equivalent``, a Fraction solve of the reduced Laplacian that
shares no code with the package's integer solve.  The exceptions
are ``reference_model_rank``, the rank scan on the loopless weightless
model, kept as the reference for ``rank``'s scan on the graph itself;
``reference_uncovered`` and ``reference_off_base_min``, the level scan
and the base-vertex minima that reduce every candidate from scratch (all
three enumerate with ``reference_compositions``, not the package's walk);
and the representative searches built on
``reference_box_members``, which reduce every vector of the box with
``reduce_to``.  The references reduce through ``scratch_reduce``, the
package's kernel from scratch with a memo of the tests' own, so they share
no cache with the rank scan under test.
"""

from __future__ import annotations

import importlib
import math
import os
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

from chipfire import (
    Divisor,
    WeightedMultigraph,
    balance_bounds,
    bullet_model,
    canonical_divisor,
    reduce_to,
    t_set,
)
from chipfire.cli import serialize_graph
from chipfire.enumeration import DEFAULT_BUDGET, check_budget, count_compositions
from chipfire.rank import METHOD_DEFINITION, METHOD_SHORTCUT, RankReport
from chipfire.reduction import _reduce_off


@lru_cache(maxsize=1 << 16)
def scratch_reduce(g: WeightedMultigraph, vals: tuple[int, ...], u: int) -> tuple[int, ...]:
    """The reduced form at index u of vals, by the package's kernel from
    scratch; memoised here, apart from the rank scan's cache.  Equal graphs
    share entries, since a reduced form depends only on the graph."""
    return tuple(_reduce_off(g, vals, [u]))


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


def loop_chain_graph() -> WeightedMultigraph:
    """A chain of 2-edge-connected components with a loop at every weight-0
    vertex: the Uniform branch's hypotheses hold."""
    return WeightedMultigraph(
        ["a", "b", "c"],
        {"b": 1},
        [("a", "b"), ("a", "b"), ("b", "c"), ("a", "a"), ("c", "c")],
    )


def named_graph(prefix: str, n: int, pairs, weights=(), width: int = 1) -> WeightedMultigraph:
    """The graph on vertices prefix + i for i < n, i zero-padded to width
    digits, with an edge for each index pair and the weights in vertex
    order (0 past their end)."""
    verts = [f"{prefix}{i:0{width}d}" for i in range(n)]
    return WeightedMultigraph(
        verts, dict(zip(verts, weights)), [(verts[i], verts[j]) for i, j in pairs]
    )


def complete(n: int) -> WeightedMultigraph:
    """K_n on k0, k1, ..."""
    return named_graph("k", n, combinations(range(n), 2))


def petersen() -> WeightedMultigraph:
    """The Petersen graph on p0-p9: an outer 5-cycle, an inner pentagram
    and five spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return named_graph("p", 10, outer + inner + [(i, 5 + i) for i in range(5)])


def cycle(n: int) -> WeightedMultigraph:
    """C_n on c00, c01, ..."""
    return named_graph("c", n, [(i, (i + 1) % n) for i in range(n)], width=2)


def theta(n: int) -> WeightedMultigraph:
    """Two hubs, 0 and 1, joined by three internally disjoint paths."""
    rest = list(range(2, n))
    k = len(rest)
    pairs = []
    for part in (rest[: k // 3], rest[k // 3: 2 * k // 3], rest[2 * k // 3:]):
        path = [0] + part + [1]
        pairs += zip(path, path[1:])
    return named_graph("t", n, pairs, width=2)


def ladder(n: int) -> WeightedMultigraph:
    """Two rails of n // 2 vertices joined by rungs."""
    m = n // 2
    rails = [(i, i + 1) for i in range(m - 1)] + [(m + i, m + i + 1) for i in range(m - 1)]
    return named_graph("l", 2 * m, rails + [(i, m + i) for i in range(m)], width=2)


# Sizes stop where phase 1 of reduce_to blows up: reducing a theta graph at
# every vertex costs about 3 times as much at 20 vertices as at 18, 4 times
# as much again at 22 (0.5 s) and over twice that at 24, which would make
# test_sparse_reduction.py the slowest module in the suite.  theta20 is the
# benchmark's largest theta graph.
GRAPHS = {
    f"{make.__name__}{n}": make(n)
    for make, sizes in ((cycle, (16, 20, 24)), (theta, (16, 18, 20, 22)), (ladder, (16, 20, 22)))
    for n in sizes
}

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "chipfire").glob("*.py"))


def child_env() -> dict:
    """The environment for a child interpreter that imports this checkout's
    chipfire: os.environ with src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def graph_file(tmp_path: Path, name: str, graph) -> str:
    """Write graph, a WeightedMultigraph or the text of a graph file, to
    tmp_path / (name + ".graph") for the CLI; returns that path."""
    path = tmp_path / f"{name}.graph"
    text = graph if isinstance(graph, str) else serialize_graph(graph)
    path.write_text(text, encoding="utf-8")
    return str(path)


def spy(monkeypatch, *targets: str, record=lambda args, out: (args, out)) -> list:
    """Wrap each target, a dotted path such as ``"chipfire.reduction._borrow"``,
    through monkeypatch; returns the list to which each call appends
    record(positional args, result) as it returns.  A module's own
    reference to another module's function is a target of its own."""
    calls = []
    for target in targets:
        module_name, _, name = target.rpartition(".")
        module = importlib.import_module(module_name)

        def wrapper(*args, _fn=getattr(module, name), **kwargs):
            out = _fn(*args, **kwargs)
            calls.append(record(args, out))
            return out

        monkeypatch.setattr(module, name, wrapper)
    return calls


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


def reference_superstabilize(g: WeightedMultigraph, vals: list[int], seed) -> int:
    """Phase 2 of the reduction as the whole unburnt set's firing, in place;
    returns the number of burns it ran.

    Each round burns from the seed with :func:`reference_burn`; unless all
    burns, the unburnt set U fires k times for the largest k that leaves it
    nonnegative, the least chips // edges out of U over the vertices of U
    with such edges, every edge between U and the burnt side carrying k
    chips out.  The cut is read off
    ``g._pairs``, not off the burn's inflow, and nothing here calls the
    package's firing code.  Requires vals nonnegative off the seed.
    """
    n = len(g.vertices)
    burns = 0
    while True:
        burnt, _, _ = reference_burn(g, vals, seed)
        burns += 1
        if all(burnt):
            return burns
        out = [0] * n
        cut = [(j, i, m) if burnt[i] else (i, j, m) for i, j, m in g._pairs if burnt[i] != burnt[j]]
        for inside, _, m in cut:
            out[inside] += m
        k = min(vals[v] // out[v] for v in range(n) if out[v])
        if k < 1:
            raise RuntimeError(f"unburnt set fires {k} times")
        for inside, outside, m in cut:
            vals[inside] -= k * m
            vals[outside] += k * m


def reference_compositions(total: int, length: int):
    """Compositions of total into length parts in lex order, by stars and
    bars: the length - 1 bars take lex-ordered slots among total + length - 1,
    and each part counts the stars between two bars.  Shares no code with
    ``chipfire.enumeration``, so the reference scans below do not either."""
    if total < 0 or (length == 0 and total):
        return
    if length == 0:
        yield ()
        return
    slots = total + length - 1
    for bars in combinations(range(slots), length - 1):
        ends = (-1, *bars, slots)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def reference_box_count(lows, highs, total: int) -> int:
    """Integer vectors in the box [lows, highs] summing to total, by a DP
    over the coordinates: entry s counts the vectors so far with shifted
    sum s, and a coordinate of width w replaces it by the sum of the w + 1
    entries ending at s.  O(n * t) time for shifted sum t, so only for
    small boxes; shares no code with ``chipfire.enumeration``."""
    widths = [h - l for l, h in zip(lows, highs)]
    t = total - sum(lows)
    if t < 0 or any(w < 0 for w in widths):
        return 0
    counts = [1] + [0] * t
    for w in widths:
        counts = [sum(counts[max(0, s - w): s + 1]) for s in range(t + 1)]
    return counts[t]


def reference_model_rank(
    g: WeightedMultigraph, d: Divisor, *, shortcuts: bool = True, budget: int = DEFAULT_BUDGET
) -> RankReport:
    """Rank by the definitional scan on the loopless weightless model.

    Level k tests every effective degree-k divisor of the model in lex
    order, reducing on the model itself, so the first failure is the
    witness; the budget is checked against the model's composition count
    before each level.  ``rank`` scans g instead and must agree with this
    on value, witness and method, and raise where this raises.
    """
    deg = d.degree
    if shortcuts:
        if deg < 0:
            return RankReport(-1, None, METHOD_SHORTCUT)
        if deg > 2 * g.genus - 2:
            return RankReport(deg - g.genus, None, METHOD_SHORTCUT)
    gb = bullet_model(g)
    by_name = d.as_dict()
    base_vals = [by_name.get(v, 0) for v in gb.vertices]
    u = gb.vertex_index(gb.base_vertex())
    lex = gb._lex_indices
    k = 0
    while True:
        check_budget(count_compositions(k, gb._n), budget)
        for combo in reference_compositions(k, gb._n):
            target = list(base_vals)
            for pos, x in zip(lex, combo):
                target[pos] -= x
            if scratch_reduce(gb, tuple(target), u)[u] < 0:
                witness = [0] * gb._n
                for pos, x in zip(lex, combo):
                    witness[pos] = x
                return RankReport(k - 1, Divisor(gb, witness), METHOD_DEFINITION)
        k += 1


def _scratch_targets(g: WeightedMultigraph, vals, u: int, k: int, coords):
    """(composition, reduced form at u of its target) for every composition
    of k over coords in lex order, each target reduced from scratch: x
    chips at coordinate i take costs[i][x] chips off vertex dests[i]."""
    dests, costs = coords
    for combo in reference_compositions(k, len(dests)):
        target = list(vals)
        for to, cost, x in zip(dests, costs, combo):
            target[to] -= cost[x]
        yield combo, scratch_reduce(g, tuple(target), u)


def reference_uncovered(g: WeightedMultigraph, vals, k: int, coords, mins=None, lex=True):
    """First composition of k over coords (lex order) whose cost leaves a
    non-effective class at g's base vertex u, each candidate reduced from
    scratch; None when every candidate is covered.  coords is (dests,
    costs) as built by ``rank._coords``.  The reference for
    ``rank._uncovered``, which folds u out and steps cache misses from
    their parents; mins and lex are taken and ignored, since the lex-first
    failure is a valid answer with or without lex."""
    u = g.vertex_index(g.base_vertex())
    for combo, red in _scratch_targets(g, vals, u, k, coords):
        if red[u] < 0:
            return combo
    return None


def reference_off_base_min(g: WeightedMultigraph, vals, j: int, coords):
    """Fewest chips at g's base vertex u among the reduced forms, from
    scratch, of the compositions of j over coords without its first
    coordinate (u's); infinity when there is none.  What
    ``rank._uncovered`` records as mins[j]."""
    u = g.vertex_index(g.base_vertex())
    dests, costs = coords
    rest = dests[1:], costs[1:]
    return min((red[u] for _, red in _scratch_targets(g, vals, u, j, rest)), default=float("inf"))


def reference_complete_reduce(vals, q: int = 0) -> list[int]:
    """The q-reduced divisor equivalent to vals on the complete graph K_n,
    n = len(vals), by K_n's own firing rules; shares nothing with the
    package's burning kernel.

    On K_n a set A off q fires legally iff each vertex of A holds n - |A|
    chips, its edge count out of A; then A loses n - |A| chips at each
    vertex and every other vertex gains |A|.  If some A fires legally, so
    do the |A| richest vertices off q.  So D, nonnegative off q, is
    q-reduced iff its sorted values off q, b_0 <= ... <= b_{n-2}, are a
    parking function, b_i <= i (Cori-Le Borgne, arXiv:1308.5325).  q first
    fires until nothing off it is negative, each firing passing one chip
    to every other vertex; then the largest legal set of richest vertices
    fires until none is left.  Each firing raises q, which the degree
    bounds, so this ends.
    """
    n = len(vals)
    d = list(vals)
    debt = max([0] + [-x for i, x in enumerate(d) if i != q])
    for i in range(n):
        d[i] += -debt * (n - 1) if i == q else debt
    while True:
        rich = sorted((i for i in range(n) if i != q), key=d.__getitem__, reverse=True)
        size = max((s for s in range(1, n) if d[rich[s - 1]] >= n - s), default=0)
        if not size:
            return d
        fired = set(rich[:size])
        for i in range(n):
            d[i] += -(n - size) if i in fired else size


def reference_complete_rank(vals, memo: dict | None = None) -> int:
    """Rank of vals on K_n, n = len(vals), by the recursion rank(D) = -1 if
    the class of D is not effective, and 1 + min_v rank(D - v) otherwise.

    The recursion is the definition: rank(D) >= k + 1 iff D - v - E is
    equivalent to an effective divisor for every vertex v and effective E
    of degree k, iff rank(D - v) >= k for every v.  Each class is kept as
    its reduced form R at q = 0 (:func:`reference_complete_reduce`), with
    R(q) >= 0 iff the class is effective.  A permutation of the vertices
    off q is an automorphism of K_n that maps reduced forms to reduced
    forms and keeps the rank, so (R(q), the sorted values off q) keys the
    memo, and one v per distinct value off q, plus q itself, gives the
    minimum.  Calls on one n may share a memo.  Cori-Le Borgne
    (arXiv:1308.5325) compute this rank greedily in polynomial time; the
    recursion is kept here as the plainer check.
    """
    memo = {} if memo is None else memo

    def rank_of(red):
        key = (red[0], tuple(sorted(red[1:])))
        if key not in memo:
            if red[0] < 0:
                memo[key] = -1
            else:
                picks = {x: v for v, x in enumerate(red) if v}
                ranks = []
                for v in [0, *picks.values()]:
                    less = list(red)
                    less[v] -= 1
                    ranks.append(rank_of(reference_complete_reduce(less)))
                memo[key] = 1 + min(ranks)
        return memo[key]

    return rank_of(reference_complete_reduce(vals))


def reference_box_members(g: WeightedMultigraph, c, lows, highs) -> list[Divisor]:
    """Class members among the vectors of the box [lows, highs] (bounds in
    canonical vertex order) at the class degree: the lex-sorted product
    over the box, each candidate reduced with ``reduce_to``."""
    names = g.vertices_sorted
    found = []
    for combo in sorted(product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))):
        if sum(combo) != c.degree:
            continue
        d = Divisor(g, dict(zip(names, combo)))
        if reduce_to(g, d, c.base_vertex) == c.canonical:
            found.append(d)
    return found


def reference_effective_representatives(g: WeightedMultigraph, c) -> list[Divisor]:
    n = len(g.vertices)
    return reference_box_members(g, c, [0] * n, [c.degree] * n) if c.degree >= 0 else []


def reference_uniform_representative(g: WeightedMultigraph, c) -> Divisor | None:
    k = canonical_divisor(g)
    highs = [k.value(v) for v in g.vertices_sorted]
    if min(highs) < 0:
        return None
    return next(iter(reference_box_members(g, c, [0] * len(highs), highs)), None)


def reference_is_semibalanced(g: WeightedMultigraph, d: Divisor) -> bool:
    """Every proper nonempty vertex subset, each against its rational window
    from ``balance_bounds``."""
    return all(
        lo <= sum(d.value(v) for v in zone) <= hi
        for size in range(1, len(g.vertices))
        for zone in combinations(g.vertices, size)
        for lo, hi in [balance_bounds(g, d.degree, zone)]
    )


def reference_semibalanced_representative(g: WeightedMultigraph, c) -> Divisor:
    """The first class member in the box of singleton windows that passes
    :func:`reference_is_semibalanced`."""
    if len(g.vertices) == 1:
        return Divisor(g, [c.degree])
    windows = [balance_bounds(g, c.degree, [v]) for v in g.vertices_sorted]
    lows = [math.ceil(lo) for lo, _ in windows]
    highs = [math.floor(hi) for _, hi in windows]
    return next(
        d for d in reference_box_members(g, c, lows, highs) if reference_is_semibalanced(g, d)
    )


def rational_firing(g: WeightedMultigraph, z) -> list[Fraction]:
    """The unique rational x with x[0] = 0 and L x = z off the first
    declared vertex, L the Laplacian (loops do not enter).

    Fraction elimination of the reduced Laplacian in minimum-degree order,
    which keeps cycles, ladders and theta graphs sparse, built from
    ``g.edges``; it shares no code with the package's solve.
    """
    n = len(g.vertices)
    idx = g.vertex_index
    rows = {v: {} for v in range(1, n)}
    for a, b in g.edges:
        i, j = idx(a), idx(b)
        if i == j:
            continue
        for p, q in ((i, j), (j, i)):
            if p:
                rows[p][p] = rows[p].get(p, 0) + Fraction(1)
                if q:
                    rows[p][q] = rows[p].get(q, 0) - 1
    rhs = {v: Fraction(z[v]) for v in rows}
    done = []
    while rows:
        p = min(rows, key=lambda v: (len(rows[v]), v))
        prow = rows.pop(p)
        for r in prow:
            if r == p:
                continue
            row = rows[r]
            f = row.pop(p) / prow[p]
            for c, y in prow.items():
                if c != p:
                    row[c] = row.get(c, 0) - f * y
                    if not row[c]:
                        del row[c]
            rhs[r] -= f * rhs[p]
        done.append((p, prow))
    x = [Fraction(0)] * n
    for p, prow in reversed(done):
        x[p] = (rhs[p] - sum(c * x[q] for q, c in prow.items() if q != p)) / prow[p]
    return x


def rational_equivalent(g: WeightedMultigraph, d1: Divisor, d2: Divisor) -> bool:
    """d1 ~ d2 iff they have equal degree and the firing vector
    :func:`rational_firing` finds for d2 - d1 is integral."""
    if d1.degree != d2.degree:
        return False
    z = [b - a for a, b in zip(d1.values, d2.values)]
    return all(x.denominator == 1 for x in rational_firing(g, z))

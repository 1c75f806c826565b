"""Dhar burning, reduced divisors, and the effectivization loop.

The burning iteration grows a seed set by absorbing, each round, every
outside vertex whose edge count into the current set exceeds its chips;
a divisor is reduced with respect to the seed exactly when everything
burns.  Reduction to a single base vertex has a unique fixed point per
class, which the rest of the package uses as a canonical form.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable

from .divisors import Divisor, _firing_vector
from .errors import DomainError
from .graph import WeightedMultigraph, _bfs_order

# Per-graph memo of BFS orders and reduced forms.  Keyed weakly so caches
# die with their graphs; value-equal graphs may share entries, which is
# sound because reduction depends only on graph content.
_CACHES: "weakref.WeakKeyDictionary[WeightedMultigraph, dict]" = weakref.WeakKeyDictionary()


def _graph_cache(g: WeightedMultigraph) -> dict:
    cache = _CACHES.get(g)
    if cache is None:
        cache = {"bfs": {}, "reduced": {}}
        _CACHES[g] = cache
    return cache


@dataclass(frozen=True)
class DharResult:
    """Outcome of the burning iteration from a seed set.

    ``chain`` is the strictly increasing sequence of burnt sets, starting
    at the seed and ending at the fixed set; ``dhar_set`` is the unburnt
    complement.
    """

    fixed_set: frozenset[str]
    dhar_set: frozenset[str]
    chain: tuple[frozenset[str], ...]


def _burn(
    g: WeightedMultigraph, vals, seed: Iterable[int], want_chain: bool = False
):
    """Run the burning iteration; returns (burnt mask, inflow, chain or None).

    ``inflow[v]`` ends as the edge count from v into the final burnt set,
    which callers reuse as the cut degree of the unburnt side.
    """
    n = g._n
    burnt = [False] * n
    inflow = [0] * n
    rows = g._rows
    frontier = []
    for s in seed:
        if not burnt[s]:
            burnt[s] = True
            frontier.append(s)
    chain = [frozenset(frontier)] if want_chain else None
    current = list(frontier)
    for v in current:
        for w, m in rows[v]:
            inflow[w] += m
    burnt_set = set(current)
    while True:
        newly = [
            v for v in range(n) if not burnt[v] and inflow[v] > vals[v]
        ]
        if not newly:
            break
        for v in newly:
            burnt[v] = True
            for w, m in rows[v]:
                inflow[w] += m
        if want_chain:
            burnt_set.update(newly)
            chain.append(frozenset(burnt_set))
    return burnt, inflow, chain


def dhar(g: WeightedMultigraph, d: Divisor, seed: Iterable[str]) -> DharResult:
    """Burning decomposition of the graph with respect to a seed set.

    Every round absorbs all qualifying vertices at once, so the chain is
    canonical and no tie-breaking is involved.  Requires d effective away
    from the seed.
    """
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    seed_idx = sorted({g.vertex_index(v) for v in seed})
    if not seed_idx:
        raise DomainError("seed set must be nonempty")
    seed_mask = [False] * g._n
    for i in seed_idx:
        seed_mask[i] = True
    vals = d.values
    for i, x in enumerate(vals):
        if not seed_mask[i] and x < 0:
            raise DomainError(
                f"divisor is negative at {g.vertices[i]!r}, outside the seed"
            )
    burnt, _, chain = _burn(g, vals, seed_idx, want_chain=True)
    names = g.vertices
    fixed = frozenset(names[i] for i in range(g._n) if burnt[i])
    unburnt = frozenset(names[i] for i in range(g._n) if not burnt[i])
    chain_named = tuple(
        frozenset(names[i] for i in part) for part in chain
    )
    return DharResult(fixed_set=fixed, dhar_set=unburnt, chain=chain_named)


def is_reduced(g: WeightedMultigraph, d: Divisor, zone: Iterable[str]) -> bool:
    """True iff d is effective off the set and the burning from it consumes
    the whole graph (every outside subset has a vertex with fewer chips than
    its outward edge count)."""
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    seed_idx = {g.vertex_index(v) for v in zone}
    if not seed_idx:
        raise DomainError("seed set must be nonempty")
    vals = d.values
    if any(vals[i] < 0 for i in range(g._n) if i not in seed_idx):
        return False
    burnt, _, _ = _burn(g, vals, seed_idx)
    return all(burnt)


def _make_effective_off(g, vals: list[int], order, keep: int) -> None:
    """Clear negatives outside the first ``keep`` positions of the order.

    Sweeping from the far end, fire the prefix before each negative vertex
    just enough times; prefix firing only pushes chips outward, so already
    cleared positions stay nonnegative.
    """
    n = g._n
    in_prefix = [True] * n
    mult = g._mult
    for i in range(n - 1, keep - 1, -1):
        vi = order[i]
        in_prefix[vi] = False
        if vals[vi] >= 0:
            continue
        cross = sum(mult[vi][order[p]] for p in range(i))
        # BFS order guarantees a neighbor among earlier vertices
        k = (-vals[vi] + cross - 1) // cross
        t = _firing_vector(g, in_prefix)
        for v in range(n):
            vals[v] += k * t[v]


def _round_guard(g, vals) -> int:
    # legitimate firing-round counts stay under chips times graph distance;
    # the guard is a generous multiple, tripping only on implementation bugs
    return 1000 + 4 * g._n * (1 + sum(abs(x) for x in vals))


def _superstabilize(g, vals: list[int], seed: list[int]) -> None:
    """Fire the unburnt set (maximal safe multiplicity) until all burns.

    Each round is a multiple of the legal single firing, so the fixed point
    is the same reduced divisor; the guard only trips on implementation bugs.
    """
    guard = _round_guard(g, vals)
    rounds = 0
    while True:
        burnt, inflow, _ = _burn(g, vals, seed)
        unburnt = [v for v in range(g._n) if not burnt[v]]
        if not unburnt:
            return
        multiples = [vals[w] // inflow[w] for w in unburnt if inflow[w] > 0]
        if not multiples:
            raise AssertionError("unburnt set with empty cut on a connected graph")
        k = min(multiples)
        assert k >= 1
        member = [not b for b in burnt]
        t = _firing_vector(g, member)
        for v in range(g._n):
            vals[v] += k * t[v]
        rounds += 1
        if rounds > guard:
            raise AssertionError("reduction failed to stabilize within the guard")


def _reduce_tuple(g: WeightedMultigraph, vals: tuple[int, ...], u: int) -> tuple[int, ...]:
    cache = _graph_cache(g)["reduced"]
    key = (vals, u)
    hit = cache.get(key)
    if hit is not None:
        return hit
    orders = _graph_cache(g)["bfs"]
    order = orders.get(u)
    if order is None:
        order = orders[u] = _bfs_order(g, [u])
    work = list(vals)
    _make_effective_off(g, work, order, 1)
    _superstabilize(g, work, [u])
    out = tuple(work)
    cache[key] = out
    cache[(out, u)] = out  # reduced forms are fixed points
    return out


def reduce_to(g: WeightedMultigraph, d: Divisor, u: str) -> Divisor:
    """The unique reduced divisor at u equivalent to d.

    Idempotent, class-invariant, and effective away from u.  Two-phase
    algorithm: prefix firings along a BFS order clear negatives off u, then
    repeated burning-and-firing of the unburnt side reaches the fixed point.
    """
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    ui = g.vertex_index(u)
    return Divisor(g, _reduce_tuple(g, d.values, ui))


def reduce_to_set(g: WeightedMultigraph, d: Divisor, zone: Iterable[str]) -> Divisor:
    """A reduced divisor with respect to a vertex set, equivalent to d.

    With a singleton set this agrees with :func:`reduce_to`; for larger
    sets the output is one valid reduced form (effective off the set and
    burning-stable), not a canonical one.
    """
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    # canonical (name) order of the seeds keeps the output deterministic
    seeds = sorted({g.vertex_index(v) for v in zone}, key=g._vertices.__getitem__)
    if not seeds:
        raise DomainError("seed set must be nonempty")
    if len(seeds) == g._n:
        return d
    order = _bfs_order(g, seeds)
    work = list(d.values)
    _make_effective_off(g, work, order, len(seeds))
    _superstabilize(g, work, seeds)
    return Divisor(g, work)


def effectivize(g: WeightedMultigraph, d: Divisor) -> Divisor | None:
    """An effective divisor equivalent to d, or None if the class has none.

    Non-effectivity is decided up front by the reduced-form guard (a class
    is effective iff its reduced form at the base vertex is effective), so
    the firing loop below only ever runs on effective classes.  The loop:
    seed the burning at the negative support, fire the burnt side once,
    repeat.
    """
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    if d.is_effective:
        return d
    u = g.vertex_index(g.base_vertex())
    reduced = _reduce_tuple(g, d.values, u)
    if reduced[u] < 0:
        return None
    work = list(d.values)
    guard = _round_guard(g, work)
    rounds = 0
    while any(x < 0 for x in work):
        seed = [i for i, x in enumerate(work) if x < 0]
        burnt, _, _ = _burn(g, work, seed)
        if all(burnt):
            raise AssertionError("empty unburnt set on an effective class")
        member = [not b for b in burnt]
        t = _firing_vector(g, member)
        for v in range(g._n):
            work[v] += t[v]
        rounds += 1
        if rounds > guard:
            raise AssertionError("effectivization failed to terminate within the guard")
    return Divisor(g, work)

"""Dhar burning, reduced divisors, and effectivization.

The burning iteration grows a seed set by absorbing, each round, every
outside vertex whose edge count into the current set exceeds its chips;
a divisor is reduced with respect to the seed exactly when everything
burns, that is when the burn hands back an empty cut.  One two-phase
routine reduces from scratch, to a vertex or a set: prefix firings clear
the negatives off the seed, then each round burns and fires the unburnt
set along the cut that the burn found, at the cost of the burnt side's
rows plus the cut's rows a round.  The number of rounds is still
pseudo-polynomial in the chips.  Known slow inputs, counted in burns:
on vertices v0-v5 with edges v0v1, v1v2, v2v3, v3v4, v4v5, v5v2, v5v4,
the effective (198768, 957418, 428490, 838204, 80733, 679200) takes
1,499 at v5, and ten times those chips 317,519; a 22-vertex theta graph
with chips in [-2, 2] takes about 6,300 a reduction after phase 1; a
30-cycle with one chord and chips in [-2, 1] takes seconds at the chord's
vertex.  Reduction to a single base vertex u has a unique fixed point
per class, which the rest of the package uses as a canonical form.  Every
reduction here runs from scratch and stores nothing: the one memo of
reduced forms belongs to the rank scan (see :mod:`.rank`), which also
steps a reduced form from a cached one a few chips richer at one vertex,
by borrowing (:func:`_borrow`) instead of reducing from scratch.
Effectivization runs no firing of its own: a divisor that is not
effective is answered by its reduced form at the base vertex, which is
effective exactly when the class has an effective member.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .divisors import Divisor, _fire
from .errors import DomainError, InternalError
from .graph import WeightedMultigraph, _bfs_order, _same_graph, _vertex_set

__all__ = ["DharResult", "dhar", "effectivize", "is_reduced", "reduce_to", "reduce_to_set"]


class DharResult(NamedTuple):
    """Outcome of the burning iteration from a seed set.

    ``chain`` is the strictly increasing sequence of burnt sets, starting
    at the seed and ending at the fixed set; ``dhar_set`` is the unburnt
    complement.
    """

    fixed_set: frozenset[str]
    dhar_set: frozenset[str]
    chain: tuple[frozenset[str], ...]


def _burn(g: WeightedMultigraph, vals, seed: Iterable[int]):
    """Run the burning iteration; returns (rounds, cut).

    ``rounds[v]`` is the round in which v caught fire: 1 for the seed, 0
    when v never burns, so it serves as the burnt mask.
    ``cut`` lists each unburnt vertex with edges into the final burnt set
    as ``(w, edge count)``, in the order the burn first reached it; it is
    empty exactly when everything burns, the graph being connected.
    Requires vals nonnegative off the seed, so only a vertex whose inflow
    just grew can catch fire: each round burns the vertices pushed past
    their chips by the previous round's frontier.  Edges into burnt
    vertices are skipped and the inflow is kept only for vertices that stay
    unburnt, so a burn walks the burnt side's rows and nothing else, beyond
    allocating two lists of n entries.  Phase
    2 of a reduction runs one burn a round, and its number of rounds is
    still pseudo-polynomial in the chips (slow inputs in the module
    docstring).
    """
    rounds = [0] * g._n
    inflow = [0] * g._n
    rows = g._rows
    frontier = []
    for s in seed:
        if not rounds[s]:
            rounds[s] = 1
            frontier.append(s)
    reached = []
    r = 1
    while frontier:
        r += 1
        newly = []
        for v in frontier:
            for w, m in rows[v]:
                if rounds[w]:
                    continue
                x = inflow[w] + m
                if x > vals[w]:
                    rounds[w] = r
                    newly.append(w)
                else:
                    if x == m:  # the first edge from the burnt side to reach w
                        reached.append(w)
                    inflow[w] = x
        frontier = newly
    return rounds, [(w, inflow[w]) for w in reached if not rounds[w]]


def _seeds(g: WeightedMultigraph, d: Divisor, zone: Iterable[str]) -> list[int]:
    """Indices of the distinct seed vertices in name order, which keeps
    every seeded computation deterministic; d must live on g."""
    _same_graph(g, d)
    seeds = sorted(_vertex_set(g, zone), key=g._vertices.__getitem__)
    if not seeds:
        raise DomainError("seed set must be nonempty")
    return seeds


def dhar(g: WeightedMultigraph, d: Divisor, seed: Iterable[str]) -> DharResult:
    """Burning decomposition of the graph with respect to a seed set.

    Every round absorbs all qualifying vertices at once, so the chain is
    canonical and no tie-breaking is involved.  All three fields are read
    off the burn's rounds: ``chain[r - 1]`` holds the vertices that caught
    fire in rounds 1 to r.  Requires d effective away from the seed.
    """
    seeds = _seeds(g, d, seed)
    vals = d.values
    seeded = set(seeds)
    for i, x in enumerate(vals):
        if x < 0 and i not in seeded:
            raise DomainError(
                f"divisor is negative at {g.vertices[i]!r}, outside the seed"
            )
    rounds, _ = _burn(g, vals, seeds)
    named = list(zip(g.vertices, rounds))
    chain = tuple(
        frozenset(v for v, x in named if 0 < x <= r) for r in range(1, max(rounds) + 1)
    )
    unburnt = frozenset(v for v, x in named if not x)
    return DharResult(fixed_set=chain[-1], dhar_set=unburnt, chain=chain)


def is_reduced(g: WeightedMultigraph, d: Divisor, zone: Iterable[str]) -> bool:
    """True iff d is effective off the set and the burning from it consumes
    the whole graph (every outside subset has a vertex with fewer chips than
    its outward edge count)."""
    seeds = _seeds(g, d, zone)
    vals = d.values
    seeded = set(seeds)
    if any(x < 0 and i not in seeded for i, x in enumerate(vals)):
        return False
    return not _burn(g, vals, seeds)[1]


def _make_effective_off(g, vals: list[int], order, keep: int) -> None:
    """Clear negatives outside the first ``keep`` positions of the order.

    Sweeping from the far end, fire the prefix before each negative vertex
    just enough times; prefix firing only pushes chips outward, so already
    cleared positions stay nonnegative.
    """
    in_prefix = [True] * g._n
    rows = g._rows
    for i in range(g._n - 1, keep - 1, -1):
        vi = order[i]
        in_prefix[vi] = False
        if vals[vi] >= 0:
            continue
        cross = sum(m for w, m in rows[vi] if in_prefix[w])
        # BFS order guarantees a neighbor among earlier vertices
        k = (-vals[vi] + cross - 1) // cross
        _fire(g, vals, in_prefix, k)


def _round_guard(g, vals) -> int:
    # legitimate firing-round counts stay under chips times graph distance;
    # the guard is a generous multiple, tripping only on implementation bugs
    return 1000 + 4 * g._n * (1 + sum(map(abs, vals)))


def _superstabilize(g, vals: list[int], seed: list[int]) -> None:
    """Fire the unburnt set (maximal safe multiplicity) until all burns.

    Each round is a multiple of the legal single firing, so the fixed point
    is the same reduced divisor; the guard only trips on implementation bugs.
    A round fires from the burn it just ran: firing the unburnt set moves
    chips only along the cut that the burn hands back, so each cut vertex w
    loses k times its edge count and every burnt neighbour gains k per edge
    to it, while the interior's rows are never walked.  A round costs the
    burnt side's rows plus the cut's rows and has no loop over all n
    vertices.  The number of rounds is still pseudo-polynomial in the
    chips (slow inputs in the module docstring).  An empty cut ends the
    reduction, and only then is the connectivity invariant checked.
    """
    guard = _round_guard(g, vals)
    rows = g._rows
    rounds = 0
    while True:
        burnt, cut = _burn(g, vals, seed)
        if not cut:
            if not all(burnt):
                raise InternalError("unburnt set with empty cut on a connected graph")
            return
        k = min(vals[w] // c for w, c in cut)
        if k < 1:
            raise InternalError(f"unburnt set fires {k} times")
        for w, c in cut:
            vals[w] -= k * c
            for v, m in rows[w]:
                if burnt[v]:
                    vals[v] += k * m
        rounds += 1
        if rounds > guard:
            raise InternalError("reduction failed to stabilize within the guard")


def _reduce_off(g: WeightedMultigraph, vals, seeds: list[int]) -> list[int]:
    """A copy of vals reduced with respect to distinct seeds, from scratch:
    prefix firings along a BFS order from the seeds clear the negatives off
    them, then the unburnt side fires until everything burns."""
    work = list(vals)
    _make_effective_off(g, work, _bfs_order(g, seeds), len(seeds))
    _superstabilize(g, work, seeds)
    return work


def _borrow(g: WeightedMultigraph, vals: list[int], u: int, p: int) -> None:
    """Clear negatives off u, in place, when p is the only one.

    A negative vertex v borrows: everything else fires ceil(-vals[v] /
    deg(v)) times, with deg(v) its loopless degree, which leaves v
    nonnegative and takes chips from its neighbours; a neighbour other than
    u that goes negative borrows in turn.  No vertex borrows more often
    than in any borrowing that clears the negatives, so with u a sink of
    unbounded supply this terminates in the least such borrowing.  Most
    borrowings settle within n steps, so the guard, which sums every |chip|,
    is only computed past them.
    """
    rows, degree = g._rows, g._loopless_degree
    guard = None
    steps = 0
    stack = [p]
    while stack:
        v = stack.pop()
        deg = degree[v]
        k = (-vals[v] + deg - 1) // deg
        vals[v] += k * deg
        for w, m in rows[v]:
            before = vals[w]
            vals[w] = before - k * m
            if w != u and vals[w] < 0 <= before:
                stack.append(w)
        steps += 1
        if steps > g._n:
            if guard is None:
                guard = _round_guard(g, vals)
            if steps > guard:
                raise InternalError("borrowing failed to settle within the guard")


def reduce_to(g: WeightedMultigraph, d: Divisor, u: str) -> Divisor:
    """The unique reduced divisor at u equivalent to d.

    Idempotent, class-invariant, and effective away from u: the two-phase
    routine of :func:`reduce_to_set` at the set {u}.  Prefix firings along
    a BFS order clear negatives off u, then repeated burning-and-firing of
    the unburnt side reaches the fixed point.
    """
    return reduce_to_set(g, d, [u])


def reduce_to_set(g: WeightedMultigraph, d: Divisor, zone: Iterable[str]) -> Divisor:
    """The reduced divisor with respect to a vertex set A that d reaches by
    firings moving A as one block.

    The two-phase routine, seeded at A in name order.  Every prefix firing
    of phase 1 fires all of A, and every firing of phase 2 fires part of
    the unburnt side, so none of A: each firing holds all of A or none of
    it.  Such firings are the firings of G/A, the graph with A merged into
    one vertex a, and the burn from A on G is the burn from a on G/A.  So
    the output, read on G/A, is the reduced form at a of d's image, unique
    in its class; and the firing script that reaches it is unique up to a
    constant, which fixes the chips inside A too.  The output is thus the
    reduced form at a lifted back to G: canonical for the class of d under
    block firings, whatever routine computes it.  A singleton set gives
    :func:`reduce_to`.
    """
    return Divisor(g, _reduce_off(g, d.values, _seeds(g, d, zone)))


def effectivize(g: WeightedMultigraph, d: Divisor) -> Divisor | None:
    """An effective divisor equivalent to d, or None if the class has none.

    d itself when it is effective.  Otherwise the reduced form at the base
    vertex, :func:`reduce_to` there: a class is effective iff that form is
    (it is effective off the base, and any effective member reduces to it
    without losing chips at the base), so the form is the answer when it
    is effective and shows the class has none when it is not.
    """
    _same_graph(g, d)
    if d.is_effective:
        return d
    reduced = reduce_to(g, d, g.base_vertex())
    return reduced if reduced.is_effective else None

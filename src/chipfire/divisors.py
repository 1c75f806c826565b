"""Divisors on a multigraph: arithmetic, principal divisors, linear equivalence.

A divisor is an integer chip count on each vertex.  Linear equivalence is
generated by set-firing moves; deciding it reduces to comparing canonical
(base-vertex reduced) forms, which is exact over the integers.  Python ints
are arbitrary precision, so chip counts never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import index
from typing import Iterable, Mapping, Sequence

from .enumeration import DEFAULT_BUDGET, check_budget, compositions, count_compositions
from .errors import DomainError
from .graph import WeightedMultigraph


def _chip_counts(xs: Iterable) -> tuple[int, ...]:
    """The values as a tuple of ints; floats, strings and the like are rejected."""
    try:
        return tuple(map(index, xs))
    except TypeError as exc:
        raise DomainError(f"chip counts must be integers: {exc}") from None


class Divisor:
    """Integer-valued function on the vertices of a fixed multigraph."""

    __slots__ = ("graph", "_values", "_hash")

    def __init__(
        self,
        graph: WeightedMultigraph,
        values: Mapping[str, int] | Sequence[int] | None = None,
    ):
        self.graph = graph
        n = graph._n
        if values is None:
            vals = (0,) * n
        elif isinstance(values, Mapping):
            for v in values:
                graph.vertex_index(v)  # raises on unknown vertex
            vals = _chip_counts(values.get(v, 0) for v in graph.vertices)
        else:
            vals = _chip_counts(values)
            if len(vals) != n:
                raise DomainError(
                    f"expected {n} values in declaration order, got {len(vals)}"
                )
        self._values = vals
        self._hash = hash((graph, vals))

    @classmethod
    def zero(cls, graph: WeightedMultigraph) -> "Divisor":
        return cls(graph)

    @property
    def values(self) -> tuple[int, ...]:
        """Chip counts in vertex declaration order."""
        return self._values

    @property
    def degree(self) -> int:
        return sum(self._values)

    @property
    def is_effective(self) -> bool:
        return all(x >= 0 for x in self._values)

    def value(self, v: str) -> int:
        return self._values[self.graph.vertex_index(v)]

    __getitem__ = value

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.graph.vertices, self._values))

    def sort_key(self) -> tuple[int, ...]:
        """Values listed in canonical vertex order; the package-wide lex key."""
        return tuple(self._values[i] for i in self.graph._lex_indices)

    def support(self) -> tuple[str, ...]:
        return tuple(v for v, x in zip(self.graph.vertices, self._values) if x != 0)

    def _check_same_graph(self, other: "Divisor") -> None:
        if self.graph != other.graph:
            raise DomainError("divisors live on different graphs")

    def __add__(self, other: "Divisor") -> "Divisor":
        self._check_same_graph(other)
        return Divisor(self.graph, [a + b for a, b in zip(self._values, other._values)])

    def __sub__(self, other: "Divisor") -> "Divisor":
        self._check_same_graph(other)
        return Divisor(self.graph, [a - b for a, b in zip(self._values, other._values)])

    def __neg__(self) -> "Divisor":
        return Divisor(self.graph, [-a for a in self._values])

    def __mul__(self, k: int) -> "Divisor":
        return Divisor(self.graph, [k * a for a in self._values])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.graph == other.graph and self._values == other._values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={x}" for v, x in zip(self.graph.vertices, self._values))
        return f"Divisor({inner})"


@dataclass(frozen=True)
class DivisorClass:
    """A linear-equivalence class, held by its reduced form at a base vertex.

    Two classes are equal iff their canonical forms agree vertex-wise, which
    is sound because the base-vertex reduced representative is unique.
    """

    graph: WeightedMultigraph
    base_vertex: str
    canonical: Divisor

    @property
    def degree(self) -> int:
        return self.canonical.degree


def canonical_divisor(g: WeightedMultigraph) -> Divisor:
    """The divisor with value 2*weight(v) - 2 + valence(v); degree 2*genus - 2."""
    vals = [2 * w - 2 + val for w, val in zip(g._weights, g._valence)]
    return Divisor(g, vals)


def t_set(g: WeightedMultigraph, zone: Iterable[str]) -> Divisor:
    """Principal divisor of simultaneously firing every vertex in the set.

    Vertices outside gain one chip per edge into the set; vertices inside
    lose one per edge out.  Loops move nothing, and the total is always 0.
    """
    member = [False] * g._n
    for v in zone:
        member[g.vertex_index(v)] = True
    vals = [0] * g._n
    _fire(g, vals, member)
    return Divisor(g, vals)


def _fire(g: WeightedMultigraph, vals: list[int], member: list[bool], k: int = 1) -> None:
    """Fire the member set k times in place.

    Only cut edges move chips: each edge from a member to a non-member
    carries k chips out of the set.  Cost is O(n + volume of the set).
    """
    rows = g._rows
    for v in compress(range(g._n), member):
        out = 0
        for w, m in rows[v]:
            if not member[w]:
                out += m
                vals[w] += k * m
        vals[v] -= k * out


def intersection(g: WeightedMultigraph, d1: Divisor, d2: Divisor) -> int:
    """Bilinear pairing: distinct vertices pair to their edge count, and
    v.v = -(non-loop valence of v)."""
    if d1.graph != g or d2.graph != g:
        raise DomainError("divisors live on different graphs")
    a, b = d1._values, d2._values
    return -sum(m * (a[i] - a[j]) * (b[i] - b[j]) for i, j, m in g._pairs)


def residual(g: WeightedMultigraph, d: Divisor) -> Divisor:
    """Canonical divisor minus d; applying it twice gives back d."""
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    return canonical_divisor(g) - d


def equivalent(g: WeightedMultigraph, d1: Divisor, d2: Divisor) -> bool:
    """True iff d1 - d2 is a sum of set-firing moves.

    Decided by reducing the difference at the canonical base vertex: the
    reduced form of a principal divisor is the zero divisor, and reduced
    forms are unique in each class.
    """
    from .reduction import reduce_to

    if d1.graph != g or d2.graph != g:
        raise DomainError("divisors live on different graphs")
    if d1.degree != d2.degree:
        return False
    diff = d1 - d2
    return reduce_to(g, diff, g.base_vertex()).values == (0,) * g._n


def class_of(g: WeightedMultigraph, d: Divisor, u: str) -> DivisorClass:
    """The class of d, canonicalized by its unique u-reduced representative."""
    from .reduction import reduce_to

    return DivisorClass(graph=g, base_vertex=u, canonical=reduce_to(g, d, u))


def effective_representatives(
    g: WeightedMultigraph, c: DivisorClass, *, budget: int = DEFAULT_BUDGET
) -> list[Divisor]:
    """All effective divisors in the class, sorted lexicographically.

    Enumerates every composition of the degree into |V| nonnegative parts
    and keeps the ones whose reduced form matches the class; the list is
    complete because any effective divisor of that degree is a composition.
    Raises BudgetExceededError (reporting the candidate count) when the
    composition count is out of budget.
    """
    from .reduction import reduce_to

    deg = c.degree
    if deg < 0:
        return []
    n = g._n
    check_budget(count_compositions(deg, n), budget)
    lex = g._lex_indices
    target = c.canonical.values
    u = c.base_vertex
    hits = []
    vals = [0] * n
    for combo in compositions(deg, n):
        for pos, x in zip(lex, combo):
            vals[pos] = x
        cand = Divisor(g, vals)
        if reduce_to(g, cand, u).values == target:
            hits.append(cand)
    return hits


def e_deg(g: WeightedMultigraph, e: Divisor) -> Divisor:
    """Weight-aware inflation of an effective divisor.

    Each value e(v) grows by min(e(v), weight(v) + loops(v)); on a
    weightless, loopless graph the divisor is returned unchanged.
    """
    if e.graph != g:
        raise DomainError("divisor lives on a different graph")
    if not e.is_effective:
        raise DomainError("divisor must be effective")
    vals = [
        x + min(x, w + l)
        for x, w, l in zip(e._values, g._weights, g._loops)
    ]
    return Divisor(g, vals)

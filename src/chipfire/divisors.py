"""Divisors on a multigraph: arithmetic, principal divisors, linear equivalence.

A divisor is an integer chip count on each vertex.  Linear equivalence is
generated by set-firing moves.  It is decided without reducing anything:
a degree-0 divisor is principal exactly when the reduced Laplacian sends
some integer firing vector to it, which one exact integer solve settles
(:func:`_principal`, the first step of Baker and Shokrieh's reduction).
Canonical (base-vertex reduced) forms name the classes.  Python ints are
arbitrary precision, so chip counts never overflow.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress
from math import gcd
from operator import index
from typing import Iterable, NamedTuple, Sequence

from .enumeration import DEFAULT_BUDGET, box_vectors, check_budget, count_box_vectors
from .errors import DomainError
from .graph import WeightedMultigraph, _bfs_order, _same_graph, _vertex_set

__all__ = [
    "Divisor", "DivisorClass", "canonical_divisor", "class_of", "e_deg",
    "effective_representatives", "equivalent", "intersection", "residual", "t_set",
]


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

    def __add__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        _same_graph(self.graph, other)
        return Divisor(self.graph, [a + b for a, b in zip(self._values, other._values)])

    def __sub__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        _same_graph(self.graph, other)
        return Divisor(self.graph, [a - b for a, b in zip(self._values, other._values)])

    def __neg__(self) -> "Divisor":
        return Divisor(self.graph, [-a for a in self._values])

    def __mul__(self, k: int) -> "Divisor":
        try:
            k = index(k)
        except TypeError:
            return NotImplemented
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


class DivisorClass(NamedTuple):
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


def _require_clifford_degree(g: WeightedMultigraph, deg: int, noun: str) -> None:
    """Refuse a degree outside [0, 2*genus - 2], the canonical divisor's
    range, where Clifford's bound and representatives live; the error
    names the degree by ``noun``."""
    top = 2 * g.genus - 2
    if deg < 0:
        raise DomainError(f"{noun} {deg} is below the lower bound 0")
    if deg > top:
        raise DomainError(f"{noun} {deg} exceeds the upper bound 2*genus-2 = {top}")


def t_set(g: WeightedMultigraph, zone: Iterable[str]) -> Divisor:
    """Principal divisor of simultaneously firing every vertex in the set.

    Vertices outside gain one chip per edge into the set; vertices inside
    lose one per edge out.  Loops move nothing, and the total is always 0.
    """
    member = [False] * g._n
    for i in _vertex_set(g, zone):
        member[i] = True
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
    _same_graph(g, d1, d2)
    a, b = d1._values, d2._values
    return -sum(m * (a[i] - a[j]) * (b[i] - b[j]) for i, j, m in g._pairs)


def residual(g: WeightedMultigraph, d: Divisor) -> Divisor:
    """Canonical divisor minus d; applying it twice gives back d."""
    _same_graph(g, d)
    return canonical_divisor(g) - d


def equivalent(g: WeightedMultigraph, d1: Divisor, d2: Divisor) -> bool:
    """True iff d1 - d2 is a sum of set-firing moves.

    Divisors of different degrees never are.  Otherwise d1 - d2 has degree
    0 and is decided by :func:`_principal`: it is principal iff the unique
    rational firing vector that leaves the base vertex unfired is integral.
    That vector solves the reduced Laplacian, which is positive definite,
    so its elimination meets no zero pivot, and back-substitution checks
    each firing count for exact divisibility.  Nothing is reduced, so the
    cost is polynomial in the graph and the bit size of the chips.
    """
    _same_graph(g, d1, d2)
    if d1.degree != d2.degree:
        return False
    return _principal(g, [a - b for a, b in zip(d1._values, d2._values)])


def _principal(g: WeightedMultigraph, z) -> bool:
    """True iff the degree-0 integer vector z (declaration order) is
    principal, by one exact integer solve of the reduced Laplacian.

    Firing vector x sends the chips to L x, with L the Laplacian (loops
    move nothing).  Adding a constant to x changes nothing, so z is
    principal iff L x = z for an integer x with x_u = 0 at the base vertex
    u.  Row u is then implied by the others, since z and every column of L
    sum to 0, so the system is L' x' = z' with u's row and column dropped.
    L' is the reduced Laplacian of a connected graph, positive definite,
    hence invertible: z is principal iff its unique rational solution is
    integral.

    Elimination runs from the far end of the BFS order from u toward u,
    which keeps cycles, ladders and theta graphs banded.  Each row is kept
    integral: a row that meets the pivot column is cross-multiplied with
    the pivot row and divided by the gcd of its entries and right-hand
    side.  So every row is the primitive positive multiple of a row of
    the current Schur complement, which the determinant of the eliminated
    block makes integral (Cramer's rule): its bit size stays polynomial.
    The Schur complements of a positive definite matrix are positive
    definite, so no pivot is ever zero.  Nor does any stored entry become
    zero: eliminating p from row r adds -bk * prow[w] with bk < 0, and off
    the diagonal prow[w] < 0 and row[w] <= 0, so fill-in only adds negative
    mass there (each Schur complement is again an M-matrix), while the
    diagonal entry is a positive multiple of a positive definite Schur
    complement's diagonal.  A zero entry would do no harm anyway: it
    eliminates as a no-op.  Back-substitution from u's side
    then finds each firing count from integral later ones: it is integral
    iff the pivot divides what is left of its right-hand side exactly, and
    the first remainder answers False.
    """
    order = _bfs_order(g, [g._lex_indices[0]])
    u = order[0]
    degree = g._loopless_degree
    eqs = {}
    for v in order[1:]:
        row = {w: -m for w, m in g._rows[v] if w != u}
        row[v] = degree[v]
        eqs[v] = row
    rhs = list(z)
    pivots = []
    for p in reversed(order[1:]):
        prow = eqs.pop(p)
        a, c = prow.pop(p), rhs[p]
        for r in prow:
            row = eqs[r]
            b = row.pop(p)
            k = gcd(a, b)
            ak, bk = a // k, b // k
            if ak != 1:
                for w in row:
                    row[w] *= ak
            for w, e in prow.items():
                row[w] = row.get(w, 0) - bk * e
            t = rhs[r] * ak - bk * c
            k = gcd(t, *row.values())
            if k > 1:
                for w in row:
                    row[w] //= k
                t //= k
            rhs[r] = t
        pivots.append((p, a, c, prow))
    x = [0] * g._n
    for p, a, c, prow in reversed(pivots):
        q, rem = divmod(c - sum(coef * x[w] for w, coef in prow.items()), a)
        if rem:
            return False
        x[p] = q
    return True


def class_of(g: WeightedMultigraph, d: Divisor, u: str) -> DivisorClass:
    """The class of d, canonicalized by its unique u-reduced representative."""
    from .reduction import reduce_to

    return DivisorClass(graph=g, base_vertex=u, canonical=reduce_to(g, d, u))


def _placed(lex, combo, n) -> tuple[int, ...]:
    """A vector listed in canonical vertex order, put back in declaration order."""
    vals = [0] * n
    for pos, x in zip(lex, combo):
        vals[pos] = x
    return tuple(vals)


def _members(g: WeightedMultigraph, c: DivisorClass, lows, highs, budget: int, stage: str):
    """The vectors of the class in the box [lows, highs], both listed in
    canonical vertex order, as an iterator in lex order.

    The box is walked at the class degree (:func:`.enumeration.box_vectors`);
    its count there is checked against the budget, under ``stage``, when
    this is called, before any vector is walked.  v lies in the class iff
    v - c.canonical is principal, which :func:`_principal` decides by one
    exact solve per vector: the unique rational firing vector with the base
    vertex unfired must be integral.  The reduced Laplacian is positive
    definite, so its elimination meets no zero pivot, and back-substitution
    checks each division for exactness.
    """
    check_budget(count_box_vectors(lows, highs, c.degree), budget, stage)
    lex, n = g._lex_indices, g._n
    target = c.canonical.values
    box = (_placed(lex, combo, n) for combo in box_vectors(lows, highs, c.degree))
    return (
        Divisor(g, vals) for vals in box if _principal(g, [a - b for a, b in zip(vals, target)])
    )


def effective_representatives(
    g: WeightedMultigraph, c: DivisorClass, *, budget: int = DEFAULT_BUDGET
) -> list[Divisor]:
    """All effective divisors in the class, sorted lexicographically.

    Walks the box [0, degree] in every coordinate at the degree, that is
    every composition of the degree into |V| nonnegative parts, and keeps
    the ones in the class, each decided by one exact solve
    (:func:`_members`); the list is complete because any effective divisor
    of that degree is such a composition.  Raises BudgetExceededError
    (reporting the candidate count) when the composition count is out of
    budget.
    """
    _same_graph(g, c)
    deg = c.degree
    if deg < 0:
        return []
    n = g._n
    return list(_members(g, c, [0] * n, [deg] * n, budget, "effective_representatives"))


def e_deg(g: WeightedMultigraph, e: Divisor) -> Divisor:
    """Weight-aware inflation of an effective divisor.

    Each value e(v) grows by min(e(v), weight(v) + loops(v)); on a
    weightless, loopless graph the divisor is returned unchanged.
    """
    _same_graph(g, e)
    if not e.is_effective:
        raise DomainError("divisor must be effective")
    return Divisor(g, [x + min(x, s) for x, s in zip(e._values, g._satellites)])

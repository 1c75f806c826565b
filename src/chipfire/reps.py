"""Distinguished representatives of divisor classes, with certificates.

Three kinds of representatives are constructed here: semibalanced divisors
(every vertex subset carries a share of the degree proportional to its
canonical weight, within half the cut size), uniform divisors (both the
divisor and its residual are effective), and certified Clifford
representatives, produced by a three-branch case split on whether the class
and its residual are effective.

Semibalance is decided by one maximum flow, in time polynomial in the graph
and the bit size of the chips; the representative searches walk a box of
candidates under the enumeration budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .divisors import (
    Divisor,
    DivisorClass,
    _members,
    _require_clifford_degree,
    canonical_divisor,
    residual,
)
from .enumeration import DEFAULT_BUDGET
from .errors import DomainError, InternalError
from .graph import WeightedMultigraph, _same_graph, _vertex_set, is_chain_of_2ec, is_semistable
from .reduction import is_reduced, reduce_to

__all__ = [
    "CliffordCertificate", "NotCovered", "balance_bounds", "clifford_representative",
    "is_semibalanced", "is_special_class", "is_uniform", "semibalanced_representative",
    "uniform_representative", "verify_certificate",
]

if TYPE_CHECKING:
    from fractions import Fraction

BRANCH_UNIFORM = "Uniform"
BRANCH_V_REDUCED = "VReducedNonEffective"
BRANCH_RESIDUAL = "ResidualVReduced"


class CliffordCertificate(NamedTuple):
    """Machine-checkable evidence for which branch produced a representative.

    ``evidence`` is branch-specific: per-vertex bound checks for the
    Uniform branch, the base vertex and its negative value for the reduced
    branch, and the base vertex plus the residual's reduced form for the
    residual branch.  :func:`verify_certificate` re-checks a certificate
    without retracing the construction.
    """

    branch: str
    representative: Divisor
    evidence: dict


class NotCovered(NamedTuple):
    """Constructive outcome unavailable: the class is special but the graph
    misses a hypothesis of the uniform-representative construction."""

    special: bool
    chain_of_2ec: bool
    loop_hypothesis: bool


def _zone_sums(g: WeightedMultigraph, k_values, member) -> tuple[int, int]:
    """The canonical divisor summed over a vertex set (given by its membership
    mask) and the number of edges between the set and its complement."""
    k_zone = sum(x for x, inside in zip(k_values, member) if inside)
    cross = sum(m for i, j, m in g._pairs if member[i] != member[j])
    return k_zone, cross


def _window(top: int, deg: int, k_zone: int, cross: int) -> tuple[int, int]:
    """The integers within cross / 2 of deg * k_zone / top, as the bounds
    (lo, hi); top = 2 * genus - 2 must be positive."""
    center, half = 2 * deg * k_zone, cross * top
    return -((half - center) // (2 * top)), (center + half) // (2 * top)


def balance_bounds(
    g: WeightedMultigraph, d_total: int, zone: Iterable[str]
) -> tuple[Fraction, Fraction]:
    """Exact rational window [m, M] a semibalanced divisor must hit on the set.

    The center is the degree share proportional to the set's canonical
    weight; the half-width is half the edge cut to the complement.
    """
    # imported here: fractions loads decimal, which no other path needs
    from fractions import Fraction

    zone = _vertex_set(g, zone)
    if not zone or len(zone) >= g._n:
        raise DomainError("set must be a nonempty proper subset of the vertices")
    gen = g.genus
    if gen < 2:
        raise DomainError("balance bounds require genus >= 2")
    member = [False] * g._n
    for i in zone:
        member[i] = True
    k_zone, cross = _zone_sums(g, canonical_divisor(g).values, member)
    center = Fraction(d_total * k_zone, 2 * gen - 2)
    half = Fraction(cross, 2)
    return center - half, center + half


def _require_semistable(g: WeightedMultigraph) -> None:
    verdict = is_semistable(g)
    if not verdict.applicable:
        raise DomainError("semibalance requires genus >= 2")
    if not verdict.value:
        raise DomainError("semibalance requires a semistable graph")


def _nearest_deficit(residue, excess) -> list[int] | None:
    """A shortest residual path from a vertex with surplus to a vertex with
    deficit, listed from the deficit back to the surplus, or None."""
    parent = {v: None for v, x in enumerate(excess) if x > 0}
    queue = list(parent)
    for v in queue:  # queue grows while we walk it: a queue without pops
        for w, cap in residue[v].items():
            if cap and w not in parent:
                parent[w] = v
                if excess[w] < 0:
                    path = [w]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path
                queue.append(w)
    return None


def _balanced(g: WeightedMultigraph, k_values, vals) -> bool:
    """Whether every proper vertex subset S of a semistable graph holds a
    number of chips within its balance window; k_values is the canonical
    divisor's.  One maximum flow decides it.

    With top = 2g - 2 and w(v) = d(v) * top - deg * K(v), which sum to 0,
    the integer d(S) lies in the window of S iff |w(S)| <= (g - 1) * cut(S).
    The complement has the same cut and w(S^c) = -w(S), so every window
    holds iff w(S) <= (g - 1) * cut(S) for every S.  By Gale's
    supply-demand theorem (D. Gale, "A theorem on flows in networks",
    Pacific J. Math. 7, 1957) that holds iff a flow of at most (g - 1) * m
    in either direction on each non-loop pair of multiplicity m carries
    every surplus w(v) > 0 to the deficits w(v) < 0.  Each step augments
    along a shortest path from the surpluses to the nearest deficit, which
    is Edmonds-Karp on the network with a super-source and a super-sink
    (J. Edmonds and R. M. Karp, J. ACM 19, 1972): O(VE) augmentations of
    one breadth-first search each, however many chips there are.  When no
    path is left while some surplus is, the vertices the search reached
    form a set S that breaks its window.
    """
    gen = g.genus
    deg = sum(vals)
    excess = [x * (2 * gen - 2) - deg * k for x, k in zip(vals, k_values)]
    residue = [{w: (gen - 1) * m for w, m in row} for row in g._rows]
    while any(x > 0 for x in excess):
        path = _nearest_deficit(residue, excess)
        if path is None:
            return False
        sink, source = path[0], path[-1]
        hops = list(zip(path[1:], path))  # (v, w): the flow goes v -> w
        amount = min(excess[source], -excess[sink], *(residue[v][w] for v, w in hops))
        for v, w in hops:
            residue[v][w] -= amount
            residue[w][v] += amount
        excess[source] -= amount
        excess[sink] += amount
    return True


def is_semibalanced(g: WeightedMultigraph, d: Divisor) -> bool:
    """Whether d lies in the balance window of every proper vertex subset,
    decided in integer arithmetic by one maximum flow (see _balanced)."""
    _same_graph(g, d)
    _require_semistable(g)
    return _balanced(g, canonical_divisor(g).values, d.values)


def semibalanced_representative(
    g: WeightedMultigraph, c: DivisorClass, *, budget: int = DEFAULT_BUDGET
) -> Divisor:
    """Lexicographically smallest semibalanced divisor in the class.

    Every semibalanced divisor obeys the singleton balance windows, so the
    search runs over that box sliced at the class degree, in lex order, and
    the first class member that is fully semibalanced is the minimum.
    Existence is guaranteed on semistable graphs, so the box holds a class
    member; the budget counts the box, and each member is checked by
    one maximum flow.
    """
    _same_graph(g, c)
    _require_semistable(g)
    deg = c.degree
    top = 2 * g.genus - 2
    k_values = canonical_divisor(g).values
    # a singleton's cut is its loopless degree
    lows, highs = zip(*(
        _window(top, deg, k_values[v], g._loopless_degree[v])
        for v in g._lex_indices
    ))
    for cand in _members(g, c, lows, highs, budget, "box"):
        if _balanced(g, k_values, cand.values):
            return cand
    raise InternalError("semistable graphs always admit a semibalanced representative")


def is_uniform(g: WeightedMultigraph, d: Divisor) -> bool:
    """True iff both d and its residual are effective, i.e. every value sits
    in [0, canonical value]."""
    _same_graph(g, d)
    return all(0 <= x <= k for x, k in zip(d.values, canonical_divisor(g).values))


def is_special_class(g: WeightedMultigraph, c: DivisorClass) -> bool:
    """True iff both the class and its residual class contain an effective
    divisor (decided by reduced-form effectivity)."""
    _same_graph(g, c)
    if not c.canonical.is_effective:
        return False
    res = reduce_to(g, residual(g, c.canonical), c.base_vertex)
    return res.is_effective


def uniform_representative(
    g: WeightedMultigraph, c: DivisorClass, *, budget: int = DEFAULT_BUDGET
) -> Divisor | None:
    """Lexicographically smallest uniform divisor in the class, or None.

    Searches the box [0, canonical value] sliced at the class degree; the
    box is empty, and the answer None, when some canonical value is
    negative.  A hit is guaranteed when the class is special and every
    weight-0 vertex carries a loop.
    """
    _same_graph(g, c)
    k_values = canonical_divisor(g).values
    highs = [k_values[i] for i in g._lex_indices]
    lows = [0] * g._n
    return next(_members(g, c, lows, highs, budget, "box"), None)


def _loop_hypothesis(g: WeightedMultigraph) -> bool:
    return all(g._satellites)


def clifford_representative(
    g: WeightedMultigraph, c: DivisorClass, *, budget: int = DEFAULT_BUDGET
):
    """A certified Clifford representative of the class, or NotCovered.

    Case split at degree 0 <= d <= 2*genus - 2:

    * class not effective: its reduced form at the base vertex (negative
      there, so no line bundle of that multidegree has sections);
    * residual class not effective: the divisor whose residual is reduced
      at the base vertex;
    * both effective (special class): a uniform representative, certified
      only when the graph is a chain of 2-edge-connected components and
      every weight-0 vertex has a loop; otherwise NotCovered, since
      existence is known but no certified construction is.

    Returns ``(representative, certificate)`` or a :class:`NotCovered`
    carrying both hypothesis evaluations.
    """
    _same_graph(g, c)
    _require_clifford_degree(g, c.degree, "class degree")
    found = _clifford_branch(g, c, budget)
    if isinstance(found, NotCovered):
        return found
    return found[1], CliffordCertificate(*found)


def _clifford_branch(g: WeightedMultigraph, c: DivisorClass, budget: int):
    """The case split of :func:`clifford_representative`: (branch,
    representative, evidence) for the first branch that applies, or
    NotCovered.  A class held at g's base vertex v0 is held by its reduced
    form there, so a non-effective one is its own representative."""
    v0 = g.base_vertex()
    if not c.canonical.is_effective:
        rep = c.canonical if c.base_vertex == v0 else reduce_to(g, c.canonical, v0)
        return BRANCH_V_REDUCED, rep, {"vertex": v0, "value": rep.value(v0)}

    res_reduced = reduce_to(g, residual(g, c.canonical), v0)
    if not res_reduced.is_effective:
        rep = canonical_divisor(g) - res_reduced
        return BRANCH_RESIDUAL, rep, {"vertex": v0, "residual_reduced": res_reduced}

    chain = is_chain_of_2ec(g)
    loops_ok = _loop_hypothesis(g)
    if not (chain and loops_ok):
        return NotCovered(special=True, chain_of_2ec=chain, loop_hypothesis=loops_ok)
    rep = uniform_representative(g, c, budget=budget)
    if rep is None:
        raise InternalError(
            "special class under the loop hypothesis must have a uniform representative"
        )
    k = canonical_divisor(g)
    return BRANCH_UNIFORM, rep, {"bounds": {v: (rep.value(v), k.value(v)) for v in g.vertices}}


def verify_certificate(g: WeightedMultigraph, cert: CliffordCertificate) -> bool:
    """Re-check a certificate, or a plain tuple (branch, representative,
    evidence) of its fields, from its own evidence, independently of how
    the representative was constructed.  It never raises: anything that
    does not unpack to three items, a representative that is not a
    :class:`Divisor` on g, and evidence that is malformed or inconsistent
    with the representative fail verification.  A Uniform certificate is
    checked by the hypotheses under which a uniform divisor of a special
    class is a Clifford representative (a chain of 2-edge-connected
    components, a loop at every weight-0 vertex), its bounds, which must map
    each vertex to the pair (its value, its canonical value), and uniformity
    itself.  The other two branches each name one divisor, the
    representative or its residual, which must be reduced at the evidence's
    vertex and negative there."""
    try:
        branch, rep, evidence = cert
    except (TypeError, ValueError):
        return False
    if not isinstance(rep, Divisor) or rep.graph != g or not isinstance(evidence, dict):
        return False
    if branch == BRANCH_UNIFORM:
        if not (is_chain_of_2ec(g) and _loop_hypothesis(g)):
            return False
        k = canonical_divisor(g)
        if evidence.get("bounds") != {v: (rep.value(v), k.value(v)) for v in g.vertices}:
            return False
        # rep and its residual are effective, so rep's class is special
        return is_uniform(g, rep)
    v = evidence.get("vertex")
    if v not in g.vertices:
        return False
    if branch == BRANCH_V_REDUCED:
        reduced = rep
        if evidence.get("value") != rep.value(v):
            return False
    elif branch == BRANCH_RESIDUAL:
        reduced = residual(g, rep)
        if evidence.get("residual_reduced") != reduced:
            return False
    else:
        return False
    return is_reduced(g, reduced, [v]) and reduced.value(v) < 0

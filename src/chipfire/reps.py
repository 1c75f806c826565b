"""Distinguished representatives of divisor classes, with certificates.

Three kinds of representatives are constructed here: semibalanced divisors
(every vertex subset carries a share of the degree proportional to its
canonical weight, within half the cut size), uniform divisors (both the
divisor and its residual are effective), and certified Clifford
representatives, produced by a three-branch case split on whether the class
and its residual are effective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .divisors import (
    Divisor,
    DivisorClass,
    canonical_divisor,
    class_of,
    residual,
)
from .enumeration import (
    DEFAULT_BUDGET,
    box_vectors,
    check_budget,
    count_box_vectors,
)
from .errors import DomainError, InternalError
from .graph import WeightedMultigraph, is_chain_of_2ec, is_semistable
from .reduction import is_reduced, reduce_to

BRANCH_UNIFORM = "Uniform"
BRANCH_V_REDUCED = "VReducedNonEffective"
BRANCH_RESIDUAL = "ResidualVReduced"


@dataclass(frozen=True)
class CliffordCertificate:
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


@dataclass(frozen=True)
class NotCovered:
    """Constructive outcome unavailable: the class is special but the graph
    misses a hypothesis of the uniform-representative construction."""

    special: bool
    chain_of_2ec: bool
    loop_hypothesis: bool


def balance_bounds(
    g: WeightedMultigraph, d_total: int, zone: Iterable[str]
) -> tuple[Fraction, Fraction]:
    """Exact rational window [m, M] a semibalanced divisor must hit on the set.

    The center is the degree share proportional to the set's canonical
    weight; the half-width is half the edge cut to the complement.
    """
    zone = set(zone)
    if not zone or len(zone) >= g._n:
        raise DomainError("set must be a nonempty proper subset of the vertices")
    gen = g.genus
    if gen < 2:
        raise DomainError("balance bounds require genus >= 2")
    member = [False] * g._n
    for v in zone:
        member[g.vertex_index(v)] = True
    k = canonical_divisor(g)
    k_zone = sum(x for x, inside in zip(k.values, member) if inside)
    cross = sum(m for i, j, m in g._pairs if member[i] != member[j])
    center = Fraction(d_total * k_zone, 2 * gen - 2)
    half = Fraction(cross, 2)
    return center - half, center + half


def _require_semistable(g: WeightedMultigraph) -> None:
    verdict = is_semistable(g)
    if not verdict.applicable:
        raise DomainError("semibalance requires genus >= 2")
    if not verdict.value:
        raise DomainError("semibalance requires a semistable graph")


def is_semibalanced(
    g: WeightedMultigraph, d: Divisor, *, budget: int = DEFAULT_BUDGET
) -> bool:
    """Exhaustive check of the balance window over all proper vertex subsets."""
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    _require_semistable(g)
    n = g._n
    check_budget(2 ** n - 2, budget)
    deg = d.degree
    names = g.vertices_sorted
    for size in range(1, n):
        for zone in combinations(names, size):
            lo, hi = balance_bounds(g, deg, zone)
            d_zone = sum(d.value(v) for v in zone)
            if not lo <= d_zone <= hi:
                return False
    return True


def semibalanced_representative(
    g: WeightedMultigraph, c: DivisorClass, *, budget: int = DEFAULT_BUDGET
) -> Divisor:
    """Lexicographically smallest semibalanced divisor in the class.

    Every semibalanced divisor obeys the singleton balance windows, so the
    search runs over that box sliced at the class degree, in lex order, and
    the first hit that is both equivalent and fully semibalanced is the
    minimum.  Existence is guaranteed on semistable graphs.
    """
    _require_semistable(g)
    deg = c.degree
    names = g.vertices_sorted
    if g._n == 1:
        # no proper subsets to constrain; the class has a single divisor
        return Divisor(g, [deg])
    lows = []
    highs = []
    for v in names:
        lo, hi = balance_bounds(g, deg, [v])
        # smallest/largest integers inside the rational window
        lows.append(-((-lo.numerator) // lo.denominator))
        highs.append(hi.numerator // hi.denominator)
    check_budget(count_box_vectors(lows, highs, deg), budget)
    target = c.canonical.values
    for combo in box_vectors(lows, highs, deg):
        cand = Divisor(g, dict(zip(names, combo)))
        if reduce_to(g, cand, c.base_vertex).values != target:
            continue
        if is_semibalanced(g, cand, budget=budget):
            return cand
    raise InternalError("semistable graphs always admit a semibalanced representative")


def is_uniform(g: WeightedMultigraph, d: Divisor) -> bool:
    """True iff both d and its residual are effective, i.e. every value sits
    in [0, canonical value]."""
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    return all(0 <= x <= k for x, k in zip(d.values, canonical_divisor(g).values))


def _class_is_effective(g: WeightedMultigraph, c: DivisorClass) -> bool:
    # the canonical form is effective off its base by construction
    return c.canonical.is_effective


def is_special_class(g: WeightedMultigraph, c: DivisorClass) -> bool:
    """True iff both the class and its residual class contain an effective
    divisor (decided by reduced-form effectivity)."""
    if not _class_is_effective(g, c):
        return False
    res = reduce_to(g, residual(g, c.canonical), c.base_vertex)
    return res.is_effective


def uniform_representative(
    g: WeightedMultigraph, c: DivisorClass, *, budget: int = DEFAULT_BUDGET
) -> Divisor | None:
    """Lexicographically smallest uniform divisor in the class, or None.

    Searches the box [0, canonical value] sliced at the class degree.  A
    hit is guaranteed when the class is special and every weight-0 vertex
    carries a loop.
    """
    deg = c.degree
    names = g.vertices_sorted
    k = canonical_divisor(g)
    highs = [k.value(v) for v in names]
    if any(h < 0 for h in highs):
        return None
    lows = [0] * g._n
    check_budget(count_box_vectors(lows, highs, deg), budget)
    target = c.canonical.values
    for combo in box_vectors(lows, highs, deg):
        cand = Divisor(g, dict(zip(names, combo)))
        if reduce_to(g, cand, c.base_vertex).values == target:
            return cand
    return None


def _loop_hypothesis(g: WeightedMultigraph) -> bool:
    return all(w > 0 or l > 0 for w, l in zip(g._weights, g._loops))


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
    deg = c.degree
    top = 2 * g.genus - 2
    if deg < 0:
        raise DomainError(f"class degree {deg} is below the lower bound 0")
    if deg > top:
        raise DomainError(f"class degree {deg} exceeds the upper bound 2*genus-2 = {top}")
    v0 = g.base_vertex()

    if not _class_is_effective(g, c):
        rep = reduce_to(g, c.canonical, v0)
        cert = CliffordCertificate(
            branch=BRANCH_V_REDUCED,
            representative=rep,
            evidence={"vertex": v0, "value": rep.value(v0)},
        )
        return rep, cert

    res_reduced = reduce_to(g, residual(g, c.canonical), v0)
    if not res_reduced.is_effective:
        rep = canonical_divisor(g) - res_reduced
        cert = CliffordCertificate(
            branch=BRANCH_RESIDUAL,
            representative=rep,
            evidence={"vertex": v0, "residual_reduced": res_reduced},
        )
        return rep, cert

    chain = is_chain_of_2ec(g)
    loops_ok = _loop_hypothesis(g)
    if chain and loops_ok:
        rep = uniform_representative(g, c, budget=budget)
        if rep is None:
            raise InternalError(
                "special class under the loop hypothesis must have a uniform representative"
            )
        k = canonical_divisor(g)
        bounds = {v: (rep.value(v), k.value(v)) for v in g.vertices}
        cert = CliffordCertificate(
            branch=BRANCH_UNIFORM, representative=rep, evidence={"bounds": bounds}
        )
        return rep, cert
    return NotCovered(special=True, chain_of_2ec=chain, loop_hypothesis=loops_ok)


def verify_certificate(g: WeightedMultigraph, cert: CliffordCertificate) -> bool:
    """Re-check a certificate from its own evidence, independently of how the
    representative was constructed.  Evidence inconsistent with the
    representative fails verification."""
    rep = cert.representative
    if rep.graph != g:
        return False
    if cert.branch == BRANCH_UNIFORM:
        bounds = cert.evidence.get("bounds")
        if bounds is None or set(bounds) != set(g.vertices):
            return False
        k = canonical_divisor(g)
        for v, (value, cap) in bounds.items():
            if value != rep.value(v) or cap != k.value(v):
                return False
        if not is_uniform(g, rep):
            return False
        return is_special_class(g, class_of(g, rep, g.base_vertex()))
    if cert.branch == BRANCH_V_REDUCED:
        v = cert.evidence.get("vertex")
        if v is None or cert.evidence.get("value") != rep.value(v):
            return False
        return is_reduced(g, rep, [v]) and rep.value(v) < 0
    if cert.branch == BRANCH_RESIDUAL:
        v = cert.evidence.get("vertex")
        recorded = cert.evidence.get("residual_reduced")
        if v is None or recorded is None:
            return False
        res = residual(g, rep)
        if recorded != res:
            return False
        return is_reduced(g, res, [v]) and res.value(v) < 0
    return False

"""Divisor class rank, degree-regime shortcuts, and an independent oracle.

The rank of a divisor is the largest k such that subtracting any effective
degree-k divisor leaves an effective class, computed on the loopless and
weightless model of the graph.  Two fully separate deciders are provided:

* :func:`rank` scans k upward and tests coverage through reduced forms
  (the burning machinery in :mod:`.reduction`);
* :func:`rank_oracle` shares none of that code: it decides equivalence by
  exact integer lattice membership (adjugate and determinant of the reduced
  Laplacian) and enumerates effective divisors outright.

Agreement between the two on shared inputs is the package's strongest
self-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisors import Divisor, e_deg, residual
from .enumeration import (
    DEFAULT_BUDGET,
    check_budget,
    compositions,
    count_compositions,
)
from .errors import DomainError, InternalError
from .graph import WeightedMultigraph, bullet_model
from .reduction import _reduce_tuple

METHOD_DEFINITION = "definition"
METHOD_SHORTCUT = "regime_shortcut"
METHOD_ORACLE = "oracle"


@dataclass(frozen=True)
class RankReport:
    """Rank value with the evidence that pinned it down.

    ``witness`` is an effective divisor of degree rank + 1 that the class
    cannot cover; it lives on the loopless weightless model used for the
    scan (the graph itself when no model was needed) and is None when a
    degree-regime shortcut answered without scanning.
    """

    rank: int
    witness: Divisor | None
    method: str


def _model_values(g: WeightedMultigraph, d: Divisor) -> tuple[WeightedMultigraph, tuple[int, ...]]:
    """The divisor carried onto the loopless weightless model (0 at new vertices)."""
    gb, _ = bullet_model(g)
    if gb is g:
        return g, d.values
    by_name = d.as_dict()
    return gb, tuple(by_name.get(v, 0) for v in gb.vertices)


def _scan_level(gb, base_vals, u, k):
    """First effective degree-k divisor (lex order) the class fails to cover."""
    nb = gb._n
    lex = gb._lex_indices
    for combo in compositions(k, nb):
        target = list(base_vals)
        for pos, x in zip(lex, combo):
            target[pos] -= x
        if _reduce_tuple(gb, tuple(target), u)[u] < 0:
            vals = [0] * nb
            for pos, x in zip(lex, combo):
                vals[pos] = x
            return tuple(vals)
    return None


def rank(
    g: WeightedMultigraph,
    d: Divisor,
    *,
    shortcuts: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> RankReport:
    """Exact rank of the class of d.

    With shortcuts enabled, negative degree returns -1 and degree beyond
    2*genus - 2 returns degree - genus without scanning.  Otherwise k is
    scanned upward; coverage at k fails as soon as one effective degree-k
    divisor leaves a non-effective class, and monotonicity of coverage
    justifies stopping at the first failing level.
    """
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    deg = d.degree
    gen = g.genus
    if shortcuts:
        if deg < 0:
            return RankReport(rank=-1, witness=None, method=METHOD_SHORTCUT)
        if deg > 2 * gen - 2:
            return RankReport(rank=deg - gen, witness=None, method=METHOD_SHORTCUT)
    gb, base_vals = _model_values(g, d)
    u = gb.vertex_index(gb.base_vertex())
    k = 0
    while True:
        check_budget(count_compositions(k, gb._n), budget)
        witness = _scan_level(gb, base_vals, u, k)
        if witness is not None:
            return RankReport(rank=k - 1, witness=Divisor(gb, witness), method=METHOD_DEFINITION)
        k += 1


# -- independent oracle ----------------------------------------------------

# Class keys a graph's oracle key sets may hold together before they are
# emptied (each key is a tuple of n - 1 residues).
_KEYS_LIMIT = 1 << 18


def _det_and_adjugate(mat: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Exact determinant and adjugate of an integer matrix via Fraction
    Gauss-Jordan elimination."""
    m = len(mat)
    if m == 0:
        return 1, []
    a = [[Fraction(x) for x in row] for row in mat]
    inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        piv = None
        for r in range(col, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise InternalError("singular reduced Laplacian on a connected graph")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            det = -det
        pivot = a[col][col]
        det *= pivot
        a[col] = [x / pivot for x in a[col]]
        inv[col] = [x / pivot for x in inv[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    adj = [[det * inv[i][j] for j in range(m)] for i in range(m)]
    out = []
    for row in adj:
        ints = []
        for x in row:
            if x.denominator != 1:
                raise InternalError(f"adjugate entry {x} is not an integer")
            ints.append(int(x))
        out.append(tuple(ints))
    return int(det), out


def _lattice_data(g: WeightedMultigraph):
    """Base index, adjugate of the reduced Laplacian, and its determinant.

    A degree-0 divisor is a sum of set firings iff the adjugate applied to
    its off-base restriction vanishes mod the determinant (the determinant
    is the spanning tree count, positive for connected graphs).
    """
    cache = g._oracle
    if "lattice" in cache:
        return cache["lattice"]
    u = g.vertex_index(g.base_vertex())
    rest = [i for i in range(g._n) if i != u]
    lap = [[0] * g._n for _ in range(g._n)]
    for i, j, m in g._pairs:
        if i != j:  # loops do not enter the Laplacian
            lap[i][i] += m
            lap[j][j] += m
            lap[i][j] -= m
            lap[j][i] -= m
    det, adj = _det_and_adjugate([[lap[i][j] for j in rest] for i in rest])
    if det <= 0:
        raise InternalError(f"reduced Laplacian determinant {det} is not positive")
    data = (u, rest, adj, det)
    cache["lattice"] = data
    return data


def _class_key(data, vals) -> tuple[int, ...]:
    u, rest, adj, det = data
    z = [vals[i] for i in rest]
    return tuple(sum(row[c] * z[c] for c in range(len(z))) % det for row in adj)


def _effective_keys(g: WeightedMultigraph, m: int, budget: int) -> frozenset:
    """Class keys of every effective divisor of degree m on g."""
    cache = g._oracle
    keysets = cache.setdefault("keys", {})
    hit = keysets.get(m)
    if hit is not None:
        return hit
    check_budget(count_compositions(m, g._n), budget)
    data = cache["lattice"]
    keys = frozenset(_class_key(data, combo) for combo in compositions(m, g._n))
    if sum(map(len, keysets.values())) + len(keys) > _KEYS_LIMIT:
        keysets.clear()
    keysets[m] = keys
    return keys


def rank_oracle(g: WeightedMultigraph, d: Divisor, *, budget: int = DEFAULT_BUDGET) -> int:
    """Rank by brute definition, sharing no decision code with :func:`rank`.

    For each k, every effective degree-k divisor e is checked by asking
    whether some effective divisor of the right degree is equivalent to
    d - e, with equivalence decided by integer lattice membership.  No
    degree shortcuts, no burning, no shared caches.
    """
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    gb, base_vals = _model_values(g, d)
    deg = sum(base_vals)
    data = _lattice_data(gb)
    nb = gb._n
    k = 0
    while True:
        check_budget(count_compositions(k, nb), budget)
        m = deg - k
        if m < 0:
            return k - 1  # nothing effective has negative degree
        keys = _effective_keys(gb, m, budget)
        for combo in compositions(k, nb):
            target = [a - b for a, b in zip(base_vals, combo)]
            if _class_key(data, target) not in keys:
                return k - 1
        k += 1


def rank_lower_bound_edeg(
    g: WeightedMultigraph, d: Divisor, s: int, *, budget: int = DEFAULT_BUDGET
) -> bool:
    """Sufficient test for rank >= s through weight-aware inflation.

    True iff for every effective divisor e of degree s on g itself (not on
    the loopless model), d minus the inflated e is equivalent to an
    effective divisor.  A True answer implies rank(g, d) >= s.
    """
    if d.graph != g:
        raise DomainError("divisor lives on a different graph")
    if s < 0:
        raise DomainError("s must be nonnegative")
    n = g._n
    u = g.vertex_index(g.base_vertex())
    check_budget(count_compositions(s, n), budget)
    for combo in compositions(s, n):
        e = Divisor(g, combo)
        # the class is effective iff its reduced form at u is
        if _reduce_tuple(g, (d - e_deg(g, e)).values, u)[u] < 0:
            return False
    return True


def riemann_roch_check(
    g: WeightedMultigraph,
    d: Divisor,
    *,
    shortcuts: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Self-audit of the rank identity rank(d) - rank(residual) = deg - genus + 1."""
    r_d = rank(g, d, shortcuts=shortcuts, budget=budget).rank
    r_res = rank(g, residual(g, d), shortcuts=shortcuts, budget=budget).rank
    return r_d - r_res == d.degree - g.genus + 1


def clifford_check(g: WeightedMultigraph, d: Divisor, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Self-audit that rank is at most half the degree, in the valid range."""
    deg = d.degree
    top = 2 * g.genus - 2
    if deg < 0:
        raise DomainError(f"degree {deg} is below the lower bound 0")
    if deg > top:
        raise DomainError(f"degree {deg} exceeds the upper bound 2*genus-2 = {top}")
    r = rank(g, d, budget=budget).rank
    return 2 * r <= deg

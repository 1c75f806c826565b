"""Divisor class rank, degree-regime shortcuts, and an independent oracle.

The rank of a divisor is the largest k such that subtracting any effective
degree-k divisor leaves an effective class.  On a weighted graph, or one
with loops, the effective divisors range over the loopless weightless
model of the graph (:func:`.graph.bullet_model`).  Two fully separate
deciders are provided:

* :func:`rank` scans k upward on the graph itself, testing coverage through
  reduced forms (the burning machinery in :mod:`.reduction`) of the
  weight-aware inflation of each candidate, which is exact (see
  :func:`rank_lower_bound_edeg`); on a weighted or looped graph the failing
  level is scanned once more over the model's coordinates, still on the
  graph, to state the witness.  Both are one scan (:func:`_uncovered`)
  over coordinates that name the vertex their chips come off and what they
  cost there.  It folds the base vertex out: the reduced form at the base
  does not depend on the chips there, so each candidate off the base is
  reduced once, and the fewest chips its degree leaves at the base decide
  every level.  It steps its own compositions in lex order, in place, and
  each candidate's target from the previous candidate's at the three parts
  a step changes; a candidate missing from the cache is stepped from any
  cached parent, one chip fewer at one part, preferring one that needs no
  borrowing;
* :func:`rank_oracle` shares none of that code: it works on the model,
  decides equivalence by exact integer lattice membership (adjugate and
  determinant of the reduced Laplacian) and enumerates effective divisors
  outright, as full boxes (:func:`.enumeration.box_vectors`, which
  :func:`rank` never calls).

Agreement between the two on shared inputs is the package's strongest
self-check.

The reduce cache is the scan's own memo: one map per graph,
``g._reduced``, from a candidate's target with 0 at g's base vertex to its
reduced form there.  Chips at the base never enter the burn, so targets
that differ only there share one entry, and the scan adds its own chips at
the base back; calls whose divisors differ only at the base share every
entry.  Only the scan writes to the map, and only reductions at g's base
vertex, so its keys never mix reductions at different vertices.  Every
other reduction in the package runs from scratch and stores nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from .divisors import Divisor, _placed, residual
from .enumeration import DEFAULT_BUDGET, box_vectors, check_budget, count_compositions
from .errors import DomainError, InternalError
from .graph import WeightedMultigraph, _same_graph, bullet_model, bullet_model_size
from .reduction import _borrow, _reduce_off

METHOD_DEFINITION = "definition"
METHOD_SHORTCUT = "regime_shortcut"

# Entries g._reduced may hold before it is emptied.  Traced over 40 rank
# calls each, an entry took 214 B on K6, 210 B on K7 and 173 B on the
# 3-vertex golden graph (an already reduced key is held once, as its own
# value), so the map stays near 55 MB on K6 or K7; key and value grow by
# 8 B each a vertex.
_CACHE_LIMIT = 1 << 18

# The longest cost tables a graph keeps for later scans (see _coords): the
# levels of a scan are bounded only through the budget's count, so a scan
# past this builds its own tables, as long as it needs, and keeps none.
_COORDS_KEPT = 1 << 12


def _remember(cache: dict, key: tuple[int, ...], out: tuple[int, ...]):
    """Store out, the reduced form of key, in cache, a graph's reduce map,
    and return what was stored: key itself when the two are equal, so an
    already reduced key is held once.  A full map is emptied first, in
    place, so a map that a walk holds stays the graph's."""
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    if out == key:
        out = key
    cache[key] = out
    return out


def _lookup(g, cache: dict, key: tuple[int, ...], u: int) -> tuple[int, ...]:
    """The reduced form at u, g's base index, of key, which holds 0 at u:
    from cache, g's reduce map, or reduced from scratch and stored there."""
    red = cache.get(key)
    if red is None:
        red = _remember(cache, key, tuple(_reduce_off(g, key, [u])))
    return red


class RankReport(NamedTuple):
    """Rank value with the evidence that pinned it down.

    ``witness`` is an effective divisor of degree rank + 1 that the class
    cannot cover: the lexicographically first one on the loopless
    weightless model (the graph itself when it has no weights or loops).
    It is None when a degree-regime shortcut answered without scanning.
    """

    rank: int
    witness: Divisor | None
    method: str


def _coords(g, top, model=None):
    """Lex-ordered coordinates: the vertex of g that each one's chips come
    off, and the cost table of x chips there, for every x <= top at least.

    Over g's own vertices x chips at v cost x + min(x, weight + loops),
    which is x on a weightless, loopless graph.  Over the model's
    vertices, x chips cost x at a vertex of g and x + x mod 2 at the host
    of a satellite, the one vertex in the satellite's row of the model.
    Equal costs share one table.  g keeps one set of each, for the largest
    top asked for up to ``_COORDS_KEPT``: a table for a smaller top is a
    prefix of it.
    """
    kept = g._scan_coords.get(model is None)
    if kept is not None and len(kept[1][0]) > top:
        return kept
    if model is None:
        lex = g._lex_indices
        caps = [min(g._weights[i] + g._loops[i], top) for i in lex]
        # 2x up to the cap, then x + cap
        tables = {c: [*range(0, 2 * c + 1, 2), *range(2 * c + 1, top + c + 1)] for c in set(caps)}
        coords = lex, [tables[c] for c in caps]
    else:
        n, rows = g._n, model._rows
        single, paired = list(range(top + 1)), [x + (x & 1) for x in range(top + 1)]
        lex = model._lex_indices
        coords = (
            [pos if pos < n else rows[pos][0][0] for pos in lex],
            [single if pos < n else paired for pos in lex],
        )
    if top <= _COORDS_KEPT:
        g._scan_coords[model is None] = coords
    return coords


def _walk_off_base(g, vals, j, coords, floor):
    """Walk the compositions of j over coords in lex order, each candidate's
    target reduced at g's base vertex u.  Returns (the first candidate whose
    reduced form holds fewer than floor chips at u, None) or, when none
    does, (None, the fewest chips at u among them; infinity when there is
    no candidate).

    The walk steps the composition in place: with z its last nonzero part,
    the lex-next composition moves one chip to part z - 1, empties part z
    and puts the rest of z, less that chip, on the last part; the walk ends
    when z is the first part or there is none.  So a step changes the
    running target at those three parts only, and one tuple per candidate
    is built, the cache key.  The key is the target with 0 at u, in the
    frame of g's reduce cache (see the module docstring): the target's
    chips at u, those of vals less what the coordinates hosted at u cost,
    are set aside while the key is formed and a miss is reduced, and are
    added back to the reduced form's value at u.  A candidate missing from
    the cache is stepped from a parent (:func:`_reduce_missing`).
    """
    dests, costs = coords
    cache, u = g._reduced, g._lex_indices[0]
    last = len(dests) - 1
    if last < 0 and j:
        return None, float("inf")
    target = list(vals)
    vec = [0] * (last + 1)
    z = -1  # the last nonzero part, -1 when there is none
    if j:
        z, vec[last] = last, j
        target[dests[last]] -= costs[last][j]
    least = float("inf")
    while True:
        at_u, target[u] = target[u], 0
        key = tuple(target)
        red = cache.get(key)
        if red is None:
            red = _reduce_missing(g, key, target, vec, coords, z)
        target[u] = at_u
        at_u += red[u]
        if at_u < floor:
            return tuple(vec), None
        if at_u < least:
            least = at_u
        if z <= 0:
            return None, least
        # one chip more at part i = z - 1
        i = z - 1
        x, cost = vec[i], costs[i]
        vec[i] = x + 1
        target[dests[i]] -= cost[x + 1] - cost[x]
        # part z emptied, its chips less one on the last part
        x, cost = vec[z], costs[z]
        rest = x - 1
        if z == last:
            vec[z] = rest
            target[dests[z]] += cost[x] - cost[rest]
        else:
            vec[z] = 0
            target[dests[z]] += cost[x]
            if rest:
                vec[last] = rest
                target[dests[last]] -= costs[last][rest]
        z = last if rest else i


def _reduce_missing(g, key, target, vec, coords, z):
    """The reduced form at g's base vertex u of key, the running target of
    the walk's candidate vec with 0 at u, stepped from a parent and stored
    in g's reduce cache.

    A parent is vec with one chip fewer at a nonzero part, whose target
    holds s = cost[x] - cost[x - 1] more chips at the part's vertex v, with
    x the chips there; its key is the running target stepped at v and
    back.  With R the parent's reduced form, R - s*e_v is equivalent to the
    candidate, and every miss that names a parent is that step, borrowing
    at v when R(v) < s (:func:`.reduction._borrow`).  Trying the parts from
    z down, the first cached parent that holds the step's chips is taken:
    R - s*e_v is then already reduced, since fewer chips off u only make
    the burn from u easier.  Failing that, the first cached parent is, and
    the least borrowing b from a divisor below a reduced R is reduced too:
    if a set A could fire legally afterwards, then either b - 1_A would
    still clear the negatives, or the vertices of A that never borrowed
    could fire legally from R.  A step of 0, a satellite's even chip, or
    at u leaves the key as it is, so it names no parent.  With no parent
    cached, the one at z, the last nonzero part, is reduced from scratch
    and stored; when z names none either, the candidate itself is.
    """
    dests, costs = coords
    cache, u = g._reduced, g._lex_indices[0]
    first = None  # the cached parent stepped from: (its form, vertex, step)
    scratch = None  # the parent at z, by its key, vertex and step
    for p in range(z, -1, -1):
        x = vec[p]
        if not x:
            continue
        to, cost = dests[p], costs[p]
        s = cost[x] - cost[x - 1]
        if not s or to == u:
            continue
        target[to] += s
        parent = tuple(target)
        target[to] -= s
        red = cache.get(parent)
        if red is None:
            if p == z:
                scratch = parent, to, s
        elif red[to] >= s:
            first = red, to, s
            break
        elif first is None:
            first = red, to, s
    if first is None:
        if scratch is None:
            return _lookup(g, cache, key, u)
        parent, to, s = scratch
        first = _lookup(g, cache, parent, u), to, s
    red, to, s = first
    work = list(red)
    work[to] -= s
    if work[to] < 0:
        _borrow(g, work, u, to)
    return _remember(cache, key, tuple(work))


class _Minima(dict):
    """The minima of :func:`_uncovered`, for the degrees 0 to len - 1, and
    ``fails_at``, a level below which none of them fails.

    cost_u never decreases, so a minimum m of degree j fails at every level
    from j + x on, with x the fewest chips whose cost at u exceeds m: that
    cost is x + min(x, weight + loops at u) over g's coordinates, where
    ``fails_at`` is exact, and x over the model's, where it may be early.
    """

    fails_at = float("inf")


def _uncovered(g, vals, k, coords, mins, lex=True):
    """A composition c of k over coords whose cost the class of vals fails
    to cover: vals less each coordinate's cost at its vertex is not
    effective after reduction at g's base vertex u.  With lex it is the
    lex-first one.  None when every candidate is covered.

    The base vertex u is coordinate 0, with cost table cost_u, and the
    scan folds it out.  The reduced form at u does not depend on the chips
    at u, which never enter the burn, so red(vals - c) = red(vals - c') -
    cost_u(c_u) e_u, where c' is c with its chips at u removed.  So c fails
    iff the reduced form of its off-base part c' holds fewer than
    cost_u(c_u) chips at u, and level k is covered iff mins[j] >= cost_u(k -
    j) for every j <= k, where mins[j] is the fewest chips at u among the
    reduced forms of the off-base candidates of degree j.  Each off-base
    candidate is reduced once for every level and every c_u.

    mins (a :class:`_Minima`) records those minima; it is filled here, and
    may be shared by the levels of one vals over one set of coordinates up
    to the first that fails.  The candidates come in lex order of (c_u,
    c'): for each c_u ascending, a recorded minimum at or above cost_u(c_u)
    passes without a walk, and otherwise the off-base candidates of degree
    k - c_u are walked, cached ones included, with cost_u(c_u) as the floor
    (:func:`_walk_off_base`).  Below level mins.fails_at, only the degrees
    not yet recorded, len(mins) to k, are looked at.  Without lex, the
    degrees come in ascending order instead: the minima that lower levels
    recorded come first, so a failure that they show costs no new
    reductions, and every walk finds its parents, one degree down, in the
    cache.
    """
    dests, costs = coords
    u = g._lex_indices[0]
    if dests[0] != u:
        raise InternalError("the scan's first coordinate is not the base vertex")
    cost_u, rest = costs[0], (dests[1:], costs[1:])
    # a: the chips at u, ascending in lex order, descending by degree
    last = k if mins.fails_at <= k else k - len(mins)
    cap = g._weights[u] + g._loops[u]
    for a in range(last + 1) if lex else range(last, -1, -1):
        j, floor = k - a, cost_u[a]
        least = mins.get(j)
        if least is None or least < floor:
            failed, least = _walk_off_base(g, vals, j, rest, floor)
            if failed is not None:
                return (a, *failed)
            mins[j] = least
            # the fewest chips x whose cost x + min(x, cap) exceeds least
            x = least // 2 + 1 if least < 2 * cap else least - cap + 1
            mins.fails_at = min(mins.fails_at, j + x)
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
    scanned upward on g itself (see :func:`rank_lower_bound_edeg` for why
    that is exact on weighted graphs); coverage at k fails as soon as one
    inflated effective degree-k divisor leaves a non-effective class, and
    monotonicity of coverage justifies stopping at the first failing level.
    On a weightless, loopless graph the first failure is the witness.
    Otherwise the loopless weightless model is built and the failing level
    is scanned once more over its coordinates, each still tested on g, for
    the lex-first failing model divisor.

    The scan folds the base vertex u out (see :func:`_uncovered`): the
    reduced form at u of a candidate off u does not depend on the chips at
    u, so the levels share one record of the fewest chips left at u per
    off-base degree, and level k walks only its new off-base candidates,
    those of degree k, each reduced once for all the levels above it.  On a
    weighted graph a level that those minima fail is decided without a
    walk.  Each candidate's target steps from the previous candidate's,
    and its reduced form from a cached parent's, one degree down (see
    :func:`_walk_off_base`).  The reduced form is unique, so the rank, the
    witness and every budget count are those of reducing every candidate
    of the full scan from scratch.  The model's base is g's base: a
    satellite's name starts with its host's, so it sorts after it.

    The budget counts the model's candidates, C(k + N - 1, N - 1) at level
    k with N the model's vertex count, as the scan on the model would;
    N itself is checked against it before the model is built.
    """
    _same_graph(g, d)
    deg = d.degree
    gen = g.genus
    if shortcuts:
        if deg < 0:
            return RankReport(rank=-1, witness=None, method=METHOD_SHORTCUT)
        if deg > 2 * gen - 2:
            return RankReport(rank=deg - gen, witness=None, method=METHOD_SHORTCUT)
    n_model, _ = bullet_model_size(g)
    vals = d.values
    on_g = n_model == g._n  # no weights or loops: g's first failure is the witness
    mins = _Minima()
    k, top = 0, -1
    while True:
        check_budget(count_compositions(k, n_model), budget, "rank", k)
        if k > top:  # cost tables for 2k + 2 chips serve the next k + 3 levels
            top = 2 * k + 2
            coords = _coords(g, top)
        failed = _uncovered(g, vals, k, coords, mins, lex=on_g)
        if failed is not None:
            break
        k += 1
    model = g
    if not on_g:  # state the witness on the model
        check_budget(n_model, budget, "witness", k)
        model = bullet_model(g)
        failed = _uncovered(g, vals, k, _coords(g, k, model), _Minima())
        if failed is None:
            raise InternalError(f"level {k} fails on the graph but on no model candidate")
    witness = Divisor(model, _placed(model._lex_indices, failed, model._n))
    return RankReport(rank=k - 1, witness=witness, method=METHOD_DEFINITION)


# -- independent oracle ----------------------------------------------------

# Class keys a graph's oracle key sets may hold together before they are
# emptied (each key is a tuple of n - 1 residues).
_KEYS_LIMIT = 1 << 18


def _det_and_adjugate(mat: list[list[int]]) -> tuple[int, list[tuple[int, ...]]]:
    """Exact determinant and adjugate of a square integer matrix.

    Fraction-free Gauss-Jordan elimination on [A | I] (Bareiss): each step
    scales every other row by the pivot and divides exactly by the previous
    pivot, so the entries stay integers (minors of A).  The left block ends
    as p*I and the right as p*A^-1, so with s the sign of the row swaps,
    det(A) = s*p and adj(A) = s times the right block.
    """
    m = len(mat)
    rows = [[*row, *(int(i == j) for j in range(m))] for i, row in enumerate(mat)]
    sign = prev = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col]), None)
        if piv is None:
            raise InternalError("singular reduced Laplacian on a connected graph")
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        top = rows[col]
        p = top[col]
        for r, row in enumerate(rows):
            if r != col:
                f = row[col]
                rows[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return sign * prev, [tuple(sign * x for x in row[m:]) for row in rows]


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


def _effective_keys(g: WeightedMultigraph, m: int) -> frozenset:
    """Class keys of every effective divisor of degree m on g.

    Its C(m + N - 1, N - 1) divisors, N = g._n, need no budget check of
    their own: :func:`rank_oracle` asks for m = deg - k <= deg on its model,
    the count does not decrease as m grows, and its prologue has checked it
    at m = deg."""
    cache = g._oracle
    keysets = cache.setdefault("keys", {})
    hit = keysets.get(m)
    if hit is not None:
        return hit
    data = cache["lattice"]
    n = g._n
    keys = frozenset(_class_key(data, combo) for combo in box_vectors((0,) * n, (m,) * n, m))
    if sum(map(len, keysets.values())) + len(keys) > _KEYS_LIMIT:
        keysets.clear()
    keysets[m] = keys
    return keys


def rank_oracle(g: WeightedMultigraph, d: Divisor, *, budget: int = DEFAULT_BUDGET) -> int:
    """Rank by brute definition, sharing no decision code with :func:`rank`.

    For each k, every effective degree-k divisor e is checked by asking
    whether some effective divisor of the right degree is equivalent to
    d - e, with equivalence decided by integer lattice membership.  No
    degree shortcuts, no burning, no shared caches.  The model's vertex
    count, or level 0's key count if larger, is checked against the budget
    before the model is built.
    """
    _same_graph(g, d)
    n_model, _ = bullet_model_size(g)
    check_budget(max(n_model, count_compositions(d.degree, n_model)), budget, "oracle", 0)
    gb = bullet_model(g)
    # the model's first n vertices are g's, in g's order; 0 at the rest
    base_vals = [*d.values, *(0,) * (gb._n - g._n)]
    deg = d.degree
    data = _lattice_data(gb)
    nb = gb._n
    k = 0
    while True:
        check_budget(count_compositions(k, nb), budget, "oracle", k)
        m = deg - k
        if m < 0:
            return k - 1  # nothing effective has negative degree
        keys = _effective_keys(gb, m)
        for combo in box_vectors((0,) * nb, (k,) * nb, k):
            target = [a - b for a, b in zip(base_vals, combo)]
            if _class_key(data, target) not in keys:
                return k - 1
        k += 1


def rank_lower_bound_edeg(
    g: WeightedMultigraph, d: Divisor, s: int, *, budget: int = DEFAULT_BUDGET
) -> bool:
    """Exact test of rank(g, d) >= s through weight-aware inflation.

    True iff for every effective divisor e of degree s on g itself (not on
    the loopless model), d - e_deg(e) is equivalent to an effective
    divisor, where e_deg(e)(v) = e(v) + min(e(v), weight(v) + loops(v)).

    This is the model's level-s test.  A satellite s of the model has two
    edges, both to its host v, so it burns only after v and its edges never
    cross a cut of the reduction at the base vertex; firing it moves chips
    two at a time.  So the model class of d - E is effective iff the class
    on g is, of d minus E(v) at each vertex v and E(s) + E(s) mod 2 at the
    host of each satellite s.  With t chips of E in the star of v, that
    takes at most t + min(t, weight(v) + loops(v)) from v, one chip per
    satellite first, and coverage is monotone in what is subtracted.

    This is :func:`rank`'s level test, the same scan over the same
    coordinates (:func:`_uncovered`); a parent, one chip of e fewer at p,
    takes 1 + [e(p) <= weight(p) + loops(p)] fewer chips from p.  The scan
    folds the base vertex u out: the reduced form at u of d - e_deg(e)
    with e's chips at u removed does not depend on the chips at u, which
    only lower its value at u by e_deg(e)(u).  So it walks the effective
    divisors off u once, in ascending degree j <= s, each against the
    floor e_deg(s - j chips at u); every walk finds its parents, one degree
    down, in the cache, so unless the cache is emptied meanwhile only the
    zero divisor is reduced from scratch.
    """
    _same_graph(g, d)
    if s < 0:
        raise DomainError("s must be nonnegative")
    check_budget(count_compositions(s, g._n), budget, "rank_lower_bound_edeg", s)
    return _uncovered(g, d.values, s, _coords(g, s), _Minima(), lex=False) is None


def riemann_roch_check(g: WeightedMultigraph, d: Divisor, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Self-audit of the rank identity rank(d) - rank(residual) = deg - genus + 1.

    Both ranks come from the definitional scan (``shortcuts=False``): the
    degree-regime shortcuts are Riemann-Roch's own consequences, so with
    them the identity would hold by arithmetic whenever the degree lies
    outside [0, 2*genus - 2].
    """
    r_d = rank(g, d, shortcuts=False, budget=budget).rank
    r_res = rank(g, residual(g, d), shortcuts=False, budget=budget).rank
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

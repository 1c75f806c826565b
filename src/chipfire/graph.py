"""Finite vertex-weighted multigraphs and their structural invariants.

Vertices are opaque strings; parallel edges and loops are allowed.  A
graph stores one multiplicity per vertex pair, so memory and the structural
algorithms grow with the number of pairs, not of parallel copies.  The
lexicographic order on vertex names is the canonical order used for every
deterministic tie-break in the package (base-vertex choices, component
naming, enumeration order).
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .enumeration import DEFAULT_BUDGET, check_budget
from .errors import DomainError, GraphError

__all__ = [
    "StabilityVerdict", "WeightedMultigraph", "bridges", "bullet_model", "contract_non_bridges",
    "genus", "is_chain_of_2ec", "is_semistable", "is_stable", "valence",
]


def _count(x, least: int, what: str) -> int:
    """x as an int of at least ``least``, else a GraphError naming ``what``."""
    try:
        x = operator.index(x)
    except TypeError:
        raise GraphError(f"{what} {x!r} is not an integer") from None
    if x < least:
        raise GraphError(f"{what} {x} is below {least}")
    return x


class WeightedMultigraph:
    """Connected multigraph with nonnegative integer vertex weights.

    Edges are stored once per vertex pair with their multiplicity, in order
    of first appearance; a pair ``(v, v)`` counts loops.  An item of
    ``edges`` is ``(a, b)`` or ``(a, b, multiplicity)``.  The :attr:`edges`
    view expands each pair into one entry per parallel copy, the copies of
    a pair next to each other at the pair's first appearance.  Instances
    are immutable after construction.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        weights: Mapping[str, int] | None = None,
        edges: Iterable[Sequence] = (),
    ):
        if isinstance(vertices, str):
            raise GraphError(f"vertex list {vertices!r} is a string, not a collection of names")
        verts = tuple(vertices)
        if not verts:
            raise GraphError("graph has no vertices")
        for v in verts:
            if not isinstance(v, str):
                raise GraphError(f"vertex identifier {v!r} is not a string")
        if len(set(verts)) != len(verts):
            raise GraphError("duplicate vertex identifier")
        index = {v: i for i, v in enumerate(verts)}

        weights = dict(weights or {})
        for v, w in weights.items():
            if v not in index:
                raise GraphError(f"weight given for unknown vertex {v!r}")
            weights[v] = _count(w, 0, f"vertex {v!r} weight")
        weight_list = tuple(weights.get(v, 0) for v in verts)

        counts: dict[tuple[int, int], int] = {}
        for e in edges:
            if len(e) not in (2, 3):
                raise GraphError(f"edge {e!r} is not (a, b) or (a, b, multiplicity)")
            a, b = e[0], e[1]
            if a not in index:
                raise GraphError(f"edge endpoint {a!r} is not a declared vertex")
            if b not in index:
                raise GraphError(f"edge endpoint {b!r} is not a declared vertex")
            m = _count(e[2], 1, f"edge {a!r}-{b!r} multiplicity") if len(e) == 3 else 1
            i, j = sorted((index[a], index[b]))
            counts[i, j] = counts.get((i, j), 0) + m
        pairs = tuple((i, j, m) for (i, j), m in counts.items())

        n = len(verts)
        lex_indices = tuple(sorted(range(n), key=lambda i: verts[i]))

        # neighbor rows sorted in canonical (lexicographic) order
        adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        loops = [0] * n
        for i, j, m in pairs:
            if i == j:
                loops[i] = m
            else:
                adjacent[i].append((j, m))
                adjacent[j].append((i, m))
        rows = [tuple(sorted(row, key=lambda jm: verts[jm[0]])) for row in adjacent]

        self._vertices = verts
        self._index = index
        self._weights = weight_list
        self._pairs = pairs
        self._n = n
        self._loops = loops
        # a vertex's satellites in the model: one per unit of weight and per loop
        self._satellites = tuple(w + l for w, l in zip(weight_list, loops))
        self._rows = rows
        self._lex_indices = lex_indices
        # edge endpoints at each vertex with its loops left out: a singleton's cut
        self._loopless_degree = tuple(sum(m for _, m in row) for row in rows)
        self._valence = tuple(d + 2 * l for d, l in zip(self._loopless_degree, loops))
        self._edge_count = sum(m for _, _, m in pairs)
        self._genus = self._edge_count - n + 1 + sum(weight_list)

        if len(_bfs_order(self, [0])) != n:
            raise GraphError("graph is disconnected")

        self._key = (verts, weight_list, tuple(sorted(pairs)))
        self._hash = hash(self._key)
        # per-instance memos:
        # - the loopless weightless model (see bullet_model)
        # - the rank scan's reduced forms at the base vertex, one map keyed
        #   by the chips with 0 there, bounded by the rank module's cache
        #   limit; no other reduction stores anything
        # - the rank scan's coordinates over g and over the model, each at
        #   the largest table length asked for (a shorter one is a prefix),
        #   up to the rank module's cap
        # - the oracle's lattice data and key sets, kept apart from the
        #   reduced forms
        self._model: WeightedMultigraph | None = None
        self._reduced: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._scan_coords: dict[bool, tuple] = {}
        self._oracle: dict = {}

    # -- public views ------------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        """Vertex identifiers in declaration order."""
        return self._vertices

    @property
    def vertices_sorted(self) -> tuple[str, ...]:
        """Vertex identifiers in canonical (lexicographic) order."""
        return tuple(self._vertices[i] for i in self._lex_indices)

    @property
    def weights(self) -> dict[str, int]:
        return {v: w for v, w in zip(self._vertices, self._weights)}

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Edge multiset, one entry per parallel copy, built on each call."""
        names = self._vertices
        return tuple(e for i, j, m in self._pairs for e in [(names[i], names[j])] * m)

    @property
    def genus(self) -> int:
        return self._genus

    def weight(self, v: str) -> int:
        return self._weights[self.vertex_index(v)]

    def loop_count(self, v: str) -> int:
        return self._loops[self.vertex_index(v)]

    def vertex_index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise DomainError(f"unknown vertex {v!r}") from None

    def base_vertex(self) -> str:
        """Canonical base vertex: the lexicographically smallest identifier."""
        return self._vertices[self._lex_indices[0]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedMultigraph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"WeightedMultigraph({len(self._vertices)} vertices, "
            f"{self._edge_count} edges, genus {self._genus})"
        )


class StabilityVerdict(NamedTuple):
    """Boolean verdict plus an applicability diagnostic for genus < 2 inputs."""

    value: bool
    applicable: bool

    def __bool__(self) -> bool:
        return self.value


def _bfs_order(g: WeightedMultigraph, sources: Sequence[int]) -> tuple[int, ...]:
    """Vertex indices reachable from distinct sources, in breadth-first order.

    The sources come first, in the given order; neighbors are visited in
    canonical (lexicographic) order, so the order is deterministic.
    """
    seen = [False] * g._n
    for s in sources:
        seen[s] = True
    out = list(sources)
    rows = g._rows
    for v in out:  # out grows while we walk it: a queue without pops
        for w, _ in rows[v]:
            if not seen[w]:
                seen[w] = True
                out.append(w)
    return tuple(out)


def _vertex_set(g: WeightedMultigraph, zone: Iterable[str]) -> set[int]:
    """Indices of a set of vertex names; a str is refused rather than split
    into its characters."""
    if isinstance(zone, str):
        raise DomainError(f"vertex set {zone!r} is a string, not a collection of names")
    return {g.vertex_index(v) for v in zone}


def _same_graph(g: WeightedMultigraph, *items) -> None:
    """Refuse a divisor or class whose graph is not g, by value, with a
    DomainError naming its kind; the one check of its sort in the package."""
    for x in items:
        if x.graph != g:
            raise DomainError(f"{type(x).__name__} lives on a different graph")


def genus(g: WeightedMultigraph) -> int:
    """First Betti number plus total vertex weight of a connected graph."""
    return g.genus


def valence(g: WeightedMultigraph, v: str) -> int:
    """Number of edge endpoints at v; a loop contributes 2."""
    return g._valence[g.vertex_index(v)]


def _stability(g: WeightedMultigraph, min_valence: int) -> StabilityVerdict:
    if g.genus < 2:
        return StabilityVerdict(value=False, applicable=False)
    ok = all(
        w > 0 or val >= min_valence for w, val in zip(g._weights, g._valence)
    )
    return StabilityVerdict(value=ok, applicable=True)


def is_semistable(g: WeightedMultigraph) -> StabilityVerdict:
    """Every weight-0 vertex has valence >= 2 (genus >= 2 required to apply)."""
    return _stability(g, 2)


def is_stable(g: WeightedMultigraph) -> StabilityVerdict:
    """Every weight-0 vertex has valence >= 3 (genus >= 2 required to apply)."""
    return _stability(g, 3)


def _two_edge_connected(g: WeightedMultigraph):
    """Bridges and 2-edge-connected components, by one low-link DFS over
    the neighbour rows.

    Returns the bridges as index pairs ``(i, j)`` in ``g._pairs`` order and
    each vertex's component, named after its lexicographically smallest
    member.  The rows leave loops out, since removing a loop never
    disconnects anything, and hold one entry per neighbour, so the DFS
    skips the neighbour it came from only when that pair has multiplicity
    1: a second parallel copy acts as a back edge.  Leaving v across a
    bridge, or leaving the root, closes v's component: v and the vertices
    found after it that no component has taken yet.
    """
    n = g._n
    rows = g._rows
    disc = [-1] * n
    low = [0] * n
    cut: set[tuple[int, int]] = set()
    component = [""] * n
    root = 0
    disc[root] = low[root] = 0
    pending = [root]  # found, in no closed component yet, in DFS order
    time = 1
    # vertex, the vertex it was found from, its row entries left, its place in pending
    stack = [(root, -1, iter(rows[root]), 0)]
    while stack:
        v, parent, rest, start = stack[-1]
        for w, m in rest:
            if w == parent and m == 1:
                continue  # the edge we entered on
            if disc[w] == -1:
                disc[w] = low[w] = time
                time += 1
                stack.append((w, v, iter(rows[w]), len(pending)))
                pending.append(w)
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                low[parent] = min(low[parent], low[v])
                if low[v] <= disc[parent]:
                    continue
                cut.add((min(parent, v), max(parent, v)))
            name = min(g._vertices[w] for w in pending[start:])
            for w in pending[start:]:
                component[w] = name
            del pending[start:]
    return [(i, j) for i, j, _ in g._pairs if (i, j) in cut], component


def bridges(g: WeightedMultigraph) -> tuple[tuple[str, str], ...]:
    """The bridges as ``(a, b)`` name pairs, in the order of the graph's
    vertex pairs (see :func:`_two_edge_connected`)."""
    names = g._vertices
    return tuple((names[i], names[j]) for i, j in _two_edge_connected(g)[0])


def contract_non_bridges(
    g: WeightedMultigraph,
) -> tuple[WeightedMultigraph, dict[str, str]]:
    """Contract every non-bridge edge, leaving the tree of 2-edge-connected components.

    Tree vertices are named after the lexicographically smallest member of
    their component; weights on the tree are set to 0 (nothing downstream
    reads them).
    """
    cut, component = _two_edge_connected(g)
    links = [(component[i], component[j]) for i, j in cut]
    tree = WeightedMultigraph(sorted(set(component)), {}, links)
    return tree, dict(zip(g._vertices, component))


def is_chain_of_2ec(g: WeightedMultigraph) -> bool:
    """True iff the bridge-contraction tree is a path: no 2-edge-connected
    component meets more than two bridges."""
    cut, component = _two_edge_connected(g)
    return max(Counter(component[v] for pair in cut for v in pair).values(), default=0) <= 2


def _fresh_name(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "x"
    used.add(name)
    return name


def bullet_model_size(g: WeightedMultigraph) -> tuple[int, int]:
    """Vertex and edge counts of :func:`bullet_model`'s model, without building it.

    Each unit of weight and each loop becomes one satellite joined to its
    vertex by two edges; the non-loop edges are kept.
    """
    satellites = sum(g._satellites)
    return g._n + satellites, g._edge_count - sum(g._loops) + 2 * satellites


def bullet_model(g: WeightedMultigraph, *, budget: int = DEFAULT_BUDGET) -> WeightedMultigraph:
    """Loopless, weightless model with the same genus.

    Each unit of vertex weight becomes a subdivided loop: a fresh degree-2
    satellite joined to the vertex by two parallel edges.  Pre-existing
    loops are subdivided the same way, so the result has no loops at all.
    The model's vertices are g's, in g's order, then the satellites; a
    satellite's row is ``((host, 2),)``.  A graph without weights or loops
    is its own model.  The model's vertex count is checked against the
    budget, under stage ``model``, before anything else.  The model is
    built once per graph instance, published by one store, and then
    reused, so the oracle's lattice data and key sets kept on it
    (``rank._lattice_data``) are too.
    """
    check_budget(bullet_model_size(g)[0], budget, "model")
    if not any(g._satellites):
        return g
    if g._model is not None:
        return g._model

    used = set(g._vertices)
    verts = list(g._vertices)
    edges = [(g._vertices[i], g._vertices[j], m) for i, j, m in g._pairs if i != j]
    for i, v in enumerate(g._vertices):
        tags = [f"l{j}" for j in range(g._loops[i])] + [f"w{t}" for t in range(g._weights[i])]
        for tag in tags:
            s = _fresh_name(f"{v}#{tag}", used)
            verts.append(s)
            edges.append((v, s, 2))
    g._model = WeightedMultigraph(verts, {}, edges)
    return g._model

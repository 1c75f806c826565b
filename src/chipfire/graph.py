"""Finite vertex-weighted multigraphs and their structural invariants.

Vertices are opaque strings; parallel edges and loops are allowed.  The
lexicographic order on vertex names is the canonical order used for every
deterministic tie-break in the package (base-vertex choices, component
naming, enumeration order).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, GraphError


class WeightedMultigraph:
    """Connected multigraph with nonnegative integer vertex weights.

    The edge multiset keeps one entry per parallel copy; an edge's identity
    is its index into :attr:`edges`.  A pair ``(v, v)`` is a loop.
    Instances are immutable after construction.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        weights: Mapping[str, int] | None = None,
        edges: Iterable[Sequence[str]] = (),
    ):
        verts = tuple(vertices)
        if not verts:
            raise GraphError("graph has no vertices")
        if len(set(verts)) != len(verts):
            raise GraphError("duplicate vertex identifier")
        index = {v: i for i, v in enumerate(verts)}

        weights = dict(weights or {})
        for v, w in weights.items():
            if v not in index:
                raise GraphError(f"weight given for unknown vertex {v!r}")
            try:
                w = weights[v] = operator.index(w)
            except TypeError:
                raise GraphError(f"weight {w!r} at vertex {v!r} is not an integer") from None
            if w < 0:
                raise GraphError(f"negative weight at vertex {v!r}")
        weight_list = tuple(weights.get(v, 0) for v in verts)

        edge_pairs = []
        for e in edges:
            a, b = e
            if a not in index:
                raise GraphError(f"edge endpoint {a!r} is not a declared vertex")
            if b not in index:
                raise GraphError(f"edge endpoint {b!r} is not a declared vertex")
            i, j = index[a], index[b]
            edge_pairs.append((i, j) if i <= j else (j, i))
        edge_pairs = tuple(edge_pairs)

        n = len(verts)
        mult = [[0] * n for _ in range(n)]
        loops = [0] * n
        for i, j in edge_pairs:
            if i == j:
                loops[i] += 1
            else:
                mult[i][j] += 1
                mult[j][i] += 1

        lex_indices = tuple(sorted(range(n), key=lambda i: verts[i]))
        lex_rank = [0] * n
        for r, i in enumerate(lex_indices):
            lex_rank[i] = r

        # neighbor rows sorted in canonical (lexicographic) order
        rows = []
        for i in range(n):
            row = [(j, mult[i][j]) for j in lex_indices if mult[i][j] > 0]
            rows.append(tuple(row))

        self._vertices = verts
        self._index = index
        self._weights = weight_list
        self._edges = edge_pairs
        self._n = n
        self._mult = mult
        self._loops = loops
        self._rows = rows
        self._lex_indices = lex_indices
        self._nonloop_pairs = tuple(
            (i, j, mult[i][j]) for i in range(n) for j in range(i + 1, n) if mult[i][j] > 0
        )
        self._valence = tuple(
            sum(mult[i][j] for j in range(n)) + 2 * loops[i] for i in range(n)
        )
        self._genus = len(edge_pairs) - n + 1 + sum(weight_list)

        if len(_bfs_order(self, [0])) != n:
            raise GraphError("graph is disconnected")

        self._key = (verts, weight_list, tuple(sorted(edge_pairs)))
        self._hash = hash(self._key)

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
        """Edge multiset, one entry per parallel copy."""
        return tuple((self._vertices[i], self._vertices[j]) for i, j in self._edges)

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
            f"{len(self._edges)} edges, genus {self._genus})"
        )


@dataclass(frozen=True)
class EdgeCut:
    """Classification of a graph's edge multiset into bridges and non-bridges."""

    graph: WeightedMultigraph
    bridge_indices: frozenset[int]

    def is_bridge(self, edge_index: int) -> bool:
        return edge_index in self.bridge_indices

    @property
    def bridges(self) -> tuple[tuple[str, str], ...]:
        edges = self.graph.edges
        return tuple(edges[i] for i in sorted(self.bridge_indices))

    @property
    def non_bridges(self) -> tuple[tuple[str, str], ...]:
        edges = self.graph.edges
        return tuple(e for i, e in enumerate(edges) if i not in self.bridge_indices)


@dataclass(frozen=True)
class StabilityVerdict:
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


def bridges(g: WeightedMultigraph) -> EdgeCut:
    """Exact bridge classification via low-link DFS.

    Parallel edges and loops are never bridges: a parallel copy acts as a
    back edge, and removing a loop never disconnects anything.
    """
    n = g._n
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ei, (i, j) in enumerate(g._edges):
        if i == j:
            continue  # loops never participate
        incident[i].append((j, ei))
        incident[j].append((i, ei))

    disc = [-1] * n
    low = [0] * n
    bridge_idx: set[int] = set()
    root = 0
    disc[root] = low[root] = 0
    time = 1
    stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # vertex, entry edge, next incident slot
    while stack:
        v, pe, slot = stack[-1]
        advanced = False
        while slot < len(incident[v]):
            w, ei = incident[v][slot]
            slot += 1
            if ei == pe:
                continue  # only the copy we entered on; other parallels are back edges
            if disc[w] == -1:
                disc[w] = low[w] = time
                time += 1
                stack[-1] = (v, pe, slot)
                stack.append((w, ei, 0))
                advanced = True
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        if advanced:
            continue
        stack.pop()
        if stack:
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] > disc[u]:
                bridge_idx.add(pe)
    return EdgeCut(graph=g, bridge_indices=frozenset(bridge_idx))


def contract_non_bridges(
    g: WeightedMultigraph,
) -> tuple[WeightedMultigraph, dict[str, str]]:
    """Contract every non-bridge edge, leaving the tree of 2-edge-connected components.

    Tree vertices are named after the lexicographically smallest member of
    their component; weights on the tree are set to 0 (nothing downstream
    reads them).
    """
    cut = bridges(g)
    n = g._n
    comp = [-1] * n
    comp_members: list[list[int]] = []
    for start in range(n):
        if comp[start] != -1:
            continue
        cid = len(comp_members)
        comp[start] = cid
        members = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            for ei, (i, j) in enumerate(g._edges):
                if ei in cut.bridge_indices or i == j:
                    continue
                if i == v and comp[j] == -1:
                    comp[j] = cid
                    members.append(j)
                    stack.append(j)
                elif j == v and comp[i] == -1:
                    comp[i] = cid
                    members.append(i)
                    stack.append(i)
        comp_members.append(members)

    names = [min(g._vertices[i] for i in members) for members in comp_members]
    tree_vertices = sorted(names)
    tree_edges = []
    for ei in sorted(cut.bridge_indices):
        i, j = g._edges[ei]
        tree_edges.append((names[comp[i]], names[comp[j]]))
    tree = WeightedMultigraph(tree_vertices, {}, tree_edges)
    vertex_map = {g._vertices[i]: names[comp[i]] for i in range(n)}
    return tree, vertex_map


def is_chain_of_2ec(g: WeightedMultigraph) -> bool:
    """True iff the bridge-contraction tree is a path (all valences <= 2)."""
    tree, _ = contract_non_bridges(g)
    return all(valence(tree, v) <= 2 for v in tree.vertices)


def _fresh_name(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "x"
    used.add(name)
    return name


def bullet_model(
    g: WeightedMultigraph,
) -> tuple[WeightedMultigraph, dict[str, str]]:
    """Loopless, weightless model with the same genus.

    Each unit of vertex weight becomes a subdivided loop: a fresh degree-2
    satellite joined to the vertex by two parallel edges.  Pre-existing
    loops are subdivided the same way, so the result has no loops at all.
    Returns the model and the (injective) embedding of original vertices.
    """
    if all(w == 0 for w in g._weights) and all(l == 0 for l in g._loops):
        return g, {v: v for v in g._vertices}

    used = set(g._vertices)
    verts = list(g._vertices)
    edges: list[tuple[str, str]] = [
        (g._vertices[i], g._vertices[j]) for i, j in g._edges if i != j
    ]
    for i, v in enumerate(g._vertices):
        for j in range(g._loops[i]):
            s = _fresh_name(f"{v}#l{j}", used)
            verts.append(s)
            edges.append((v, s))
            edges.append((v, s))
        for t in range(g._weights[i]):
            s = _fresh_name(f"{v}#w{t}", used)
            verts.append(s)
            edges.append((v, s))
            edges.append((v, s))
    gb = WeightedMultigraph(verts, {}, edges)
    return gb, {v: v for v in g._vertices}

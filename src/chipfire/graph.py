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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, GraphError


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
    a pair next to each other at the pair's first appearance; an edge's
    identity is its index into that view.  Instances are immutable after
    construction.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        weights: Mapping[str, int] | None = None,
        edges: Iterable[Sequence] = (),
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
        self._rows = rows
        self._lex_indices = lex_indices
        self._valence = tuple(sum(m for _, m in row) + 2 * l for row, l in zip(rows, loops))
        self._edge_count = sum(m for _, _, m in pairs)
        self._genus = self._edge_count - n + 1 + sum(weight_list)

        if len(_bfs_order(self, [0])) != n:
            raise GraphError("graph is disconnected")

        self._key = (verts, weight_list, tuple(sorted(pairs)))
        self._hash = hash(self._key)
        # per-instance memos: the loopless weightless model (see bullet_model),
        # reduction's single-source BFS orders and reduced forms, and the
        # oracle's lattice data and key sets (kept apart from the reduced forms)
        self._model: WeightedMultigraph | None = None
        self._bfs: dict[int, tuple[int, ...]] = {}
        self._reduced: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
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


@dataclass(frozen=True)
class EdgeCut:
    """Classification of a graph's edge multiset into bridges and non-bridges."""

    graph: WeightedMultigraph
    bridge_indices: frozenset[int]

    def is_bridge(self, edge_index: int) -> bool:
        return edge_index in self.bridge_indices

    @property
    def bridges(self) -> tuple[tuple[str, str], ...]:
        names = self.graph._vertices
        return tuple(
            (names[i], names[j])
            for at, i, j, _ in _pair_offsets(self.graph)
            if at in self.bridge_indices
        )

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


def _pair_offsets(g: WeightedMultigraph):
    """(index of the pair's first copy in ``g.edges``, i, j, multiplicity) per pair."""
    at = 0
    for i, j, m in g._pairs:
        yield at, i, j, m
        at += m


def bridges(g: WeightedMultigraph) -> EdgeCut:
    """Exact bridge classification via low-link DFS over vertex pairs.

    Only a pair of multiplicity 1 can be a bridge: a second parallel copy
    acts as a back edge, and removing a loop never disconnects anything.
    """
    n = g._n
    incident: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for at, i, j, m in _pair_offsets(g):
        if i == j:
            continue  # loops never participate
        incident[i].append((j, at, m))
        incident[j].append((i, at, m))

    disc = [-1] * n
    low = [0] * n
    bridge_idx: set[int] = set()
    root = 0
    disc[root] = low[root] = 0
    time = 1
    stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # vertex, entry pair, next incident slot
    while stack:
        v, pe, slot = stack[-1]
        advanced = False
        while slot < len(incident[v]):
            w, at, m = incident[v][slot]
            slot += 1
            if at == pe and m == 1:
                continue  # the edge we entered on; a parallel copy is a back edge
            if disc[w] == -1:
                disc[w] = low[w] = time
                time += 1
                stack[-1] = (v, pe, slot)
                stack.append((w, at, 0))
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
    inside: list[list[int]] = [[] for _ in range(n)]
    bridge_pairs = []
    for at, i, j, _ in _pair_offsets(g):
        if at in cut.bridge_indices:
            bridge_pairs.append((i, j))
        elif i != j:
            inside[i].append(j)
            inside[j].append(i)

    comp = [-1] * n
    names: list[str] = []
    for start in range(n):
        if comp[start] != -1:
            continue
        cid = len(names)
        comp[start] = cid
        name = g._vertices[start]
        stack = [start]
        while stack:
            for w in inside[stack.pop()]:
                if comp[w] == -1:
                    comp[w] = cid
                    name = min(name, g._vertices[w])
                    stack.append(w)
        names.append(name)

    links = [(names[comp[i]], names[comp[j]]) for i, j in bridge_pairs]
    tree = WeightedMultigraph(sorted(names), {}, links)
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
    The model is built once per graph instance and then reused, so its
    reduce cache stays warm from call to call.
    """
    embed = {v: v for v in g._vertices}
    if all(w == 0 for w in g._weights) and all(l == 0 for l in g._loops):
        return g, embed
    if g._model is not None:
        return g._model, embed

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
    return g._model, embed

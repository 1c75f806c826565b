"""Bridges and 2-edge-connected components against networkx.

``graph._two_edge_connected`` finds the bridges and the components in one
low-link DFS; ``bridges``, ``contract_non_bridges`` and ``is_chain_of_2ec``
all read it.  networkx finds the bridges by chain decomposition instead,
and the components are what is left connected once they are removed.
"""

import random

import pytest

from chipfire import WeightedMultigraph, bridges, contract_non_bridges, is_chain_of_2ec

nx = pytest.importorskip("networkx")


def random_multigraph(rng):
    """A connected multigraph on up to 9 vertices, declared in an order
    other than the names' own: a random tree, so there are bridges, plus a
    few extra edges, loops and parallel copies among them."""
    n = rng.randint(1, 9)
    verts = rng.sample([f"{c}{i}" for i, c in enumerate("qwertyuio")], n)
    edges = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n)]
    for _ in range(rng.randint(0, n)):
        a, b = rng.choice(verts), rng.choice(verts)
        edges.append((a, b, rng.randint(1, 2)) if rng.random() < 0.5 else (a, b))
    rng.shuffle(edges)
    return WeightedMultigraph(verts, {}, edges)


def networkx_view(g):
    """(bridges as vertex-name sets, components as frozensets) by networkx."""
    h = nx.MultiGraph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    cut = {frozenset(e) for e in nx.bridges(h)}
    rest = nx.MultiGraph(h)
    rest.remove_edges_from([tuple(e) for e in cut])
    return cut, {frozenset(c) for c in nx.connected_components(rest)}


@pytest.mark.parametrize("seed", range(3))
def test_two_edge_connected_structure_matches_networkx(seed):
    rng = random.Random(seed)
    for _ in range(100):
        g = random_multigraph(rng)
        cut, components = networkx_view(g)

        assert {frozenset(e) for e in bridges(g)} == cut
        assert len(bridges(g)) == len(cut)
        assert bridges(g) == tuple(e for e in dict.fromkeys(g.edges) if frozenset(e) in cut)

        tree, vertex_map = contract_non_bridges(g)
        blocks = {}
        for v, name in vertex_map.items():
            blocks.setdefault(name, set()).add(v)
        assert {frozenset(b) for b in blocks.values()} == components
        assert all(name == min(b) for name, b in blocks.items())
        assert tree.vertices == tuple(sorted(blocks))
        assert sorted(map(sorted, tree.edges)) == sorted(
            sorted(vertex_map[v] for v in e) for e in cut
        )

        meets = {c: sum(len(e & c) for e in cut) for c in components}
        assert is_chain_of_2ec(g) == all(m <= 2 for m in meets.values())

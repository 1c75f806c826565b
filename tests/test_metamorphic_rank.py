"""Rank under two moves that leave it unchanged, so that small graphs
checked against ``rank_oracle`` vouch for long, sparse ones.

- Subdivision: subdividing every edge of G k times scales its metric graph
  by k + 1, and for a divisor on V(G) the rank on G is the rank on the
  metric graph (Hladký–Kráľ–Norine 2013), which scaling does not change.
  On a weighted or looped graph only the non-loop edges are subdivided,
  with weight-0 vertices.
- Pendant trees: a chip on a tree vertex attached by a bridge is
  equivalent to one at the vertex it hangs from, so the effective classes,
  and with them the rank of a divisor on V(G), do not change.

Each pair compares the rank and the method of ``rank(..., shortcuts=False)``;
the witness lives on another graph.

Above 2g - 2 Riemann-Roch gives the rank without a scan: the residual has
negative degree, so rank = deg - g.  Chains of cycles, theta graphs and
K5 subdivided once are checked against it there, with the scan still
deciding by the definition, where the oracle cannot reach.
"""

import random

import pytest

from chipfire import Divisor, WeightedMultigraph, rank, rank_oracle
from chipfire.rank import METHOD_DEFINITION
from helpers import random_connected_graph


def subdivided(g: WeightedMultigraph, k: int) -> WeightedMultigraph:
    """g with every non-loop edge copy replaced by a path through k new
    weight-0 vertices; loops and weights stay where they are."""
    verts = list(g.vertices)
    edges = []
    for e, (a, b) in enumerate(g.edges):
        if a == b:
            edges.append((a, b))
            continue
        path = [a, *(f"s{e}_{t}" for t in range(k)), b]
        verts += path[1:-1]
        edges += zip(path, path[1:])
    return WeightedMultigraph(verts, g.weights, edges)


def with_pendant_leaves(rng: random.Random, g: WeightedMultigraph, leaves: int) -> WeightedMultigraph:
    """g with weight-0 leaves hung by bridges, each from a vertex of g or an
    earlier leaf, so they form pendant trees."""
    verts = list(g.vertices)
    edges = list(g.edges)
    for t in range(leaves):
        leaf = f"p{t}"
        edges.append((rng.choice(verts), leaf))
        verts.append(leaf)
    return WeightedMultigraph(verts, g.weights, edges)


def carried(d: Divisor, h: WeightedMultigraph) -> Divisor:
    """d on a graph h that contains d's graph, 0 at the new vertices."""
    return Divisor(h, d.as_dict())


def report(g: WeightedMultigraph, d: Divisor):
    r = rank(g, d, shortcuts=False)
    return r.rank, r.method


def checked_cases(seed: int, count: int):
    """Random weighted, looped graphs on up to 5 vertices, each with a
    divisor whose rank ``rank`` and ``rank_oracle`` agree on.  Degrees run
    from -1 to 2g - 2 (to 1 below genus 2), past which the oracle's key
    sets make it the bulk of the file's time."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_connected_graph(rng, max_vertices=5)
        deg = rng.randint(-1, max(1, 2 * g.genus - 2))
        vals = [0] * len(g.vertices)
        for _ in range(deg + 2):
            vals[rng.randrange(len(vals))] += 1
        vals[rng.randrange(len(vals))] -= 2
        d = Divisor(g, vals)
        expected = report(g, d)
        assert expected[0] == rank_oracle(g, d)
        yield rng, g, d, expected


@pytest.mark.parametrize("seed", range(4))
def test_subdivision_keeps_the_rank(seed):
    for rng, g, d, expected in checked_cases(seed, 100):
        h = subdivided(g, rng.randint(1, 2))
        assert report(h, carried(d, h)) == expected


@pytest.mark.parametrize("seed", range(3))
def test_pendant_trees_keep_the_rank(seed):
    for rng, g, d, expected in checked_cases(100 + seed, 100):
        h = with_pendant_leaves(rng, g, rng.randint(1, 4))
        assert report(h, carried(d, h)) == expected


K4 = WeightedMultigraph(
    ["a", "b", "c", "d"], {}, [(x, y) for i, x in enumerate("abcd") for y in "abcd"[i + 1 :]]
)


def k4_divisors():
    """Three divisors at each degree 0 to 4 on K4's vertices."""
    rng = random.Random(4)
    for deg in range(5):
        for _ in range(3):
            vals = [0] * 4
            for _ in range(deg):
                vals[rng.randrange(4)] += 1
            yield Divisor(K4, vals)


@pytest.mark.parametrize("k", [2, 5, 10, 20])
def test_subdivided_k4_keeps_the_rank(k):
    h = subdivided(K4, k)
    assert len(h.vertices) == 4 + 6 * k
    for d in k4_divisors():
        expected = report(K4, d)
        assert expected[0] == rank_oracle(K4, d)
        assert report(h, carried(d, h)) == expected


def cycle_chain(k: int, n: int) -> WeightedMultigraph:
    """k n-cycles, each joined to the next by a bridge."""
    verts, edges = [], []
    for c in range(k):
        ring = [f"c{c}_{i}" for i in range(n)]
        verts += ring
        edges += zip(ring, ring[1:] + ring[:1])
        if c:
            edges.append((f"c{c - 1}_{n // 2}", ring[0]))
    return WeightedMultigraph(verts, {}, edges)


def theta_graph(paths: int, inner: int) -> WeightedMultigraph:
    """Two hubs joined by ``paths`` paths of ``inner`` inner vertices each."""
    verts, edges = ["h0", "h1"], []
    for p in range(paths):
        path = ["h0", *(f"t{p}_{i}" for i in range(inner)), "h1"]
        verts += path[1:-1]
        edges += zip(path, path[1:])
    return WeightedMultigraph(verts, {}, edges)


def signed_divisor(rng: random.Random, g: WeightedMultigraph, names, deg: int) -> Divisor:
    """Chips in [-1, 1] on the named vertices, then piled on one of them up
    to the degree."""
    vals = {v: rng.randint(-1, 1) for v in names}
    vals[rng.choice(names)] += deg - sum(vals.values())
    return Divisor(g, vals)


# graph, and how far above 2g - 2 it is ranked; the 5-cycles stop at 2g,
# since 2g + 1 alone takes about 1.5 s there
ABOVE_CANONICAL = {
    "3 4-cycles": (cycle_chain(3, 4), (1, 2, 3)),
    "4 5-cycles": (cycle_chain(4, 5), (1, 2)),
    "theta 3x3": (theta_graph(3, 3), (1, 2, 3)),
    "theta 4x4": (theta_graph(4, 4), (1, 2, 3)),
}


@pytest.mark.parametrize("name", ABOVE_CANONICAL)
def test_above_the_canonical_degree_the_rank_is_degree_minus_genus(name):
    g, offsets = ABOVE_CANONICAL[name]
    rng = random.Random(name)
    for off in offsets:
        deg = 2 * g.genus - 2 + off
        d = signed_divisor(rng, g, g.vertices, deg)
        assert report(g, d) == (deg - g.genus, METHOD_DEFINITION), d


K5 = WeightedMultigraph(
    list("abcde"), {}, [(x, y) for i, x in enumerate("abcde") for y in "abcde"[i + 1 :]]
)


def test_subdivided_k5_above_the_canonical_degree():
    h = subdivided(K5, 1)
    rng = random.Random(5)
    for deg in range(2 * K5.genus - 1, 2 * K5.genus + 2):
        d = signed_divisor(rng, K5, K5.vertices, deg)
        expected = report(K5, d)
        assert expected == (deg - K5.genus, METHOD_DEFINITION)
        assert report(h, carried(d, h)) == expected

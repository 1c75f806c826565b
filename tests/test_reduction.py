import random

import pytest

from chipfire import (
    Divisor,
    DomainError,
    GraphError,
    InternalError,
    WeightedMultigraph,
    balance_bounds,
    dhar,
    effectivize,
    equivalent,
    is_reduced,
    reduce_to,
    reduce_to_set,
    t_set,
)
from chipfire.graph import _bfs_order
from chipfire.reduction import _make_effective_off, _superstabilize
from helpers import (
    GRAPHS,
    brute_equivalent,
    brute_is_reduced,
    golden_graph,
    random_connected_graph,
    random_divisor,
    random_principal_shift,
    rational_firing,
    reference_superstabilize,
    spy,
)


@pytest.fixture
def g():
    return golden_graph()


class TestDhar:
    def test_everything_survives_with_huge_chips(self, g):
        d = Divisor(g, [0, 100, 100])
        res = dhar(g, d, ["v1"])
        assert res.dhar_set == {"v2", "v3"}
        assert res.fixed_set == {"v1"}
        assert res.chain == (frozenset({"v1"}),)

    def test_everything_burns_on_zero(self, g):
        res = dhar(g, Divisor.zero(g), ["v1"])
        assert res.dhar_set == frozenset()
        assert res.fixed_set == {"v1", "v2", "v3"}

    def test_golden_trace(self, g):
        res = dhar(g, Divisor(g, [-7, 1, 0]), ["v1"])
        assert res.dhar_set == frozenset()
        assert res.chain == (
            frozenset({"v1"}),
            frozenset({"v1", "v2"}),
            frozenset({"v1", "v2", "v3"}),
        )

    def test_rejects_negative_outside_seed(self, g):
        with pytest.raises(DomainError):
            dhar(g, Divisor(g, [0, -1, 0]), ["v1"])

    def test_rejects_empty_seed(self, g):
        with pytest.raises(DomainError):
            dhar(g, Divisor.zero(g), [])

    def test_firing_fixed_set_stays_effective_off_seed(self):
        rng = random.Random(23)
        for _ in range(40):
            graph = random_connected_graph(rng, max_vertices=5)
            seed = [graph.vertices[rng.randrange(len(graph.vertices))]]
            d = Divisor(
                graph,
                [
                    rng.randint(-3, 3) if v in seed else rng.randint(0, 3)
                    for v in graph.vertices
                ],
            )
            res = dhar(graph, d, seed)
            after = d - t_set(graph, res.fixed_set)
            assert all(after.value(v) >= 0 for v in graph.vertices if v not in seed)

    def test_chain_strictly_increases(self):
        rng = random.Random(5)
        for _ in range(30):
            graph = random_connected_graph(rng, max_vertices=5)
            seed = [graph.base_vertex()]
            d = Divisor(graph, [rng.randint(0, 2) for _ in graph.vertices])
            res = dhar(graph, d, seed)
            chain = res.chain
            assert chain[0] == frozenset(seed)
            for a, b in zip(chain, chain[1:]):
                assert a < b
            assert chain[-1] == res.fixed_set


class TestIsReduced:
    def test_zero_divisor_reduced_everywhere(self, g):
        for v in g.vertices:
            assert is_reduced(g, Divisor.zero(g), [v])

    def test_single_vertex_witness(self, g):
        # v2 holds at least its outward valence, so A = {v2} blocks burning
        d = Divisor(g, [0, 4, 0])
        assert not is_reduced(g, d, ["v1"])

    def test_golden_example(self, g):
        assert is_reduced(g, Divisor(g, [-2, 1, 0]), ["v1"])

    def test_negative_outside_set_is_not_reduced(self, g):
        assert not is_reduced(g, Divisor(g, [0, -1, 0]), ["v1"])

    def test_matches_subset_definition(self):
        rng = random.Random(17)
        for _ in range(60):
            graph = random_connected_graph(rng, max_vertices=5)
            names = list(graph.vertices)
            zone = rng.sample(names, rng.randint(1, len(names)))
            d = Divisor(graph, [rng.randint(-2, 4) for _ in names])
            assert is_reduced(graph, d, zone) == brute_is_reduced(graph, d, zone)


class TestReduceTo:
    def test_golden_canonical_form(self, g):
        out1 = reduce_to(g, Divisor(g, [0, 3, 2]), "v1")
        out2 = reduce_to(g, Divisor(g, [3, 2, 0]), "v1")
        assert out1.values == out2.values == (3, 2, 0)
        # independent confirmation: subset definition and bounded firing search
        assert brute_is_reduced(g, out1, ["v1"])
        assert brute_equivalent(g, out1, Divisor(g, [0, 3, 2]))

    def test_idempotent(self, g):
        rng = random.Random(2)
        for _ in range(20):
            d = random_divisor(rng, g)
            once = reduce_to(g, d, "v1")
            assert reduce_to(g, once, "v1") == once

    def test_fixed_point_when_already_reduced(self, g):
        d = Divisor(g, [3, 2, 0])
        assert reduce_to(g, d, "v1") == d

    def test_class_invariance(self):
        rng = random.Random(31)
        for _ in range(50):
            graph = random_connected_graph(rng, max_vertices=6)
            u = graph.base_vertex()
            d = random_divisor(rng, graph)
            shifted = d + random_principal_shift(rng, graph)
            assert reduce_to(graph, d, u) == reduce_to(graph, shifted, u)

    def test_output_is_reduced(self):
        rng = random.Random(13)
        for _ in range(40):
            graph = random_connected_graph(rng, max_vertices=5)
            u = graph.vertices[rng.randrange(len(graph.vertices))]
            d = random_divisor(rng, graph)
            out = reduce_to(graph, d, u)
            assert is_reduced(graph, out, [u])
            assert all(out.value(v) >= 0 for v in graph.vertices if v != u)

    def test_distant_chips_on_path(self):
        # a path with chips far from the base exercises many firing rounds
        g = WeightedMultigraph(
            ["a", "b", "c", "d"], {}, [("a", "b"), ("b", "c"), ("c", "d")]
        )
        out = reduce_to(g, Divisor(g, [0, 0, 0, 500]), "a")
        assert out.values == (500, 0, 0, 0)


class TestReduceToSet:
    def test_full_set_unchanged(self, g):
        d = Divisor(g, [-5, 2, 1])
        assert reduce_to_set(g, d, g.vertices) == d

    def test_singleton_matches_reduce_to(self, g):
        rng = random.Random(41)
        for _ in range(20):
            d = random_divisor(rng, g)
            assert reduce_to_set(g, d, ["v2"]) == reduce_to(g, d, "v2")

    def test_output_is_reduced_and_equivalent(self):
        rng = random.Random(43)
        for _ in range(40):
            graph = random_connected_graph(rng, max_vertices=5)
            names = list(graph.vertices)
            zone = rng.sample(names, rng.randint(1, len(names)))
            d = random_divisor(rng, graph)
            out = reduce_to_set(graph, d, zone)
            assert is_reduced(graph, out, zone)
            assert equivalent(graph, out, d)


def contract(graph: WeightedMultigraph, zone: set[str]) -> WeightedMultigraph:
    """graph / zone: the zone merged into one vertex, named "*", declared
    first; edges inside the zone are dropped, since loops move no chips."""
    merged = {v: "*" if v in zone else v for v in graph.vertices}
    rest = [v for v in graph.vertices if v not in zone]
    edges = [(merged[a], merged[b]) for a, b in graph.edges if merged[a] != merged[b]]
    return WeightedMultigraph(["*", *rest], {}, edges)


def block_firing(rng: random.Random, graph: WeightedMultigraph, zone: set[str]) -> Divisor:
    """A random sum of firings of sets that hold all of the zone or none of it."""
    out = Divisor.zero(graph)
    rest = [v for v in graph.vertices if v not in zone]
    for _ in range(rng.randint(1, 4)):
        part = rng.sample(rest, rng.randint(0, len(rest) - 1))
        fired = [*zone, *part] if rng.random() < 0.5 else part or rest[:1]
        out = out + rng.choice([1, 2, -1]) * t_set(graph, fired)
    return out


class TestReduceToSetIsCanonical:
    """Every firing of the reduction holds all of the set or none of it, so
    the output is the reduced form at the merged vertex of graph / set,
    lifted back along the same firing script."""

    @staticmethod
    def draw(rng):
        graph = random_connected_graph(rng, max_vertices=7, max_extra_edges=5)
        while len(graph.vertices) < 3:
            graph = random_connected_graph(rng, max_vertices=7, max_extra_edges=5)
        zone = set(rng.sample(graph.vertices, rng.randint(2, len(graph.vertices) - 1)))
        return graph, zone, random_divisor(rng, graph)

    def test_matches_reduce_to_on_the_contraction(self):
        rng = random.Random(2406)
        for _ in range(400):
            graph, zone, d = self.draw(rng)
            small = contract(graph, zone)
            by_name = d.as_dict()
            vals = [sum(by_name[v] for v in zone)] + [by_name[v] for v in small.vertices[1:]]
            reduced = reduce_to(small, Divisor(small, vals), "*")
            script = rational_firing(small, [x - y for x, y in zip(vals, reduced.values)])
            assert all(x.denominator == 1 for x in script)
            at = {v: int(script[small.vertex_index("*" if v in zone else v)]) for v in graph.vertices}
            lifted = dict(by_name)
            for a, b in graph.edges:
                lifted[a] -= at[a] - at[b]
                lifted[b] -= at[b] - at[a]
            assert reduce_to_set(graph, d, sorted(zone)).as_dict() == lifted

    def test_block_firings_do_not_move_it(self):
        rng = random.Random(3987)
        for _ in range(300):
            graph, zone, d = self.draw(rng)
            moved = d + block_firing(rng, graph, zone)
            assert reduce_to_set(graph, moved, zone) == reduce_to_set(graph, d, zone)


class TestVertexSetIsNotAString:
    """A str names one vertex, and here its characters name vertices too:
    each call refuses it rather than split it."""

    G = WeightedMultigraph(["a", "b", "ab"], {}, [("a", "b", 2), ("b", "ab"), ("ab", "a")])
    D = Divisor(G, [1, 1, 0])

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, d, zone: reduce_to_set(g, d, zone),
            lambda g, d, zone: t_set(g, zone),
            lambda g, d, zone: dhar(g, d, zone),
            lambda g, d, zone: is_reduced(g, d, zone),
            lambda g, d, zone: balance_bounds(g, d.degree, zone),
        ],
        ids=["reduce_to_set", "t_set", "dhar", "is_reduced", "balance_bounds"],
    )
    def test_refused(self, call):
        with pytest.raises(DomainError, match="'ab' is a string"):
            call(self.G, self.D, "ab")
        call(self.G, self.D, ["ab"])

    def test_reduce_to_set_of_the_one_vertex(self):
        assert reduce_to_set(self.G, self.D, ["ab"]).values == (0, 0, 2)

    def test_constructor_refuses_a_string_of_names(self):
        with pytest.raises(GraphError, match="'ab' is a string"):
            WeightedMultigraph("ab", {}, [("a", "b")])


class TestSuperstabilize:
    """Phase 2 fires the unburnt set along the burn's cut; the test-only
    reference fires the whole set by its maximal multiple, round for round."""

    @pytest.fixture
    def burns(self, monkeypatch):
        """One entry per call of ``reduction._burn``."""
        return spy(monkeypatch, "chipfire.reduction._burn")

    @pytest.mark.parametrize("chips", ["signed_after_phase_1", "nonnegative_to_1e6"])
    def test_matches_whole_set_firing(self, chips, burns):
        rng = random.Random(chips)
        for _ in range(125):
            graph = random_connected_graph(
                rng, max_vertices=8, max_extra_edges=8, max_genus=12, max_model_vertices=30
            )
            n = len(graph.vertices)
            seeds = sorted(rng.sample(range(n), rng.choice([1, 1, rng.randint(1, n)])))
            if chips == "signed_after_phase_1":
                vals = [rng.randint(-6, 6) for _ in range(n)]
                _make_effective_off(graph, vals, _bfs_order(graph, seeds), len(seeds))
            else:
                # uniform chips up to 10^6 on every vertex can take close to
                # a million rounds on a 6-vertex graph (phase 2 is
                # pseudo-polynomial), so each divisor draws its scale
                top = 10 ** rng.randint(0, 6)
                vals = [rng.randint(0, top) for _ in range(n)]
            expected = list(vals)
            expected_burns = reference_superstabilize(graph, expected, seeds)
            burns.clear()
            _superstabilize(graph, vals, seeds)
            assert vals == expected
            assert len(burns) == expected_burns

    @pytest.mark.parametrize("draw", [0, 1])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_matches_whole_set_firing_on_long_sparse_graphs(self, name, draw, burns):
        """Cycles, theta graphs and ladders of 16-24 vertices, with signed
        chips after phase 1 at a drawn base: up to a few thousand rounds."""
        graph = GRAPHS[name]
        rng = random.Random(f"{name}/{draw}")
        n = len(graph.vertices)
        seeds = [rng.randrange(n)]
        vals = [rng.randint(-2, 2) for _ in range(n)]
        _make_effective_off(graph, vals, _bfs_order(graph, seeds), 1)
        expected = list(vals)
        expected_burns = reference_superstabilize(graph, expected, seeds)
        _superstabilize(graph, vals, seeds)
        assert vals == expected
        assert len(burns) == expected_burns

    def test_empty_cut_with_unburnt_vertices_is_an_internal_error(self, monkeypatch):
        graph = golden_graph()
        monkeypatch.setattr(
            "chipfire.reduction._burn", lambda g, vals, seed: ([1, 0, 0], [])
        )
        with pytest.raises(InternalError, match="empty cut"):
            _superstabilize(graph, [0, 5, 5], [0])

    def test_slow_phase_2_example(self, burns):
        """Effective chips, so phase 1 does nothing, yet phase 2 runs 1,499
        burns: the round count is pseudo-polynomial in the chips."""
        names = [f"v{i}" for i in range(6)]
        pairs = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"),
                 ("v5", "v2"), ("v5", "v4")]
        graph = WeightedMultigraph(names, {}, pairs)
        chips = [198768, 957418, 428490, 838204, 80733, 679200]
        out = reduce_to(graph, Divisor(graph, chips), "v5")
        assert out.values == (0, 0, 0, 0, 0, 3182813)
        assert len(burns) == 1499
        expected = list(chips)
        assert reference_superstabilize(graph, expected, [5]) == 1499
        assert tuple(expected) == out.values


class TestEffectivize:
    def test_effective_unchanged(self, g):
        d = Divisor(g, [1, 0, 2])
        assert effectivize(g, d) == d

    def test_negative_degree(self, g):
        assert effectivize(g, Divisor(g, [-1, 0, 0])) is None

    def test_golden_residual_case(self, g):
        d = Divisor(g, [1, 5, -1])
        out = effectivize(g, d)
        assert out is not None
        assert out.is_effective
        assert equivalent(g, out, d)

    def test_non_effective_class_detected(self, g):
        # degree 0 but not principal
        assert effectivize(g, Divisor(g, [1, -1, 0])) is None

    def test_random_suite(self):
        rng = random.Random(59)
        for _ in range(60):
            graph = random_connected_graph(rng, max_vertices=5)
            base = Divisor(graph, [rng.randint(0, 3) for _ in graph.vertices])
            d = base + random_principal_shift(rng, graph)
            out = effectivize(graph, d)
            assert out is not None
            assert out.is_effective
            assert equivalent(graph, out, base)

import random

import pytest

from chipfire import (
    Divisor,
    DomainError,
    InternalError,
    WeightedMultigraph,
    dhar,
    effectivize,
    equivalent,
    is_reduced,
    reduce_to,
    reduce_to_set,
    t_set,
)
from chipfire.graph import _bfs_order
from chipfire.reduction import _burn, _make_effective_off, _superstabilize
from helpers import (
    brute_equivalent,
    brute_is_reduced,
    golden_graph,
    random_connected_graph,
    random_divisor,
    random_principal_shift,
    reference_superstabilize,
)
from test_sparse_reduction import GRAPHS


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


class TestSuperstabilize:
    """Phase 2 fires the unburnt set along the burn's cut; the test-only
    reference fires the whole set by its maximal multiple, round for round."""

    @pytest.fixture
    def burns(self, monkeypatch):
        """One entry per call of ``reduction._burn``."""
        calls = []
        monkeypatch.setattr(
            "chipfire.reduction._burn", lambda *args, **kw: calls.append(1) or _burn(*args, **kw)
        )
        return calls

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

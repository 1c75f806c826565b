import random
from itertools import combinations

import pytest

from chipfire import (
    BudgetExceededError,
    Divisor,
    DomainError,
    WeightedMultigraph,
    canonical_divisor,
    clifford_check,
    equivalent,
    genus,
    rank,
    rank_lower_bound_edeg,
    rank_oracle,
    riemann_roch_check,
)
from chipfire.enumeration import compositions
from chipfire.rank import METHOD_DEFINITION, METHOD_SHORTCUT
from helpers import (
    golden_graph,
    random_connected_graph,
    random_divisor,
    random_principal_shift,
)


@pytest.fixture
def g():
    return golden_graph()


def small_weightless_graphs(max_vertices=3, max_edges=5):
    names = ["a", "b", "c"]
    yield WeightedMultigraph(["a"], {}, [])
    for n in range(2, max_vertices + 1):
        verts = names[:n]
        pairs = list(combinations(range(n), 2))
        for total in range(n - 1, max_edges + 1):
            for mults in compositions(total, len(pairs)):
                edges = []
                for (i, j), m in zip(pairs, mults):
                    edges += [(verts[i], verts[j])] * m
                try:
                    yield WeightedMultigraph(verts, {}, edges)
                except ValueError:
                    continue


class TestRankValues:
    def test_zero_divisor(self, g):
        assert rank(g, Divisor.zero(g)).rank == 0

    def test_negative_degree(self, g):
        report = rank(g, Divisor(g, [-1, 0, 0]))
        assert report.rank == -1
        assert report.method == METHOD_SHORTCUT

    def test_golden_canonical(self, g):
        report = rank(g, canonical_divisor(g))
        assert report.rank == 5
        assert report.method == METHOD_DEFINITION

    def test_golden_class(self, g):
        d = Divisor(g, [0, 3, 2])
        assert rank(g, d).rank == 2
        assert rank_oracle(g, d) == 2

    def test_high_degree_shortcut(self, g):
        d = Divisor(g, [5, 4, 2])  # degree 11 > 2g-2 = 10
        report = rank(g, d)
        assert report.rank == 11 - 6
        assert report.method == METHOD_SHORTCUT
        assert rank(g, d, shortcuts=False).rank == 5

    def test_witness_has_degree_rank_plus_one_and_fails(self, g):
        d = Divisor(g, [0, 3, 2])
        report = rank(g, d)
        w = report.witness
        assert w is not None
        assert w.degree == report.rank + 1
        assert w.is_effective
        # the class minus the witness must not be effective on the scan model
        gb = w.graph
        by_name = d.as_dict()
        lifted = Divisor(gb, {v: by_name.get(v, 0) for v in gb.vertices})
        assert rank(gb, lifted - w).rank == -1

    def test_class_invariance(self, g):
        rng = random.Random(4)
        d = Divisor(g, [0, 3, 2])
        base = rank(g, d).rank
        for _ in range(5):
            shifted = d + random_principal_shift(rng, g)
            assert rank(g, shifted).rank == base


class TestRegimeLaws:
    def test_below_zero(self):
        rng = random.Random(100)
        for _ in range(10):
            graph = random_connected_graph(rng, max_vertices=4)
            d = random_divisor(rng, graph, lo=-3, hi=0)
            if d.degree >= 0:
                continue
            assert rank(graph, d, shortcuts=False).rank == -1

    def test_above_two_g_minus_two(self):
        rng = random.Random(101)
        for _ in range(10):
            graph = random_connected_graph(rng, max_vertices=4, max_genus=3)
            deg = 2 * genus(graph) - 1
            d = random_divisor(rng, graph, lo=0, hi=2)
            d = Divisor(
                graph,
                [d.values[0] + deg - d.degree] + list(d.values[1:]),
            )
            assert rank(graph, d, shortcuts=False).rank == deg - genus(graph)

    def test_degree_zero_equality_iff_principal(self, g):
        assert rank(g, Divisor.zero(g), shortcuts=False).rank == 0
        nonprincipal = Divisor(g, [1, -1, 0])
        assert rank(g, nonprincipal, shortcuts=False).rank == -1

    def test_degree_two_g_minus_two_equality_iff_canonical(self, g):
        k = canonical_divisor(g)
        assert rank(g, k, shortcuts=False).rank == genus(g) - 1
        other = k + Divisor(g, [1, -1, 0])
        assert not equivalent(g, other, k)
        assert rank(g, other, shortcuts=False).rank <= genus(g) - 2


class TestOracleAgreement:
    def test_exhaustive_small_sweep(self):
        for graph in small_weightless_graphs():
            u = graph.base_vertex()
            n = len(graph.vertices)
            for degree in range(-1, 4):
                for combo in compositions(degree + n, n):
                    d = Divisor(graph, [c - 1 for c in combo])
                    assert rank(graph, d).rank == rank_oracle(graph, d)

    def test_weighted_spot_checks(self):
        rng = random.Random(103)
        for _ in range(15):
            graph = random_connected_graph(rng, max_vertices=4, max_genus=4)
            d = random_divisor(rng, graph, lo=-2, hi=3)
            assert rank(graph, d).rank == rank_oracle(graph, d)

    def test_superadditivity(self):
        rng = random.Random(104)
        for _ in range(15):
            graph = random_connected_graph(rng, max_vertices=4, max_genus=3)
            d1 = random_divisor(rng, graph, lo=0, hi=2)
            d2 = random_divisor(rng, graph, lo=0, hi=2)
            r1 = rank(graph, d1).rank
            r2 = rank(graph, d2).rank
            assert r1 + r2 <= rank(graph, d1 + d2).rank


class TestLowerBoundEDeg:
    def test_s_zero_for_effective(self, g):
        assert rank_lower_bound_edeg(g, Divisor(g, [1, 0, 2]), 0) is True

    def test_rejects_negative_s(self, g):
        with pytest.raises(DomainError):
            rank_lower_bound_edeg(g, Divisor.zero(g), -1)

    def test_weightless_matches_rank_threshold(self):
        g = WeightedMultigraph(
            ["a", "b", "c"], {}, [("a", "b"), ("b", "c"), ("c", "a")]
        )
        d = Divisor(g, [2, 0, 0])
        r = rank(g, d).rank
        for s in range(0, r + 1):
            assert rank_lower_bound_edeg(g, d, s)
        assert not rank_lower_bound_edeg(g, d, r + 1)

    def test_true_implies_rank_at_least_s(self):
        rng = random.Random(105)
        for _ in range(25):
            graph = random_connected_graph(rng, max_vertices=4, require_weight=True)
            d = random_divisor(rng, graph, lo=-1, hi=3)
            r = rank(graph, d).rank
            for s in range(0, 3):
                if rank_lower_bound_edeg(graph, d, s):
                    assert r >= s


class TestRiemannRochAndClifford:
    def test_zero_divisor_identity(self, g):
        assert riemann_roch_check(g, Divisor.zero(g))

    def test_canonical_identity(self, g):
        assert riemann_roch_check(g, canonical_divisor(g))

    def test_random_identities(self):
        rng = random.Random(106)
        for _ in range(30):
            graph = random_connected_graph(rng, max_vertices=5, max_genus=4)
            d = random_divisor(rng, graph, lo=-3, hi=3)
            assert riemann_roch_check(graph, d)

    def test_clifford_zero(self, g):
        assert clifford_check(g, Divisor.zero(g))

    def test_clifford_canonical_equality(self, g):
        assert clifford_check(g, canonical_divisor(g))
        assert 2 * rank(g, canonical_divisor(g)).rank == canonical_divisor(g).degree

    def test_clifford_range_errors(self, g):
        with pytest.raises(DomainError):
            clifford_check(g, Divisor(g, [-1, 0, 0]))
        with pytest.raises(DomainError):
            clifford_check(g, Divisor(g, [11, 0, 0]))


class TestBudget:
    def test_rank_budget_error_carries_count(self, g):
        d = Divisor(g, [0, 3, 2])
        with pytest.raises(BudgetExceededError) as excinfo:
            rank(g, d, budget=5)
        assert excinfo.value.count > 5

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import (
    BudgetExceededError,
    Divisor,
    DomainError,
    WeightedMultigraph,
    canonical_divisor,
    class_of,
    e_deg,
    effective_representatives,
    equivalent,
    intersection,
    residual,
    t_set,
)
from chipfire.rank import _class_key, _lattice_data
from helpers import golden_graph, random_divisor, random_principal_shift


@pytest.fixture
def g():
    return golden_graph()


class TestDivisorBasics:
    def test_mapping_constructor_fills_zero(self, g):
        d = Divisor(g, {"v2": 3})
        assert d.values == (0, 3, 0)

    def test_unknown_vertex_rejected(self, g):
        with pytest.raises(DomainError):
            Divisor(g, {"nope": 1})

    def test_wrong_length_rejected(self, g):
        with pytest.raises(DomainError):
            Divisor(g, [1, 2])

    @pytest.mark.parametrize("values", [{"v1": 2.7}, {"v1": "3"}, [0, 1.5, 0], [0, "1", 0]])
    def test_non_integer_values_rejected(self, g, values):
        with pytest.raises(DomainError, match="integers"):
            Divisor(g, values)

    def test_arithmetic(self, g):
        d = Divisor(g, [1, 2, 3])
        e = Divisor(g, [0, 1, 0])
        assert (d + e).values == (1, 3, 3)
        assert (d - e).values == (1, 1, 3)
        assert (-d).values == (-1, -2, -3)
        assert (2 * e).values == (0, 2, 0)
        assert d.degree == 6
        assert d.is_effective and not (-d).is_effective

    def test_cross_graph_arithmetic_rejected(self, g):
        other = WeightedMultigraph(["a"], {}, [])
        with pytest.raises(DomainError):
            Divisor(g, [1, 0, 0]) + Divisor(other, [1])


class TestTSet:
    def test_golden_singleton(self, g):
        assert t_set(g, ["v3"]).values == (0, 1, -1)

    def test_empty_set_is_zero(self, g):
        assert t_set(g, []).values == (0, 0, 0)

    def test_full_set_is_zero(self, g):
        assert t_set(g, ["v1", "v2", "v3"]).values == (0, 0, 0)

    def test_golden_pair(self, g):
        assert t_set(g, ["v2", "v3"]).values == (3, -3, 0)

    def test_unknown_vertex(self, g):
        with pytest.raises(DomainError):
            t_set(g, ["bad"])

    def test_loops_contribute_nothing(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b"), ("a", "a")])
        assert t_set(g, ["a"]).values == (-1, 1)

    @given(st.integers(0, 7), st.randoms())
    @settings(deadline=None, max_examples=30)
    def test_degree_zero_and_complement(self, mask, rng):
        g = golden_graph()
        zone = [v for i, v in enumerate(g.vertices) if mask >> i & 1]
        comp = [v for v in g.vertices if v not in zone]
        t = t_set(g, zone)
        assert t.degree == 0
        assert (t + t_set(g, comp)).values == (0, 0, 0)


class TestIntersection:
    def test_golden_cross_terms(self, g):
        e1 = Divisor(g, [1, 0, 0])
        e2 = Divisor(g, [0, 1, 0])
        assert intersection(g, e1, e2) == 3
        assert intersection(g, e2, e2) == -4

    def test_self_intersection_without_edges(self):
        g = WeightedMultigraph(["a"], {}, [("a", "a")])
        d = Divisor(g, [1])
        assert intersection(g, d, d) == 0

    def test_mismatched_graphs(self, g):
        other = WeightedMultigraph(["a"], {}, [])
        with pytest.raises(DomainError):
            intersection(g, Divisor(g, [1, 0, 0]), Divisor(other, [1]))


class TestResidual:
    def test_of_canonical_is_zero(self, g):
        assert residual(g, canonical_divisor(g)).values == (0, 0, 0)

    def test_golden_value(self, g):
        assert residual(g, Divisor(g, [0, 3, 2])).values == (1, 5, -1)

    def test_of_zero_is_canonical(self, g):
        assert residual(g, Divisor.zero(g)) == canonical_divisor(g)

    def test_involution_random(self, g):
        rng = random.Random(7)
        for _ in range(25):
            d = random_divisor(rng, g)
            assert residual(g, residual(g, d)) == d


class TestEquivalent:
    def test_golden_pair(self, g):
        assert equivalent(g, Divisor(g, [0, 3, 2]), Divisor(g, [3, 2, 0])) is True

    def test_reflexive(self, g):
        d = Divisor(g, [1, -2, 3])
        assert equivalent(g, d, d)

    def test_different_degrees(self, g):
        assert not equivalent(g, Divisor(g, [1, 0, 0]), Divisor(g, [0, 0, 0]))

    def test_equivalence_relation_on_shifts(self, g):
        rng = random.Random(11)
        for _ in range(20):
            d = random_divisor(rng, g)
            a = d + random_principal_shift(rng, g)
            b = d + random_principal_shift(rng, g)
            assert equivalent(g, d, a)
            assert equivalent(g, a, d)
            assert equivalent(g, a, b)


class TestClassOf:
    def test_already_reduced_is_fixed(self, g):
        d = Divisor(g, [3, 2, 0])
        assert class_of(g, d, "v1").canonical == d

    def test_invariant_under_shifts(self, g):
        rng = random.Random(3)
        for _ in range(20):
            d = random_divisor(rng, g)
            shifted = d + random_principal_shift(rng, g)
            assert class_of(g, d, "v1") == class_of(g, shifted, "v1")

    def test_golden_pair_same_canonical(self, g):
        c1 = class_of(g, Divisor(g, [0, 3, 2]), "v1")
        c2 = class_of(g, Divisor(g, [3, 2, 0]), "v1")
        assert c1.canonical == c2.canonical == Divisor(g, [3, 2, 0])


class TestEffectiveRepresentatives:
    def test_degree_zero_principal(self, g):
        c = class_of(g, Divisor.zero(g), "v1")
        assert effective_representatives(g, c) == [Divisor.zero(g)]

    def test_degree_zero_nonprincipal(self, g):
        # v1-coordinates of the firing lattice are multiples of 3, so this
        # degree-0 divisor is not principal
        c = class_of(g, Divisor(g, [1, -1, 0]), "v1")
        assert c.canonical.values != (0, 0, 0)
        assert effective_representatives(g, c) == []

    def test_negative_degree_empty(self, g):
        c = class_of(g, Divisor(g, [-1, 0, 0]), "v1")
        assert effective_representatives(g, c) == []

    def test_golden_class_exactly_nine(self, g):
        c = class_of(g, Divisor(g, [0, 3, 2]), "v1")
        reps = effective_representatives(g, c)
        expected = [
            (0, 0, 5), (0, 1, 4), (0, 2, 3), (0, 3, 2), (0, 4, 1), (0, 5, 0),
            (3, 0, 2), (3, 1, 1), (3, 2, 0),
        ]
        assert [r.values for r in reps] == expected

    def test_completeness_against_lattice_filter(self, g):
        # cross-check with the lattice-membership equivalence used by the oracle
        c = class_of(g, Divisor(g, [0, 3, 2]), "v1")
        data = _lattice_data(g)
        want = _class_key(data, c.canonical.values)
        from chipfire.enumeration import compositions

        brute = [
            combo
            for combo in compositions(5, 3)
            if _class_key(data, combo) == want
        ]
        assert brute == [r.values for r in effective_representatives(g, c)]

    def test_budget_error_reports_count(self, g):
        c = class_of(g, Divisor(g, [50, 0, 0]), "v1")
        with pytest.raises(BudgetExceededError) as excinfo:
            effective_representatives(g, c, budget=10)
        assert excinfo.value.count == 1326  # C(52, 2) candidate compositions

    def test_every_output_effective_and_equivalent(self, g):
        rng = random.Random(5)
        for _ in range(10):
            d = random_divisor(rng, g, lo=0, hi=2)
            c = class_of(g, d, "v1")
            for rep in effective_representatives(g, c):
                assert rep.is_effective
                assert rep.degree == c.degree
                assert equivalent(g, rep, d)


class TestEDeg:
    def test_weightless_loopless_identity(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b")])
        e = Divisor(g, [2, 1])
        assert e_deg(g, e) == e

    def test_golden_example(self, g):
        assert e_deg(g, Divisor(g, [0, 2, 1])).values == (0, 4, 2)

    def test_zero(self, g):
        assert e_deg(g, Divisor.zero(g)) == Divisor.zero(g)

    def test_rejects_non_effective(self, g):
        with pytest.raises(DomainError):
            e_deg(g, Divisor(g, [-1, 0, 0]))

    def test_counts_loops(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b"), ("a", "a")])
        assert e_deg(g, Divisor(g, [2, 0])).values == (3, 0)

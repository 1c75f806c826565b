import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from chipfire import (
    Divisor,
    DomainError,
    NotCovered,
    WeightedMultigraph,
    balance_bounds,
    canonical_divisor,
    class_of,
    clifford_representative,
    equivalent,
    genus,
    is_semibalanced,
    is_semistable,
    is_special_class,
    is_uniform,
    rank,
    reduce_to,
    semibalanced_representative,
    uniform_representative,
    verify_certificate,
)
from chipfire.reps import (
    BRANCH_RESIDUAL,
    BRANCH_UNIFORM,
    BRANCH_V_REDUCED,
    CliffordCertificate,
    _window,
    _zone_sums,
)
from chipfire.divisors import effective_representatives
from helpers import (
    golden_graph,
    random_connected_graph,
    random_principal_shift,
    reference_effective_representatives,
    reference_is_semibalanced,
    reference_semibalanced_representative,
    reference_uniform_representative,
)


@pytest.fixture
def g():
    return golden_graph()


def loop_hypothesis_graph() -> WeightedMultigraph:
    """Bridgeless-free chain where every weight-0 vertex carries a loop."""
    return WeightedMultigraph(
        ["a", "b", "c"],
        {"b": 1},
        [("a", "b"), ("a", "b"), ("b", "c"), ("a", "a"), ("c", "c")],
    )


class TestBalanceBounds:
    def test_golden_example(self, g):
        lo, hi = balance_bounds(g, 5, ["v3"])
        assert (lo, hi) == (Fraction(0), Fraction(1))

    def test_complement_sum_identity(self, g):
        for d_total in (-2, 0, 5, 10):
            for zone, comp in ((["v1"], ["v2", "v3"]), (["v1", "v3"], ["v2"])):
                m_z, _ = balance_bounds(g, d_total, zone)
                _, M_c = balance_bounds(g, d_total, comp)
                assert m_z + M_c == d_total

    def test_rejects_low_genus(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b"), ("a", "b")])
        with pytest.raises(DomainError):
            balance_bounds(g, 0, ["a"])

    def test_rejects_improper_sets(self, g):
        with pytest.raises(DomainError):
            balance_bounds(g, 0, [])
        with pytest.raises(DomainError):
            balance_bounds(g, 0, list(g.vertices))


class TestIsSemibalanced:
    def test_canonical_divisor(self, g):
        assert is_semibalanced(g, canonical_divisor(g))

    def test_zero_divisor(self, g):
        assert is_semibalanced(g, Divisor.zero(g))

    def test_golden_middle_heavy(self, g):
        assert is_semibalanced(g, Divisor(g, [0, 5, 0]))

    def test_unbalanced_rejected(self, g):
        # degree 5 entirely on v3 violates the singleton window at v3
        assert not is_semibalanced(g, Divisor(g, [0, 0, 5]))

    def test_requires_semistable(self):
        g = WeightedMultigraph(
            ["a", "b", "c"], {"b": 2}, [("a", "b"), ("b", "c"), ("b", "c")]
        )
        with pytest.raises(DomainError):
            is_semibalanced(g, Divisor.zero(g))

    @pytest.mark.parametrize("call", [is_semibalanced, semibalanced_representative])
    def test_requires_genus_two(self, call):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b"), ("a", "b")])
        arg = Divisor.zero(g) if call is is_semibalanced else class_of(g, Divisor.zero(g), "a")
        with pytest.raises(DomainError, match=r"^semibalance requires genus >= 2$"):
            call(g, arg)

    def test_long_cycle_with_a_chord(self):
        """C_26 plus the chord v00-v02, genus 2: each edge carries at most
        g - 1 = 1 unit of flow.  In e_v00 + e_v01 the surplus 2 at v01
        needs both paths to the deficit at v02, the edge and the chord; in
        2 * e_v05 the singleton window at v05 fails."""
        n = 26
        verts = [f"v{i:02d}" for i in range(n)]
        edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
        edges.append((verts[0], verts[2]))
        g = WeightedMultigraph(verts, {}, edges)
        assert genus(g) == 2
        assert is_semibalanced(g, Divisor(g, {"v00": 1, "v01": 1}))
        assert not is_semibalanced(g, Divisor(g, {"v05": 2}))

    def test_a_surplus_reaches_its_deficit_by_cancelling_flow(self):
        """On the path v4 =3= v1 -1- v2 =2= v3 with weight 2 at v3, the
        surpluses are 8 at v1 and v3 and the deficits 4 at v2 and 12 at v4.
        The first path sends 4 from v1 to its nearer deficit v2; v3's
        surplus then reaches v4 only by pushing that flow back over v1-v2."""
        g = WeightedMultigraph(
            ["v1", "v2", "v3", "v4"], {"v3": 2}, [("v1", "v2"), ("v2", "v3", 2), ("v1", "v4", 3)]
        )
        d = Divisor(g, [0, -1, -1, -2])
        assert reference_is_semibalanced(g, d)
        assert is_semibalanced(g, d)

    def test_integer_window_matches_the_fraction_window(self):
        """On every proper subset of random semistable graphs, the subset sums
        match a count over the edge list, balance_bounds matches the exact
        window built from them, and the integer test agrees with that window
        at and around both of its ends."""
        rng = random.Random(2406)
        graphs = 0
        while graphs < 40:
            graph = random_connected_graph(rng, max_vertices=6, max_genus=6, max_model_vertices=40)
            if not is_semistable(graph):
                continue
            graphs += 1
            top = 2 * genus(graph) - 2
            k = canonical_divisor(graph)
            for size in range(1, len(graph.vertices)):
                for zone in combinations(graph.vertices, size):
                    member = [v in zone for v in graph.vertices]
                    k_zone = sum(k.value(v) for v in zone)
                    cross = sum((a in zone) != (b in zone) for a, b in graph.edges)
                    assert _zone_sums(graph, k.values, member) == (k_zone, cross)
                    for deg in (0, top, rng.randint(-top, 3 * top)):
                        lo = Fraction(deg * k_zone, top) - Fraction(cross, 2)
                        hi = lo + cross
                        assert balance_bounds(graph, deg, zone) == (lo, hi)
                        i_lo, i_hi = _window(top, deg, k_zone, cross)
                        for d_zone in range(math.floor(lo) - 1, math.ceil(hi) + 2):
                            inside = lo <= d_zone <= hi
                            assert (i_lo <= d_zone <= i_hi) is inside

    def test_matches_the_fraction_windows_on_random_divisors(self):
        rng = random.Random(2407)
        graphs = verdicts = 0
        while graphs < 40:
            graph = random_connected_graph(rng, max_vertices=6, max_genus=6, max_model_vertices=40)
            if not is_semistable(graph) or len(graph.vertices) < 2:
                continue
            graphs += 1
            k = canonical_divisor(graph).values
            for _ in range(8):
                d = Divisor(graph, [x + rng.randint(-1, 1) for x in k])
                expected = all(
                    lo <= sum(d.value(v) for v in zone) <= hi
                    for size in range(1, len(graph.vertices))
                    for zone in combinations(graph.vertices, size)
                    for lo, hi in [balance_bounds(graph, d.degree, zone)]
                )
                assert is_semibalanced(graph, d) is expected
                verdicts += expected
        assert 0 < verdicts < 8 * graphs  # both verdicts occur


class TestSemibalancedRepresentative:
    def test_canonical_class(self, g):
        c = class_of(g, canonical_divisor(g), "v1")
        out = semibalanced_representative(g, c)
        assert is_semibalanced(g, out)
        assert equivalent(g, out, canonical_divisor(g))
        assert out.sort_key() <= canonical_divisor(g).sort_key()

    def test_principal_class(self, g):
        c = class_of(g, Divisor.zero(g), "v1")
        out = semibalanced_representative(g, c)
        assert is_semibalanced(g, out)
        assert equivalent(g, out, Divisor.zero(g))

    def test_extreme_degree_classes_keep_regime_rank(self, g):
        zero = semibalanced_representative(g, class_of(g, Divisor.zero(g), "v1"))
        assert rank(g, zero).rank == 0
        top = semibalanced_representative(g, class_of(g, canonical_divisor(g), "v1"))
        assert rank(g, top).rank == genus(g) - 1

    def test_random_suite(self):
        from chipfire import is_semistable

        rng = random.Random(71)
        done = 0
        while done < 20:
            graph = random_connected_graph(rng, max_vertices=5, max_genus=4)
            if not is_semistable(graph):
                continue
            done += 1
            d = Divisor(graph, [rng.randint(-2, 3) for _ in graph.vertices])
            c = class_of(graph, d, graph.base_vertex())
            out = semibalanced_representative(graph, c)
            assert is_semibalanced(graph, out)
            assert equivalent(graph, out, d)

    def test_one_vertex(self):
        """No proper subsets: the box of singleton windows is the class's
        one divisor, at any degree."""
        graph = WeightedMultigraph(["a"], {"a": 2}, [("a", "a")])
        for deg in (-3, 0, 4, 6, 11):
            d = Divisor(graph, [deg])
            assert is_semibalanced(graph, d)
            assert semibalanced_representative(graph, class_of(graph, d, "a")) == d


def test_searches_match_the_from_scratch_reference():
    """The three class walks and the halved subset walk against the whole
    box reduced with reduce_to and every subset, on random semistable
    graphs with weights and loops, at every base vertex."""
    rng = random.Random(2408)
    graphs = weighted = looped = 0
    while graphs < 60:
        graph = random_connected_graph(rng, max_vertices=6, max_extra_edges=4, max_genus=5)
        if not is_semistable(graph):
            continue
        graphs += 1
        weighted += any(graph.weights.values())
        looped += any(graph.loop_count(v) for v in graph.vertices)
        top = 2 * genus(graph) - 2
        for _ in range(2):
            d = Divisor(graph, [rng.randint(-2, 3) for _ in graph.vertices])
            assert is_semibalanced(graph, d) is reference_is_semibalanced(graph, d)
            shift = rng.randint(0, top) - d.degree
            d = d + Divisor(graph, {graph.vertices[0]: shift})
            for base in graph.vertices:
                c = class_of(graph, d, base)
                assert effective_representatives(graph, c) == reference_effective_representatives(graph, c)
                assert uniform_representative(graph, c) == reference_uniform_representative(graph, c)
                assert semibalanced_representative(graph, c) == reference_semibalanced_representative(graph, c)
    assert weighted and looped


def test_flow_check_matches_every_subset_on_larger_graphs():
    """is_semibalanced against every proper subset on random semistable
    graphs with 7-12 vertices, weights and loops.  A multiple of the
    canonical divisor is semibalanced; each draw moves one or two chips
    from it, which stays semibalanced only where the graph has the cuts
    to route them, so both verdicts occur often."""
    rng = random.Random(2419)
    graphs = verdicts = weighted = looped = 0
    while graphs < 40:
        graph = random_connected_graph(
            rng, max_vertices=12, max_extra_edges=8, max_genus=20, max_model_vertices=60
        )
        if len(graph.vertices) < 7 or not is_semistable(graph):
            continue
        graphs += 1
        weighted += any(graph.weights.values())
        looped += any(graph.loop_count(v) for v in graph.vertices)
        k = canonical_divisor(graph).values
        for _ in range(3):
            j = rng.randint(-1, 2)
            vals = [j * x for x in k]
            for _ in range(rng.randint(1, 2)):
                a, b = rng.sample(range(len(vals)), 2)
                vals[a] += 1
                vals[b] -= 1
            d = Divisor(graph, vals)
            expected = reference_is_semibalanced(graph, d)
            assert is_semibalanced(graph, d) is expected
            verdicts += expected
    assert weighted and looped
    assert 30 < verdicts < 90  # of 120: both verdicts occur often


def test_representative_matches_the_reference_on_larger_graphs():
    rng = random.Random(2420)
    graphs = 0
    while graphs < 8:
        graph = random_connected_graph(rng, max_vertices=9, max_extra_edges=6, max_genus=8, max_model_vertices=40)
        if len(graph.vertices) < 7 or not is_semistable(graph):
            continue
        graphs += 1
        d = Divisor(graph, [rng.randint(-1, 2) for _ in graph.vertices])
        for base in (graph.base_vertex(), graph.vertices[-1]):
            c = class_of(graph, d, base)
            assert semibalanced_representative(graph, c) == reference_semibalanced_representative(graph, c)


class TestUniform:
    def test_zero_on_semistable(self, g):
        assert is_uniform(g, Divisor.zero(g))

    def test_canonical(self, g):
        assert is_uniform(g, canonical_divisor(g))

    def test_negative_value_rejected(self, g):
        assert not is_uniform(g, Divisor(g, [-1, 1, 0]))

    def test_above_canonical_rejected(self, g):
        assert not is_uniform(g, Divisor(g, [2, 0, 0]))


class TestSpecialClass:
    def test_canonical_class_special(self, g):
        assert is_special_class(g, class_of(g, canonical_divisor(g), "v1"))

    def test_negative_degree_not_special(self, g):
        assert not is_special_class(g, class_of(g, Divisor(g, [-1, 0, 0]), "v1"))

    def test_above_range_not_special(self, g):
        assert not is_special_class(g, class_of(g, Divisor(g, [11, 0, 0]), "v1"))

    def test_golden_class_special(self, g):
        assert is_special_class(g, class_of(g, Divisor(g, [0, 3, 2]), "v1"))


class TestUniformRepresentative:
    def test_canonical_class(self, g):
        c = class_of(g, canonical_divisor(g), "v1")
        out = uniform_representative(g, c)
        assert out is not None
        assert is_uniform(g, out)
        assert equivalent(g, out, canonical_divisor(g))

    def test_golden_class_lex_smallest(self, g):
        c = class_of(g, Divisor(g, [0, 3, 2]), "v1")
        assert uniform_representative(g, c).values == (0, 4, 1)

    def test_non_special_class_has_none(self, g):
        c = class_of(g, Divisor(g, [1, -1, 0]), "v1")  # degree 0, not principal
        assert uniform_representative(g, c) is None

    def test_special_classes_under_loop_hypothesis(self):
        graph = loop_hypothesis_graph()
        rng = random.Random(73)
        k = canonical_divisor(graph)
        for _ in range(20):
            seed = Divisor(
                graph, [rng.randint(0, k.value(v)) for v in graph.vertices]
            )
            c = class_of(graph, seed + random_principal_shift(rng, graph), graph.base_vertex())
            out = uniform_representative(graph, c)
            assert out is not None
            assert is_uniform(graph, out)
            assert is_special_class(graph, c)


class TestClassFromAnotherGraph:
    """A class on a 4-cycle passed with the 3-vertex golden graph is
    refused before the budget is counted, or any other check is made."""

    @pytest.fixture
    def cycle(self):
        return WeightedMultigraph(
            ["a", "b", "c", "d"], {}, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        )

    @pytest.fixture
    def c(self, cycle):
        return class_of(cycle, Divisor(cycle, {"d": 2}), "a")

    def test_effective_representatives(self, g, c):
        with pytest.raises(DomainError, match="different graph"):
            effective_representatives(g, c, budget=0)

    def test_semibalanced_representative(self, g, c):
        with pytest.raises(DomainError, match="different graph"):
            semibalanced_representative(g, c, budget=0)

    def test_uniform_representative(self, g, c):
        with pytest.raises(DomainError, match="different graph"):
            uniform_representative(g, c, budget=0)

    def test_is_special_class(self, g, cycle):
        # the class of -e_d, whose canonical form is not effective
        c = class_of(cycle, Divisor(cycle, {"d": -1}), "a")
        with pytest.raises(DomainError, match="different graph"):
            is_special_class(g, c)

    def test_clifford_representative(self, g, cycle):
        # degree 30, past the golden graph's 2*genus - 2 = 10
        c = class_of(cycle, Divisor(cycle, {"d": 30}), "a")
        with pytest.raises(DomainError, match="different graph"):
            clifford_representative(g, c, budget=0)


class TestCliffordRepresentative:
    def test_non_effective_branch(self, g):
        c = class_of(g, Divisor(g, [1, -1, 0]), "v1")
        rep, cert = clifford_representative(g, c)
        assert cert.branch == BRANCH_V_REDUCED
        assert rep.value(cert.evidence["vertex"]) < 0
        assert verify_certificate(g, cert)
        assert 2 * rank(g, rep).rank <= rep.degree

    def test_residual_branch(self):
        graph = loop_hypothesis_graph()
        # effective class whose residual is not effective: small-degree class
        # with an effective representative but a non-special total
        gen = genus(graph)
        rng = random.Random(79)
        found = False
        for _ in range(200):
            deg = rng.randint(0, 2 * gen - 2)
            vals = [0] * len(graph.vertices)
            for _ in range(deg):
                vals[rng.randrange(len(vals))] += 1
            d = Divisor(graph, vals)
            c = class_of(graph, d, graph.base_vertex())
            outcome = clifford_representative(graph, c)
            if isinstance(outcome, NotCovered):
                continue
            rep, cert = outcome
            assert verify_certificate(graph, cert)
            assert 2 * rank(graph, rep).rank <= rep.degree
            if cert.branch == BRANCH_RESIDUAL:
                found = True
                break
        assert found

    def test_uniform_branch(self):
        graph = loop_hypothesis_graph()
        k = canonical_divisor(graph)
        c = class_of(graph, k, graph.base_vertex())
        rep, cert = clifford_representative(graph, c)
        assert cert.branch == BRANCH_UNIFORM
        assert is_uniform(graph, rep)
        assert verify_certificate(graph, cert)

    def test_golden_class_not_covered(self, g):
        c = class_of(g, Divisor(g, [0, 3, 2]), "v1")
        outcome = clifford_representative(g, c)
        assert isinstance(outcome, NotCovered)
        assert outcome.special is True
        assert outcome.chain_of_2ec is True
        assert outcome.loop_hypothesis is False

    def test_uniform_certificate_outside_the_hypotheses_fails(self):
        """On loopless K4 the class of a + b is special and its uniform
        representative is a + b, but the constructor does not cover it, so
        a hand-built Uniform certificate with correct bounds must not verify."""
        names = ["a", "b", "c", "d"]
        graph = WeightedMultigraph(names, {}, list(combinations(names, 2)))
        c = class_of(graph, Divisor(graph, {"a": 1, "b": 1}), graph.base_vertex())
        outcome = clifford_representative(graph, c)
        assert outcome == NotCovered(special=True, chain_of_2ec=True, loop_hypothesis=False)
        rep = uniform_representative(graph, c)
        assert rep == Divisor(graph, {"a": 1, "b": 1})
        assert is_uniform(graph, rep) and is_special_class(graph, c)
        k = canonical_divisor(graph)
        cert = CliffordCertificate(
            branch=BRANCH_UNIFORM,
            representative=rep,
            evidence={"bounds": {v: (rep.value(v), k.value(v)) for v in names}},
        )
        assert not verify_certificate(graph, cert)

    def test_range_errors(self, g):
        with pytest.raises(DomainError):
            clifford_representative(g, class_of(g, Divisor(g, [-1, 0, 0]), "v1"))
        with pytest.raises(DomainError):
            clifford_representative(g, class_of(g, Divisor(g, [11, 0, 0]), "v1"))

    def test_a_certificate_from_another_graph_fails(self, g):
        other = WeightedMultigraph(["v1", "v2", "v3"], {}, [("v1", "v2"), ("v2", "v3"), ("v3", "v1")])
        _, cert = clifford_representative(other, class_of(other, Divisor(other, [1, -1, 0]), "v1"))
        assert verify_certificate(other, cert)
        assert verify_certificate(g, cert) is False

    def test_tampered_certificate_fails(self, g):
        c = class_of(g, Divisor(g, [1, -1, 0]), "v1")
        rep, cert = clifford_representative(g, c)
        bad = CliffordCertificate(
            branch=cert.branch,
            representative=rep + Divisor(g, [1, 0, 0]),
            evidence=cert.evidence,
        )
        assert not verify_certificate(g, bad)


class TestMalformedEvidence:
    """Malformed certificates fail verification instead of raising.  Each
    case takes a certificate the constructor made, which verifies, and
    replaces its evidence or its representative, or passes something that
    is not a certificate at all."""

    # golden-graph chips whose certificate the constructor makes, per branch
    VERIFIED = [({"v1": 1, "v2": -1}, BRANCH_V_REDUCED), ({"v2": 9, "v3": 1}, BRANCH_RESIDUAL)]

    @staticmethod
    def certificate(graph, chips, branch):
        c = class_of(graph, Divisor(graph, chips), graph.base_vertex())
        _, cert = clifford_representative(graph, c)
        assert cert.branch == branch and verify_certificate(graph, cert)
        return cert

    @pytest.fixture
    def pair(self):
        """a and b, each of weight 1, joined by a double edge."""
        return WeightedMultigraph(["a", "b"], {"a": 1, "b": 1}, [("a", "b"), ("a", "b")])

    @pytest.mark.parametrize(
        "evidence",
        [
            {"vertex": "zz", "value": 0},
            {"vertex": ["v1"], "value": 0},
            {"vertex": {"v1"}, "value": 0},
            [("vertex", "v1"), ("value", -1)],
            None,
        ],
    )
    def test_v_reduced(self, g, evidence):
        cert = self.certificate(g, {"v1": 1, "v2": -1}, BRANCH_V_REDUCED)
        assert not verify_certificate(g, cert._replace(evidence=evidence))

    @pytest.mark.parametrize("vertex", ["zz", ["v1"]])
    def test_residual(self, g, vertex):
        cert = self.certificate(g, {"v2": 9, "v3": 1}, BRANCH_RESIDUAL)
        evidence = {**cert.evidence, "vertex": vertex}
        assert not verify_certificate(g, cert._replace(evidence=evidence))
        assert not verify_certificate(g, cert._replace(evidence=None))

    def test_residual_reduced_at_another_vertex(self, g):
        """The residual's reduced form at v2, where the evidence names v1: an
        equivalent divisor, but not the residual's reduced form at v1."""
        cert = self.certificate(g, {"v2": 9, "v3": 1}, BRANCH_RESIDUAL)
        assert cert.evidence["vertex"] == "v1"
        other = reduce_to(g, cert.evidence["residual_reduced"], "v2")
        evidence = {**cert.evidence, "residual_reduced": other}
        assert not verify_certificate(g, cert._replace(evidence=evidence))

    def test_unknown_branch(self, g):
        """Evidence that a known branch would accept, under a branch name
        the checker does not know."""
        cert = self.certificate(g, {"v1": 1, "v2": -1}, BRANCH_V_REDUCED)
        assert not verify_certificate(g, cert._replace(branch="Unknown"))

    @pytest.mark.parametrize(
        "bounds",
        [
            {"a": 5, "b": 5},
            {"a": (1, 2, 0), "b": (1, 2, 0)},
            ["a", "b"],
            "ab",
        ],
    )
    def test_uniform(self, pair, bounds):
        cert = self.certificate(pair, {"a": 1, "b": 1}, BRANCH_UNIFORM)
        assert not verify_certificate(pair, cert._replace(evidence={"bounds": bounds}))
        assert not verify_certificate(pair, cert._replace(evidence=None))

    @pytest.mark.parametrize("representative", [None, (1, 2), "x"])
    @pytest.mark.parametrize("chips, branch", VERIFIED)
    def test_representative_not_a_divisor(self, g, representative, chips, branch):
        cert = self.certificate(g, chips, branch)
        assert not verify_certificate(g, cert._replace(representative=representative))

    @pytest.mark.parametrize("chips, branch", VERIFIED)
    def test_plain_tuple(self, g, chips, branch):
        """A plain tuple of a certificate's fields is checked as the
        certificate; a tuple that does not unpack to three fields fails."""
        fields = tuple(self.certificate(g, chips, branch))
        assert verify_certificate(g, fields)
        assert not verify_certificate(g, fields[:2])
        assert not verify_certificate(g, (*fields, None))

    @pytest.mark.parametrize("cert", [None, 3, "abc", (), [BRANCH_V_REDUCED]])
    def test_not_a_certificate(self, g, cert):
        assert not verify_certificate(g, cert)

    def test_uniform_plain_tuple_and_representative(self, pair):
        fields = tuple(self.certificate(pair, {"a": 1, "b": 1}, BRANCH_UNIFORM))
        assert verify_certificate(pair, fields)
        for representative in (None, (1, 2), "x"):
            assert not verify_certificate(pair, (fields[0], representative, fields[2]))

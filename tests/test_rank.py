import importlib
import math
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chipfire import (
    BudgetExceededError,
    Divisor,
    DomainError,
    InternalError,
    WeightedMultigraph,
    bullet_model,
    canonical_divisor,
    clifford_check,
    equivalent,
    genus,
    rank,
    rank_lower_bound_edeg,
    rank_oracle,
    riemann_roch_check,
)
from chipfire.rank import METHOD_DEFINITION, METHOD_SHORTCUT
from helpers import (
    golden_graph,
    random_connected_graph,
    random_divisor,
    random_principal_shift,
    reference_compositions,
    reference_model_rank,
    spy,
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
            for mults in reference_compositions(total, len(pairs)):
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
                for combo in reference_compositions(degree + n, n):
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

    def test_identity_ranks_both_sides_by_definition(self, g, monkeypatch):
        # degree 12 > 2g - 2 = 10: the shortcuts would answer both sides
        reports = spy(monkeypatch, "chipfire.rank.rank", record=lambda _, report: report)
        assert riemann_roch_check(g, Divisor(g, [4, 5, 3]))
        assert [r.method for r in reports] == [METHOD_DEFINITION] * 2
        assert [r.rank for r in reports] == [6, -1]

    def test_identity_takes_no_shortcuts_option(self, g):
        with pytest.raises(TypeError):
            riemann_roch_check(g, Divisor.zero(g), shortcuts=True)

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


# ``a!`` sorts between ``a`` and its satellite ``a#w0``, and a user vertex
# may itself be called ``a#w0`` (its host's satellite is then ``a#w0x``)
NAMES = ["a", "a!", "a#w0", "a#l0", "b", "b!", "c", "v1"]


@st.composite
def weighted_graphs(draw):
    """Connected graphs with weights or loops, of genus at most 6 and with
    models of at most 9 vertices, so the reference scan on the model stays
    cheap."""
    verts = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    n = len(verts)
    edges = [(verts[draw(st.integers(0, i - 1))], verts[i]) for i in range(1, n)]
    for _ in range(draw(st.integers(0, 3))):
        edges.append((draw(st.sampled_from(verts)), draw(st.sampled_from(verts))))
    loops = sum(a == b for a, b in edges)
    spare = min(9 - n - loops, 6 - (len(edges) - n + 1))
    weights = {}
    for v in verts:
        weights[v] = draw(st.integers(0, min(2, spare)))
        spare -= weights[v]
    if not loops and not any(weights.values()):
        weights[verts[0]] = 1
    return WeightedMultigraph(verts, weights, edges)


@st.composite
def weighted_cases(draw):
    g = draw(weighted_graphs())
    base = canonical_divisor(g).values if draw(st.booleans()) else (0,) * g._n
    d = Divisor(g, [x + draw(st.integers(-2, 2)) for x in base])
    # a forced scan above degree 2g - 1 runs deg - g + 2 levels on the model
    return g, d, draw(st.booleans()) or d.degree > 2 * g.genus - 1


def _outcome(call):
    try:
        r = call()
    except BudgetExceededError as exc:
        return "budget", exc.count, exc.budget
    w = r.witness
    return r.rank, None if w is None else (w.graph.vertices, w.values), r.method


class TestGraphScanMatchesModelScan:
    @given(weighted_cases())
    @settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_value_witness_and_method(self, case):
        g, d, shortcuts = case
        got = rank(g, d, shortcuts=shortcuts)
        want = reference_model_rank(g, d, shortcuts=shortcuts)
        assert got.rank == want.rank
        assert got.method == want.method
        if want.witness is None:
            assert got.witness is None
        else:
            assert got.witness.graph is want.witness.graph
            assert got.witness.values == want.witness.values

    @given(weighted_cases(), st.sampled_from([0, 1, 2, 3, 5, 8, 13, 40, 200]))
    @settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_budget_errors_where_the_model_scan_raises(self, case, budget):
        g, d, shortcuts = case
        got = _outcome(lambda: rank(g, d, shortcuts=shortcuts, budget=budget))
        want = _outcome(lambda: reference_model_rank(g, d, shortcuts=shortcuts, budget=budget))
        n_model = bullet_model(g)._n
        if want[0] == -1 and want[2] == METHOD_DEFINITION and n_model > budget:
            # the scan failed at level 0; the model is too large to build
            assert got == ("budget", n_model, budget)
        else:
            assert got == want

    def test_user_vertex_named_like_a_satellite(self):
        # a triangle: moving two chips between vertices changes the class
        edges = [("a", "a#w0"), ("a#w0", "a!"), ("a!", "a")]
        g = WeightedMultigraph(["a", "a#w0", "a!"], {"a": 1, "a#w0": 1}, edges)
        gb = bullet_model(g)
        assert gb.vertices == ("a", "a#w0", "a!", "a#w0x", "a#w0#w0")
        # in the model's lex order a, a!, a#w0, a#w0#w0, a#w0x: a#w0#w0 is
        # hosted at a#w0 (index 1), a#w0x at a (index 0)
        assert importlib.import_module("chipfire.rank")._coords(g, 1, gb)[0] == [0, 2, 1, 1, 0]
        for vals in product(range(-1, 3), repeat=3):
            d = Divisor(g, vals)
            got, want = rank(g, d, shortcuts=False), reference_model_rank(g, d, shortcuts=False)
            assert (got.rank, got.witness.values) == (want.rank, want.witness.values)

    def test_witness_walk_steps_through_a_satellite_pair(self):
        # x chips on a satellite cost x + x mod 2 at its host, so a second
        # chip there leaves its parent's target and so its cache key: that
        # parent is no step away, and the walk steps from another one or
        # reduces from scratch.  The witness itself never holds an even
        # count >= 2 on a satellite: one chip fewer there costs the same, so
        # moving that chip to a later coordinate gives a lex-smaller
        # failure, and with none later the target was already covered at
        # level k - 1.
        g = WeightedMultigraph(["a", "b"], {"a": 1, "b": 1}, [("a", "b"), ("a", "b")])
        model = bullet_model(g)
        satellites = {i for i, pos in enumerate(model._lex_indices) if pos >= g._n}
        d = Divisor(g, [4, 3])
        got = rank(g, d, shortcuts=False)
        assert got == reference_model_rank(g, d, shortcuts=False)
        assert got.witness.as_dict() == {"a": 1, "b": 0, "a#w0": 1, "b#w0": 3}
        # the witness walk visits the model's candidates of its degree in
        # lex order up to the witness; some of them end in a satellite pair
        witness = tuple(got.witness.values[pos] for pos in model._lex_indices)
        pairs = []
        for vec in reference_compositions(sum(witness), model._n):
            if vec == witness:
                break
            last = max(p for p, x in enumerate(vec) if x)
            pairs.append(last in satellites and vec[last] >= 2)
        assert any(pairs)

    @pytest.mark.parametrize(
        "weights, edges",
        [
            ({"a": 2}, [("a", "a"), ("a", "b"), ("b", "c"), ("a", "c")]),
            ({"a": 1, "c": 1}, [("a", "a"), ("a", "a"), ("a", "b"), ("a", "b"), ("b", "c")]),
            ({"a": 3}, [("a", "a"), ("a", "b")]),
        ],
    )
    def test_weight_and_loops_on_the_base_vertex(self, weights, edges):
        # the model coordinates hosted at the base move only the walk's
        # chips at the base, added back to the reduced form's value there,
        # never the cache key
        rng = random.Random(repr(edges))
        verts = sorted({v for e in edges for v in e})
        for _ in range(25):
            g = WeightedMultigraph(verts, weights, edges)
            d = Divisor(g, [rng.randint(-2, 4) for _ in verts])
            for shortcuts in (False, True):
                got = rank(g, d, shortcuts=shortcuts)
                want = reference_model_rank(g, d, shortcuts=shortcuts)
                assert (got.rank, got.method) == (want.rank, want.method)
                assert (got.witness is None) == (want.witness is None)
                if want.witness is not None:
                    assert got.witness.graph is want.witness.graph
                    assert got.witness.values == want.witness.values
            assert all(key[0] == 0 for key in g._reduced)  # keyed off the base, index 0

    def test_lower_bound_is_the_level_test(self):
        rng = random.Random(107)
        for _ in range(40):
            graph = random_connected_graph(rng, max_vertices=4, require_weight=True)
            d = random_divisor(rng, graph, lo=-1, hi=3)
            r = reference_model_rank(graph, d, shortcuts=False).rank
            for s in range(0, r + 3):
                assert rank_lower_bound_edeg(graph, d, s) == (s <= r)


def test_lattice_data_matches_sympy():
    sympy = pytest.importorskip("sympy")
    lattice_data = importlib.import_module("chipfire.rank")._lattice_data
    rng = random.Random(108)
    for _ in range(30):
        graph = random_connected_graph(rng, max_vertices=6, max_extra_edges=6, max_genus=9, max_model_vertices=20)
        u, rest, adj, det = lattice_data(graph)
        lap = [[0] * graph._n for _ in range(graph._n)]
        for a, b in graph.edges:
            i, j = graph.vertex_index(a), graph.vertex_index(b)
            if i != j:
                lap[i][i] += 1
                lap[j][j] += 1
                lap[i][j] -= 1
                lap[j][i] -= 1
        m = sympy.Matrix([[lap[i][j] for j in rest] for i in rest])
        assert det == m.det()
        assert [list(row) for row in adj] == m.adjugate().tolist()


def test_det_and_adjugate_on_matrices_that_need_row_swaps():
    """A * adj(A) = det(A) * I, with det(A) checked against the Leibniz sum,
    on random integer matrices whose leading entry is 0, so the elimination
    must swap rows; singular ones raise InternalError."""
    det_and_adjugate = importlib.import_module("chipfire.rank")._det_and_adjugate
    rng = random.Random(109)
    done = 0
    while done < 200:
        m = rng.randint(2, 5)
        mat = [[rng.choice([0, 0, 1, -1, 2, -3, 7]) for _ in range(m)] for _ in range(m)]
        mat[0][0] = 0
        leibniz = sum(
            (-1) ** sum(p[i] > p[j] for i in range(m) for j in range(i + 1, m))
            * math.prod(mat[i][p[i]] for i in range(m))
            for p in permutations(range(m))
        )
        if leibniz == 0:
            with pytest.raises(InternalError):
                det_and_adjugate(mat)
            continue
        det, adj = det_and_adjugate(mat)
        assert det == leibniz
        times = [[sum(mat[i][k] * adj[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
        assert times == [[det * (i == j) for j in range(m)] for i in range(m)]
        done += 1

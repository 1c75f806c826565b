import importlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import (
    Divisor,
    GraphError,
    DomainError,
    WeightedMultigraph,
    bridges,
    bullet_model,
    canonical_divisor,
    contract_non_bridges,
    genus,
    is_chain_of_2ec,
    is_semistable,
    is_stable,
    valence,
)
from chipfire.cli import parse_graph
from chipfire.graph import bullet_model_size
from helpers import chain_blob_graph, golden_graph, star_blob_graph


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 5))
    verts = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((verts[draw(st.integers(0, i - 1))], verts[i]))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        edges.append((verts[a], verts[b]))
    weights = {v: draw(st.integers(0, 2)) for v in verts}
    return WeightedMultigraph(verts, weights, edges)


class TestConstruction:
    def test_requires_vertices(self):
        with pytest.raises(GraphError):
            WeightedMultigraph([], {}, [])

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(GraphError):
            WeightedMultigraph(["a", "a"], {}, [])

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError):
            WeightedMultigraph(["a"], {"a": -1}, [])

    @pytest.mark.parametrize("w", [1.5, "2"])
    def test_rejects_non_integer_weight(self, w):
        with pytest.raises(GraphError, match="not an integer"):
            WeightedMultigraph(["a"], {"a": w}, [])

    @pytest.mark.parametrize("verts, bad", [([1, "a"], "1"), ([2, 10], "2")])
    def test_rejects_non_string_vertex(self, verts, bad):
        # names sort lexicographically: a mixed list would not sort, and
        # numbers would sort by value rather than by name
        with pytest.raises(GraphError, match=f"vertex identifier {bad} is not a string"):
            WeightedMultigraph(verts, {}, [(verts[0], verts[1])])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(GraphError):
            WeightedMultigraph(["a"], {}, [("a", "b")])

    def test_rejects_a_weight_at_an_unknown_vertex(self):
        with pytest.raises(GraphError, match=r"^weight given for unknown vertex 'b'$"):
            WeightedMultigraph(["a"], {"b": 1}, [])

    def test_rejects_an_unknown_first_endpoint(self):
        with pytest.raises(GraphError, match=r"^edge endpoint 'b' is not a declared vertex$"):
            WeightedMultigraph(["a"], {}, [("b", "a")])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            WeightedMultigraph(["a", "b"], {}, [])

    def test_value_equality(self):
        g1 = golden_graph()
        g2 = golden_graph()
        assert g1 == g2 and hash(g1) == hash(g2)

    def test_a_graph_is_unequal_to_what_is_not_a_graph(self):
        g = golden_graph()
        assert g.__eq__(g._key) is NotImplemented
        assert g != g._key and g != "golden"


class TestGenus:
    def test_single_vertex(self):
        assert genus(WeightedMultigraph(["a"], {}, [])) == 0

    def test_golden(self):
        assert genus(golden_graph()) == 6

    def test_doubled_edge(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b"), ("a", "b")])
        assert genus(g) == 1


class TestValence:
    def test_golden_middle_vertex(self):
        assert valence(golden_graph(), "v2") == 4

    def test_isolated(self):
        assert valence(WeightedMultigraph(["a"], {}, []), "a") == 0

    def test_loop_counts_twice(self):
        g = WeightedMultigraph(["a"], {}, [("a", "a")])
        assert valence(g, "a") == 2

    def test_unknown_vertex(self):
        with pytest.raises(DomainError):
            valence(golden_graph(), "nope")


class TestCanonicalDivisor:
    def test_golden(self):
        k = canonical_divisor(golden_graph())
        assert k.values == (1, 8, 1)
        assert k.degree == 10 == 2 * 6 - 2

    def test_single_weight_one_vertex(self):
        g = WeightedMultigraph(["a"], {"a": 1}, [])
        assert canonical_divisor(g).values == (0,)

    def test_weightless_cycle(self):
        g = WeightedMultigraph(["a", "b", "c"], {}, [("a", "b"), ("b", "c"), ("c", "a")])
        assert canonical_divisor(g).values == (0, 0, 0)

    @given(small_graphs())
    @settings(deadline=None)
    def test_degree_is_two_genus_minus_two(self, g):
        assert canonical_divisor(g).degree == 2 * genus(g) - 2


class TestStability:
    def test_golden_is_stable(self):
        assert is_semistable(golden_graph()).value is True
        assert is_stable(golden_graph()).value is True

    def test_weight_zero_leaf_breaks_semistability(self):
        g = WeightedMultigraph(
            ["a", "b", "c"],
            {"b": 2},
            [("a", "b"), ("b", "c"), ("b", "c")],
        )
        assert genus(g) >= 2
        verdict = is_semistable(g)
        assert verdict.applicable and not verdict.value

    def test_positive_weights_always_pass(self):
        g = WeightedMultigraph(["a", "b"], {"a": 1, "b": 1}, [("a", "b")])
        assert is_semistable(g).value and is_stable(g).value

    def test_low_genus_not_applicable(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b")])
        verdict = is_stable(g)
        assert not verdict.value and not verdict.applicable
        assert bool(verdict) is False


class TestBridges:
    def test_golden_single_bridge(self):
        assert bridges(golden_graph()) == (("v2", "v3"),)

    def test_cycle_has_none(self):
        g = WeightedMultigraph(["a", "b", "c"], {}, [("a", "b"), ("b", "c"), ("c", "a")])
        assert bridges(g) == ()

    def test_tree_all_bridges(self):
        g = WeightedMultigraph(["a", "b", "c"], {}, [("a", "b"), ("b", "c")])
        assert bridges(g) == (("a", "b"), ("b", "c"))

    def test_parallel_edges_never_bridge(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b"), ("a", "b")])
        assert bridges(g) == ()

    def test_loops_never_bridge(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b"), ("a", "a")])
        assert bridges(g) == (("a", "b"),)

    @given(small_graphs())
    @settings(deadline=None)
    def test_classification_matches_edge_removal(self, g):
        """A vertex pair is a bridge iff removing one copy of it disconnects
        the graph; the bridges come in the order of the pairs."""
        cut = bridges(g)
        copies = Counter(g.edges)
        removal = []
        for pair in copies:
            remaining = list((copies - Counter([pair])).elements())
            try:
                WeightedMultigraph(g.vertices, g.weights, remaining)
            except GraphError:
                removal.append(pair)
        assert cut == tuple(removal)


class TestContraction:
    def test_golden_contracts_to_path(self):
        tree, vmap = contract_non_bridges(golden_graph())
        assert len(tree.vertices) == 2
        assert len(tree.edges) == 1
        assert vmap["v1"] == vmap["v2"] != vmap["v3"]

    def test_bridgeless_contracts_to_point(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b"), ("a", "b")])
        tree, _ = contract_non_bridges(g)
        assert len(tree.vertices) == 1

    def test_star_fixture_has_valence_three_center(self):
        tree, vmap = contract_non_bridges(star_blob_graph())
        assert len(tree.vertices) == 4
        center = vmap["c1"]
        assert valence(tree, center) == 3

    @given(small_graphs())
    @settings(deadline=None)
    def test_tree_edge_count_matches_bridges(self, g):
        tree, vmap = contract_non_bridges(g)
        assert len(tree.edges) == len(bridges(g))
        # acyclic: a connected graph with |E| = |V| - 1
        assert len(tree.edges) == len(tree.vertices) - 1
        assert set(vmap) == set(g.vertices)
        assert set(vmap.values()) == set(tree.vertices)


class TestChainOf2EC:
    def test_chain_fixture(self):
        assert is_chain_of_2ec(chain_blob_graph()) is True

    def test_star_fixture(self):
        assert is_chain_of_2ec(star_blob_graph()) is False

    def test_bridgeless_is_chain(self):
        g = WeightedMultigraph(["a", "b", "c"], {}, [("a", "b"), ("b", "c"), ("c", "a")])
        assert is_chain_of_2ec(g) is True

    def test_golden_is_chain(self):
        assert is_chain_of_2ec(golden_graph()) is True


class TestBulletModel:
    def test_identity_on_weightless_loopless(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b")])
        assert bullet_model(g) is g

    def test_single_vertex_weight_two(self):
        g = WeightedMultigraph(["a"], {"a": 2}, [])
        gb = bullet_model(g)
        assert gb.vertices[0] == "a"
        assert len(gb.vertices) == 3
        assert len(gb.edges) == 4
        assert genus(gb) == 2
        assert valence(gb, "a") == 4

    def test_loop_becomes_two_cycle(self):
        g = WeightedMultigraph(["a"], {}, [("a", "a")])
        gb = bullet_model(g)
        assert len(gb.vertices) == 2
        assert len(gb.edges) == 2
        assert genus(gb) == 1

    @given(small_graphs())
    @settings(deadline=None)
    def test_genus_preserved_no_loops_no_weights(self, g):
        gb = bullet_model(g)
        assert genus(gb) == genus(g)
        assert all(w == 0 for w in gb.weights.values())
        assert all(a != b for a, b in gb.edges)
        assert gb.vertices[: len(g.vertices)] == g.vertices

    @given(small_graphs())
    @settings(deadline=None)
    def test_size_without_building_matches_the_model(self, g):
        size = bullet_model_size(g)
        assert g._model is None
        gb = bullet_model(g)
        assert size == (len(gb.vertices), len(gb.edges))

    @given(small_graphs())
    @settings(deadline=None)
    def test_hosts_follow_the_satellite_edges(self, g):
        """The rank scan's model coordinates take each satellite's chips off
        its host: the one vertex in its row, by a double edge, with one
        satellite per unit of weight and per loop at each vertex."""
        gb = bullet_model(g)
        n = len(g.vertices)
        dests = importlib.import_module("chipfire.rank")._coords(g, 1, gb)[0]
        assert len(dests) == len(gb.vertices)
        hosts = []
        for pos, host in zip(gb._lex_indices, dests):
            if pos < n:
                assert host == pos
            else:
                assert gb._rows[pos] == ((host, 2),)
                hosts.append(host)
        assert sorted(hosts) == [i for i in range(n) for _ in range(g._weights[i] + g._loops[i])]


class TestPairStore:
    @given(small_graphs())
    @settings(deadline=None)
    def test_triples_match_expanded_copies(self, g):
        triples = [(a, b, m) for (a, b), m in Counter(g.edges).items()]
        g3 = WeightedMultigraph(g.vertices, g.weights, triples)
        g1 = WeightedMultigraph(g.vertices, g.weights, g.edges)
        assert g3 == g1 and hash(g3) == hash(g1)
        assert g3._rows == g1._rows
        assert [valence(g3, v) for v in g.vertices] == [valence(g1, v) for v in g.vertices]
        assert bridges(g3) == bridges(g1)
        t3, map3 = contract_non_bridges(g3)
        t1, map1 = contract_non_bridges(g1)
        assert (t3.vertices, t3.edges, map3) == (t1.vertices, t1.edges, map1)
        b3, b1 = bullet_model(g3), bullet_model(g1)
        assert (b3.vertices, b3._rows) == (b1.vertices, b1._rows)

    @pytest.mark.parametrize(
        "edge", [("a", "b", 0), ("a", "b", -1), ("a", "b", 1.5), ("a", "b", "2"), ("a", "b", 2, 1)]
    )
    def test_rejects_bad_multiplicity(self, edge):
        with pytest.raises(GraphError):
            WeightedMultigraph(["a", "b"], {}, [edge])

    def test_copies_declared_apart_are_grouped(self):
        apart = WeightedMultigraph(["a", "b", "c"], {}, [("a", "b"), ("b", "c"), ("b", "a")])
        grouped = WeightedMultigraph(["a", "b", "c"], {}, [("a", "b", 2), ("b", "c")])
        assert apart.edges == grouped.edges == (("a", "b"), ("a", "b"), ("b", "c"))
        assert bridges(apart) == bridges(grouped) == (("b", "c"),)

    def test_large_multiplicity_and_weight_stay_compact(self):
        text = (
            "graph\nvertex a weight 2000\nvertex b weight 0\nvertex c weight 0\n"
            "edge a b x1000000\nedge b c\nloop c x2\n"
        )
        g = parse_graph(text)
        assert len(g._pairs) == 3
        assert genus(g) == 1_000_003 - 3 + 1 + 2000
        assert is_chain_of_2ec(g) is True
        gb = bullet_model(g)
        assert len(gb.vertices) == 3 + 2 + 2000
        assert genus(gb) == genus(g)

"""Lifetime and size of the per-graph loopless model, reduce cache and oracle cache."""

import importlib
import random
from itertools import combinations

import pytest

from chipfire import (
    Divisor,
    WeightedMultigraph,
    bullet_model,
    canonical_divisor,
    class_of,
    clifford_representative,
    effective_representatives,
    effectivize,
    equivalent,
    rank,
    rank_oracle,
    reduce_to,
    reduce_to_set,
    semibalanced_representative,
    uniform_representative,
)
from helpers import golden_graph

# the package's ``rank`` function shadows its module as a package attribute
rank_module = importlib.import_module("chipfire.rank")


class TestLifetime:
    def test_model_built_once_per_graph(self):
        g = golden_graph()
        assert bullet_model(g) is bullet_model(g)

    def test_weightless_loopless_graph_is_its_own_model(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b")])
        assert bullet_model(g) is g
        assert g._model is None

    def test_second_rank_call_reuses_the_warm_cache(self):
        g = golden_graph()
        k = canonical_divisor(g)
        first = rank(g, k)
        size = len(g._reduced)
        assert size > 0
        assert rank(g, k) == first
        assert len(g._reduced) == size

    def test_rank_on_a_weighted_graph_reduces_on_the_graph(self):
        g = golden_graph()
        report = rank(g, canonical_divisor(g))
        assert report.witness.graph is bullet_model(g)
        assert len(g._reduced) > 0
        assert len(bullet_model(g)._reduced) == 0

    def test_reductions_outside_the_scan_store_nothing(self):
        g = golden_graph()
        d = Divisor(g, [2, 4, 4])
        for poor in (Divisor(g, [-3, 5, 1]), Divisor(g, [0, 5, -3])):
            for v in g.vertices:
                reduce_to(g, poor, v)
                effective_representatives(g, class_of(g, poor, v))
            reduce_to_set(g, poor, ["v1", "v3"])
            effectivize(g, poor)
            assert equivalent(g, poor, poor)
        assert equivalent(g, d, Divisor(g, [4, 4, 2])) is False
        c = class_of(g, d, "v1")
        semibalanced_representative(g, c)
        uniform_representative(g, c)
        clifford_representative(g, c)
        assert g._reduced == {}

    def test_a_search_after_rank_leaves_the_scan_entries_intact(self):
        g = golden_graph()
        d = Divisor(g, [2, 4, 4])
        rank(g, d, shortcuts=False)
        held = dict(g._reduced)
        assert held
        uniform_representative(g, class_of(g, d, g.base_vertex()))
        assert g._reduced == held

    def test_chips_at_the_base_only_shift_the_reduced_form(self):
        # what lets the scan key a reduced form by the chips off the base
        g = golden_graph()
        u = g.vertex_index("v2")
        outs = [reduce_to(g, Divisor(g, [-3, x, 1]), "v2").values for x in (5, -7, 40)]
        assert {o[:u] + o[u + 1 :] for o in outs} == {outs[0][:u] + outs[0][u + 1 :]}
        assert [o[u] for o in outs] == [outs[0][u] + x - 5 for x in (5, -7, 40)]

    def test_rank_keeps_one_set_of_cost_tables_up_to_a_cap(self, monkeypatch):
        g = golden_graph()
        rank(g, canonical_divisor(g), shortcuts=False)
        kept = dict(g._scan_coords)
        assert set(kept) == {True, False}  # over g and over the model
        rank(g, Divisor(g, [1, 1, 1]), shortcuts=False)
        assert all(g._scan_coords[key] is kept[key] for key in kept)
        # past the cap a scan builds longer tables but keeps none of them
        monkeypatch.setattr(rank_module, "_COORDS_KEPT", 8)
        one = WeightedMultigraph(["a"], {}, [])
        assert rank(one, Divisor(one, [40]), shortcuts=False).rank == 40
        assert len(one._scan_coords[True][1][0]) == 9

    def test_a_rank_call_that_sees_the_new_model_gets_the_same_report(self):
        """bullet_model publishes the model in one store, so a rank call made
        the moment the model is stored finds everything its witness scan
        reads and answers as the call that built it."""
        inner = []

        class Hooked(WeightedMultigraph):
            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if name == "_model" and value is not None:
                    inner.append(rank(self, canonical_divisor(self)))

        g = Hooked(["a", "b", "c"], {"b": 1}, [("a", "b"), ("b", "c"), ("a", "c"), ("a", "a")])
        outer = rank(g, canonical_divisor(g))
        assert outer.witness.graph is g._model
        assert inner == [outer]

    def test_equal_graphs_keep_separate_caches(self):
        g1, g2 = golden_graph(), golden_graph()
        assert g1 == g2
        rank(g1, canonical_divisor(g1))
        assert len(g1._reduced) > 0
        assert len(g2._reduced) == 0
        rank(g2, canonical_divisor(g2))
        assert g1._reduced is not g2._reduced
        assert bullet_model(g1) is not bullet_model(g2)
        assert bullet_model(g1)._reduced is not bullet_model(g2)._reduced

    def test_oracle_cache_is_per_instance_and_apart_from_rank(self):
        g1, g2 = golden_graph(), golden_graph()
        rank_oracle(g1, canonical_divisor(g1))
        model = bullet_model(g1)
        assert set(model._oracle) == {"lattice", "keys"}
        assert len(model._reduced) == 0
        assert bullet_model(g2)._oracle == {}


def _watch_sizes(monkeypatch):
    """Record the map and its size after every insert into a reduce cache;
    returns the list of (size, map) pairs."""
    sizes = []
    remember = rank_module._remember

    def watched(cache, key, out):
        out = remember(cache, key, out)
        sizes.append((len(cache), cache))
        return out

    monkeypatch.setattr(rank_module, "_remember", watched)
    return sizes


def k5():
    verts = [f"k{i}" for i in range(5)]
    return WeightedMultigraph(verts, {}, list(combinations(verts, 2)))


def test_cache_bound_keeps_answers(monkeypatch):
    rng = random.Random(5)
    divisors = [[rng.randint(-1, 3) for _ in range(5)] for _ in range(12)]
    ref = k5()
    expected = [rank(ref, Divisor(ref, vals), shortcuts=False) for vals in divisors]

    limit = 40
    monkeypatch.setattr(rank_module, "_CACHE_LIMIT", limit)
    sizes = _watch_sizes(monkeypatch)
    g = k5()
    got = [rank(g, Divisor(g, vals), shortcuts=False) for vals in divisors]
    assert [(r.rank, r.witness.values) for r in got] == [
        (r.rank, r.witness.values) for r in expected
    ]
    assert len(sizes) > 2 * limit
    # emptied in place when full: every insert lands in g's own map, and
    # the one after a full map leaves it holding that entry alone
    assert all(held <= limit and cache is g._reduced for held, cache in sizes)
    assert [held for held, _ in sizes].count(1) > 1


@pytest.mark.parametrize(
    "first, second",
    [
        ((3, 3, -2, -1, 0), (6, 3, -2, -1, 0)),  # rank(D), then rank(D + 3e_u): 0 and 0
        ((4, 2, 0, 1, 1), (1, 2, 0, 1, 1)),  # rank(D + 3e_u), then rank(D): 2 and 1
    ],
)
def test_chips_at_the_base_reduce_nothing_new(monkeypatch, first, second):
    """On K5, after one rank call, a second one whose divisor differs only
    at the base vertex u finds every candidate off u in the cache, since
    their keys leave out the chips at u: no reduction from scratch, no
    borrowing, no new entry."""
    reduction = importlib.import_module("chipfire.reduction")
    want = rank(k5(), Divisor(k5(), second), shortcuts=False)
    g = k5()
    rank(g, Divisor(g, first), shortcuts=False)
    size = len(g._reduced)
    calls = []
    for name in ("_reduce_off", "_borrow"):
        fn = getattr(reduction, name)
        wrapped = lambda *a, fn=fn: calls.append(1) or fn(*a)
        monkeypatch.setattr(reduction, name, wrapped)
        monkeypatch.setattr(rank_module, name, wrapped, raising=False)
    got = rank(g, Divisor(g, second), shortcuts=False)
    assert (got.rank, got.witness.values) == (want.rank, want.witness.values)
    assert calls == []
    assert len(g._reduced) == size


def test_oracle_key_bound_keeps_answers(monkeypatch):
    verts = [f"k{i}" for i in range(4)]

    def k4():
        return WeightedMultigraph(verts, {}, list(combinations(verts, 2)))

    rng = random.Random(4)
    divisors = [[rng.randint(-1, 2) for _ in verts] for _ in range(12)]
    ref = k4()
    expected = [rank_oracle(ref, Divisor(ref, vals)) for vals in divisors]

    limit = 20
    monkeypatch.setattr(rank_module, "_KEYS_LIMIT", limit)
    g = k4()
    got = []
    for vals in divisors:
        got.append(rank_oracle(g, Divisor(g, vals)))
        keysets = g._oracle["keys"]
        assert sum(map(len, keysets.values())) <= limit or len(keysets) == 1
    assert got == expected
    assert len(keysets) == 1

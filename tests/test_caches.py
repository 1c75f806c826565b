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
    rank,
    rank_oracle,
    reduce_to,
)
from helpers import golden_graph


class TestLifetime:
    def test_model_built_once_per_graph(self):
        g = golden_graph()
        assert bullet_model(g)[0] is bullet_model(g)[0]

    def test_weightless_loopless_graph_is_its_own_model(self):
        g = WeightedMultigraph(["a", "b"], {}, [("a", "b")])
        assert bullet_model(g)[0] is g
        assert g._model is None

    def test_second_rank_call_reuses_the_warm_cache(self):
        g = golden_graph()
        k = canonical_divisor(g)
        first = rank(g, k)
        size = g._reduced_size
        assert size > 0
        assert rank(g, k) == first
        assert g._reduced_size == size

    def test_rank_on_a_weighted_graph_reduces_on_the_graph(self):
        g = golden_graph()
        report = rank(g, canonical_divisor(g))
        assert report.witness.graph is bullet_model(g)[0]
        assert g._reduced_size > 0
        assert len(bullet_model(g)[0]._reduced) == 0

    def test_a_reduction_stores_one_entry(self):
        g = golden_graph()
        d = Divisor(g, [-3, 5, 1])
        u = g.vertex_index("v1")
        out = reduce_to(g, d, "v1")
        assert list(g._reduced) == [u] and g._reduced_size == 1
        # keyed by the chips with 0 at u; the caller adds its own chips at u
        (key, red), = g._reduced[u].items()
        assert key == (0, 5, 1)
        assert red[:u] + (red[u] + d.values[u],) + red[u + 1 :] == out.values
        assert reduce_to(g, out, "v1") == out
        # the reduced form was looked up, so it is kept, as its own value
        assert g._reduced_size == len(g._reduced[u]) == 2
        key = (*out.values[:u], 0, *out.values[u + 1 :])
        assert g._reduced[u][key] is next(k for k in g._reduced[u] if k == key)

    def test_divisors_that_differ_only_at_the_base_share_one_entry(self):
        g = golden_graph()
        u = g.vertex_index("v2")
        outs = [reduce_to(g, Divisor(g, [-3, x, 1]), "v2") for x in (5, -7, 40)]
        assert list(g._reduced) == [u] and g._reduced_size == 1
        scratch = [reduce_to(golden_graph(), Divisor(g, [-3, x, 1]), "v2") for x in (5, -7, 40)]
        assert outs == scratch
        assert [o.values[u] for o in outs] == [outs[0].values[u] + x - 5 for x in (5, -7, 40)]

    def test_rank_keeps_one_set_of_cost_tables_up_to_a_cap(self, monkeypatch):
        g = golden_graph()
        rank(g, canonical_divisor(g), shortcuts=False)
        kept = dict(g._scan_coords)
        assert set(kept) == {True, False}  # over g and over the model
        rank(g, Divisor(g, [1, 1, 1]), shortcuts=False)
        assert all(g._scan_coords[key] is kept[key] for key in kept)
        # past the cap a scan builds longer tables but keeps none of them
        monkeypatch.setattr(importlib.import_module("chipfire.rank"), "_COORDS_KEPT", 8)
        one = WeightedMultigraph(["a"], {}, [])
        assert rank(one, Divisor(one, [40]), shortcuts=False).rank == 40
        assert len(one._scan_coords[True][1][0]) == 9

    def test_equal_graphs_keep_separate_caches(self):
        g1, g2 = golden_graph(), golden_graph()
        assert g1 == g2
        reduce_to(g1, Divisor(g1, [0, 5, -1]), "v1")
        assert g1._reduced_size > 0
        assert g2._reduced_size == 0
        rank(g2, canonical_divisor(g2))
        assert bullet_model(g1)[0] is not bullet_model(g2)[0]
        assert bullet_model(g1)[0]._reduced is not bullet_model(g2)[0]._reduced

    def test_oracle_cache_is_per_instance_and_apart_from_rank(self):
        g1, g2 = golden_graph(), golden_graph()
        rank_oracle(g1, canonical_divisor(g1))
        model = bullet_model(g1)[0]
        assert set(model._oracle) == {"lattice", "keys"}
        assert len(model._reduced) == 0
        assert bullet_model(g2)[0]._oracle == {}


def _watch_sizes(monkeypatch):
    """Record g._reduced_size and the entries of all of g's maps together
    after every insert into a reduce cache; returns the list of pairs."""
    reduction = importlib.import_module("chipfire.reduction")
    sizes = []
    remember = reduction._remember

    def watched(g, cache, key, out):
        out = remember(g, cache, key, out)
        sizes.append((g._reduced_size, sum(map(len, g._reduced.values()))))
        return out

    monkeypatch.setattr(reduction, "_remember", watched)
    monkeypatch.setattr(importlib.import_module("chipfire.rank"), "_remember", watched)
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
    monkeypatch.setattr("chipfire.reduction._CACHE_LIMIT", limit)
    sizes = _watch_sizes(monkeypatch)
    g = k5()
    got = [rank(g, Divisor(g, vals), shortcuts=False) for vals in divisors]
    assert [(r.rank, r.witness.values) for r in got] == [
        (r.rank, r.witness.values) for r in expected
    ]
    assert len(sizes) > 2 * limit
    assert all(counted == held <= limit for counted, held in sizes)


def test_cache_bound_counts_every_base_vertex(monkeypatch):
    rng = random.Random(6)
    divisors = [[rng.randint(-4, 6) for _ in range(5)] for _ in range(30)]
    ref = k5()
    names = ref.vertices
    expected = [reduce_to(ref, Divisor(ref, vals), v).values for vals in divisors for v in names]

    limit = 25
    monkeypatch.setattr("chipfire.reduction._CACHE_LIMIT", limit)
    sizes = _watch_sizes(monkeypatch)
    g = k5()
    got = [reduce_to(g, Divisor(g, vals), v).values for vals in divisors for v in names]
    assert got == expected
    assert len(sizes) == len(expected) > 2 * limit
    assert all(counted == held <= limit for counted, held in sizes)
    assert len(g._reduced) == 5  # one map per base vertex, emptied together


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
    size = g._reduced_size
    calls = []
    for name in ("_reduce_off", "_borrow"):
        fn = getattr(reduction, name)
        wrapped = lambda *a, fn=fn: calls.append(1) or fn(*a)
        monkeypatch.setattr(reduction, name, wrapped)
        monkeypatch.setattr(importlib.import_module("chipfire.rank"), name, wrapped, raising=False)
    got = rank(g, Divisor(g, second), shortcuts=False)
    assert (got.rank, got.witness.values) == (want.rank, want.witness.values)
    assert calls == []
    assert g._reduced_size == size


def test_oracle_key_bound_keeps_answers(monkeypatch):
    verts = [f"k{i}" for i in range(4)]

    def k4():
        return WeightedMultigraph(verts, {}, list(combinations(verts, 2)))

    rng = random.Random(4)
    divisors = [[rng.randint(-1, 2) for _ in verts] for _ in range(12)]
    ref = k4()
    expected = [rank_oracle(ref, Divisor(ref, vals)) for vals in divisors]

    limit = 20
    # the package's ``rank`` function shadows its module as a package attribute
    monkeypatch.setattr(importlib.import_module("chipfire.rank"), "_KEYS_LIMIT", limit)
    g = k4()
    got = []
    for vals in divisors:
        got.append(rank_oracle(g, Divisor(g, vals)))
        keysets = g._oracle["keys"]
        assert sum(map(len, keysets.values())) <= limit or len(keysets) == 1
    assert got == expected
    assert len(keysets) == 1

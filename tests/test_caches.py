"""Lifetime and size of the per-graph loopless model, reduce cache and oracle cache."""

import importlib
import random
from itertools import combinations

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
        cache = g._reduced
        size = len(cache)
        assert size > 0
        assert rank(g, k) == first
        assert len(cache) == size

    def test_rank_on_a_weighted_graph_reduces_on_the_graph(self):
        g = golden_graph()
        report = rank(g, canonical_divisor(g))
        assert report.witness.graph is bullet_model(g)[0]
        assert len(g._reduced) > 0
        assert len(bullet_model(g)[0]._reduced) == 0

    def test_a_reduction_stores_one_entry(self):
        g = golden_graph()
        d = Divisor(g, [-3, 5, 1])
        out = reduce_to(g, d, "v1")
        assert len(g._reduced) == 1
        assert g._reduced[(d.values, g.vertex_index("v1"))] == out.values
        assert reduce_to(g, out, "v1") == out
        assert len(g._reduced) == 2  # the reduced form was looked up, so it is kept

    def test_equal_graphs_keep_separate_caches(self):
        g1, g2 = golden_graph(), golden_graph()
        assert g1 == g2
        reduce_to(g1, Divisor(g1, [0, 5, -1]), "v1")
        assert len(g1._reduced) > 0
        assert len(g2._reduced) == 0
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


class _Watched(dict):
    """A dict that records the largest size it ever reached and its inserts."""

    peak = 0
    inserts = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.inserts += 1
        self.peak = max(self.peak, len(self))


def test_cache_bound_keeps_answers(monkeypatch):
    verts = [f"k{i}" for i in range(5)]

    def k5():
        return WeightedMultigraph(verts, {}, list(combinations(verts, 2)))

    rng = random.Random(5)
    divisors = [[rng.randint(-1, 3) for _ in verts] for _ in range(12)]
    ref = k5()
    expected = [rank(ref, Divisor(ref, vals), shortcuts=False) for vals in divisors]

    limit = 40
    monkeypatch.setattr("chipfire.reduction._CACHE_LIMIT", limit)
    g = k5()
    g._reduced = watched = _Watched()
    got = [rank(g, Divisor(g, vals), shortcuts=False) for vals in divisors]
    assert [(r.rank, r.witness.values) for r in got] == [
        (r.rank, r.witness.values) for r in expected
    ]
    assert watched.inserts > 2 * limit
    assert watched.peak <= limit


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

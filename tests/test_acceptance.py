"""Acceptance suite: each test is one criterion, checked at exact integer
tolerance, printing one pass/fail line (run with ``pytest -s`` to see them).
"""

import functools
import random
from itertools import combinations, product

import pytest

from chipfire import (
    Divisor,
    WeightedMultigraph,
    canonical_divisor,
    class_of,
    clifford_check,
    clifford_representative,
    effective_representatives,
    effectivize,
    equivalent,
    genus,
    is_chain_of_2ec,
    is_reduced,
    is_semibalanced,
    is_semistable,
    is_special_class,
    is_uniform,
    rank,
    rank_lower_bound_edeg,
    rank_oracle,
    reduce_to,
    riemann_roch_check,
    semibalanced_representative,
    t_set,
    uniform_representative,
    verify_certificate,
)
from chipfire.rank import _lattice_data
from chipfire.reps import BRANCH_RESIDUAL, BRANCH_UNIFORM, BRANCH_V_REDUCED, NotCovered
from helpers import (
    chain_blob_graph,
    clip_degree,
    golden_graph,
    random_connected_graph,
    random_divisor,
    random_principal_shift,
    rational_equivalent,
    reference_compositions,
    star_blob_graph,
)

SEED = 20260809


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}" + (f": {detail}" if detail else ""))

        return wrapper

    return deco


@pytest.fixture(scope="module")
def primary_suite():
    """Randomized instances: connected graphs with at most 6 vertices, 10
    edges, and vertex weights at most 2; divisor entries drawn from [-5, 5]
    with the degree clipped into [-3, 2*genus + 2]."""
    rng = random.Random(SEED)
    instances = []
    for i in range(200):
        g = random_connected_graph(
            rng,
            max_vertices=6,
            max_extra_edges=3,
            max_weight=2,
            max_genus=5,
            max_model_vertices=10,
        )
        d = random_divisor(rng, g, -5, 5)
        gen = g.genus
        # stratify across the degree regimes, all inside [-3, 2*genus + 2]
        windows = [
            (-3, -1),
            (0, max(0, 2 * gen - 2)),
            (max(-3, 2 * gen - 1), 2 * gen + 2),
            (-3, 2 * gen + 2),
        ]
        lo, hi = windows[i % 4]
        d = clip_degree(rng, d, lo, hi)
        instances.append((g, d))
    return instances


@criterion("riemann-roch identity")
def test_riemann_roch_identity(primary_suite):
    for g, d in primary_suite:
        assert riemann_roch_check(g, d)
    return f"exact on {len(primary_suite)} randomized instances"


@criterion("reduced-form uniqueness")
def test_reduced_form_uniqueness():
    rng = random.Random(SEED + 1)
    pairs = 0
    while pairs < 500:
        g = random_connected_graph(rng, max_vertices=6)
        u = g.base_vertex()
        d = random_divisor(rng, g)
        shifted = d + random_principal_shift(rng, g, moves=rng.randint(1, 4))
        assert reduce_to(g, d, u).values == reduce_to(g, shifted, u).values
        pairs += 1
    return f"{pairs} shifted pairs reduce identically"


def _weightless_multigraphs(max_vertices=4, max_edges=6):
    """All labeled connected weightless loopless multigraphs within the caps."""
    names = ["a", "b", "c", "d"]
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


def _class_representatives(g, degree):
    """One reduced representative per divisor class of the given degree."""
    u = g.base_vertex()
    others = [v for v in g.vertices if v != u]
    from chipfire import valence

    reps = []
    for combo in product(*[range(valence(g, v)) for v in others]):
        vals = dict(zip(others, combo))
        vals[u] = degree - sum(combo)
        d = Divisor(g, vals)
        if is_reduced(g, d, [u]):
            reps.append(d)
    return reps


@criterion("rank agrees with independent oracle")
def test_rank_matches_oracle_exhaustively():
    graphs = 0
    instances = 0
    for g in _weightless_multigraphs():
        graphs += 1
        # the count of reduced representatives must equal the lattice index
        assert len(_class_representatives(g, 0)) == _lattice_data(g)[3]
        for degree in range(-2, 7):
            for d in _class_representatives(g, degree):
                instances += 1
                assert rank(g, d).rank == rank_oracle(g, d)
    return f"{instances} classes across {graphs} graphs, degrees -2..6"


@criterion("degree-regime laws")
def test_degree_regime_laws(primary_suite):
    rng = random.Random(SEED + 2)
    low = high = zero = top = 0
    for g, d in primary_suite:
        deg, gen = d.degree, genus(g)
        if deg < 0:
            assert rank(g, d, shortcuts=False).rank == -1
            low += 1
        elif deg > 2 * gen - 2:
            assert rank(g, d, shortcuts=False).rank == deg - gen
            high += 1
    for g, _ in primary_suite[:60]:
        gen = genus(g)
        # degree 0: rank 0 exactly for principal classes, else -1
        shift = random_principal_shift(rng, g, moves=2)
        assert rank(g, shift, shortcuts=False).rank == 0
        nonprincipal = None
        for _ in range(20):
            cand = random_divisor(rng, g, -2, 2)
            cand = clip_degree(rng, cand, 0, 0)
            if reduce_to(g, cand, g.base_vertex()).values != (0,) * len(g.vertices):
                nonprincipal = cand
                break
        if nonprincipal is not None:
            assert rank(g, nonprincipal, shortcuts=False).rank == -1
        zero += 1
        # degree 2*genus - 2: rank genus - 1 exactly for canonical classes
        k = canonical_divisor(g)
        assert rank(g, k + shift, shortcuts=False).rank == gen - 1
        other = clip_degree(rng, random_divisor(rng, g, -2, 2), k.degree, k.degree)
        r_other = rank(g, other, shortcuts=False).rank
        if equivalent(g, other, k):
            assert r_other == gen - 1
        else:
            assert r_other <= gen - 2
        top += 1
    return (
        f"{low} below-zero, {high} above-range, {zero} degree-0, {top} canonical-degree checks"
    )


@criterion("clifford inequality")
def test_clifford_inequality(primary_suite):
    checked = 0
    for g, d in primary_suite:
        if 0 <= d.degree <= 2 * genus(g) - 2:
            assert clifford_check(g, d)
            checked += 1
    assert checked > 0
    return f"{checked} in-range instances"


@criterion("golden three-vertex fixture")
def test_golden_fixture():
    g = golden_graph()
    assert genus(g) == 6
    assert canonical_divisor(g).values == (1, 8, 1)
    d = Divisor(g, [0, 3, 2])
    d2 = Divisor(g, [3, 2, 0])
    assert equivalent(g, d, d2)
    c = class_of(g, d, "v1")
    reps = [r.values for r in effective_representatives(g, c)]
    assert reps == [
        (0, 0, 5), (0, 1, 4), (0, 2, 3), (0, 3, 2), (0, 4, 1), (0, 5, 0),
        (3, 0, 2), (3, 1, 1), (3, 2, 0),
    ]
    r_scan = rank(g, d).rank
    r_oracle = rank_oracle(g, d)
    assert r_scan == r_oracle == 2
    return "genus 6, canonical (1,8,1), 9 effective representatives, rank 2 by both deciders"


@criterion("effectivization")
def test_effectivization(primary_suite):
    rng = random.Random(SEED + 3)
    successes = 0
    while successes < 300:
        g = random_connected_graph(rng, max_vertices=6)
        base = Divisor(g, [rng.randint(0, 2) for _ in g.vertices])
        d = base + random_principal_shift(rng, g, moves=rng.randint(1, 3))
        attempts = 0
        while d.is_effective and attempts < 25:
            d = d + random_principal_shift(rng, g)
            attempts += 1
        if d.is_effective:
            continue
        out = effectivize(g, d)
        assert out is not None
        assert out.is_effective
        assert equivalent(g, out, base)
        successes += 1
    # the verdicts below come from rank_oracle, which decides by lattice
    # membership and shares no code with the reduction effectivize uses
    negatives = oracle_effective = 0
    while negatives < 150:
        g = random_connected_graph(rng, max_vertices=6)
        if negatives % 3 == 0:
            d = clip_degree(rng, random_divisor(rng, g), -5, -1)
        else:
            d = clip_degree(rng, random_divisor(rng, g, -3, 3), 0, max(0, genus(g) - 1))
        out = effectivize(g, d)
        if rank_oracle(g, d) < 0:
            assert out is None
            negatives += 1
            continue
        assert out is not None
        assert out.is_effective
        assert rational_equivalent(g, out, d)
        oracle_effective += 1
    return (
        f"{successes} effective classes recovered, {oracle_effective} more found"
        f" effective by the oracle, {negatives} non-effective detected"
    )


@criterion("weight-aware lower bound implies rank")
def test_edeg_lower_bound():
    rng = random.Random(SEED + 4)
    checked = 0
    while checked < 200:
        g = random_connected_graph(rng, max_vertices=5, require_weight=True, max_genus=4)
        d = clip_degree(rng, random_divisor(rng, g, -2, 3), -2, 2 * genus(g))
        r = rank(g, d).rank
        for s in range(0, 4):
            if rank_lower_bound_edeg(g, d, s):
                assert r >= s
        checked += 1
    return f"{checked} weighted instances, s up to 3"


def _loop_hypothesis_random(rng):
    g = random_connected_graph(rng, max_vertices=4, max_genus=3, allow_loops=False)
    verts = list(g.vertices)
    weights = g.weights
    edges = list(g.edges)
    for v in verts:
        if weights[v] == 0:
            edges.append((v, v))
    enriched = WeightedMultigraph(verts, weights, edges)
    return enriched


@criterion("representative soundness")
def test_representative_soundness():
    rng = random.Random(SEED + 5)
    semibalanced_done = 0
    while semibalanced_done < 100:
        g = random_connected_graph(rng, max_vertices=5, max_genus=4)
        if not is_semistable(g):
            continue
        d = clip_degree(rng, random_divisor(rng, g, -2, 3), -3, 2 * genus(g))
        c = class_of(g, d, g.base_vertex())
        out = semibalanced_representative(g, c)
        assert is_semibalanced(g, out)
        assert equivalent(g, out, d)
        semibalanced_done += 1

    uniform_done = 0
    while uniform_done < 100:
        g = _loop_hypothesis_random(rng)
        k = canonical_divisor(g)
        seed = Divisor(g, [rng.randint(0, k.value(v)) for v in g.vertices])
        c = class_of(g, seed + random_principal_shift(rng, g), g.base_vertex())
        assert is_special_class(g, c)
        out = uniform_representative(g, c)
        assert out is not None
        assert is_uniform(g, out)
        assert equivalent(g, out, seed)
        uniform_done += 1

    branches = {BRANCH_UNIFORM: 0, BRANCH_V_REDUCED: 0, BRANCH_RESIDUAL: 0}
    attempts = 0
    while min(branches.values()) < 5 and attempts < 4000:
        attempts += 1
        g = _loop_hypothesis_random(rng)
        gen = genus(g)
        if gen < 1:
            continue
        deg = rng.randint(0, 2 * gen - 2)
        d = clip_degree(rng, random_divisor(rng, g, -2, 2), deg, deg)
        c = class_of(g, d, g.base_vertex())
        outcome = clifford_representative(g, c)
        if isinstance(outcome, NotCovered):
            # loop-hypothesis chains should always be covered
            assert not (outcome.chain_of_2ec and outcome.loop_hypothesis)
            continue
        rep, cert = outcome
        assert verify_certificate(g, cert)
        assert 2 * rank(g, rep).rank <= rep.degree
        branches[cert.branch] += 1
    assert all(v >= 5 for v in branches.values()), branches
    return (
        f"100 semibalanced, 100 uniform, certificates per branch {dict(branches)}"
    )


@criterion("chain-of-components fixtures")
def test_chain_fixtures():
    assert is_chain_of_2ec(chain_blob_graph()) is True
    assert is_chain_of_2ec(star_blob_graph()) is False
    return "chain fixture true, star fixture false"

"""Reduction on sparse, long graphs against test-only references.

Cycles, theta graphs and ladders with 16 to 24 vertices carry signed chips;
every reduced form is checked by the rescanning reference burn (reduced,
same burning chain and cut as the package's kernel) and for equivalence
by an exact rational solve of the reduced Laplacian, which never calls
``reduce_to``.  ``effectivize`` is checked on the same graphs and at chip
counts up to 10^30.
"""

import random

import pytest

from chipfire import Divisor, dhar, effectivize, is_reduced, reduce_to
from chipfire.reduction import _burn
from helpers import (
    GRAPHS,
    clip_degree,
    cycle,
    random_divisor,
    rational_equivalent,
    reference_burn,
    spy,
)


def reference_cut(burnt, inflow):
    """The reference burn's cut: its unburnt vertices with positive inflow,
    each with that inflow, in index order."""
    return [(w, x) for w, x in enumerate(inflow) if x and not burnt[w]]


def sorted_burn(g, vals, seed):
    """The package's burn as the reference burn's mask, :func:`reference_cut`
    and chain: the mask and the chain are read off the rounds (the chain's
    r-th set holds the vertices that burnt in rounds 1 to r), the cut is put
    in index order."""
    rounds, cut = _burn(g, vals, seed)
    chain = [
        frozenset(v for v, x in enumerate(rounds) if 0 < x <= r) for r in range(1, max(rounds) + 1)
    ]
    return [x > 0 for x in rounds], sorted(cut), chain


@pytest.mark.parametrize("name", GRAPHS)
def test_reduce_everywhere_matches_references(name):
    g = GRAPHS[name]
    rng = random.Random(name)
    d = Divisor(g, [rng.randint(-2, 2) for _ in g.vertices])
    names = g.vertices
    for ui, u in enumerate(names):
        r = reduce_to(g, d, u)
        vals = r.values
        assert all(x >= 0 for i, x in enumerate(vals) if i != ui)
        burnt, _, chain = reference_burn(g, vals, [ui])
        assert all(burnt), f"not reduced at {u}"
        assert sorted_burn(g, vals, [ui]) == (burnt, [], chain)
        assert dhar(g, r, [u]).chain == tuple(
            frozenset(names[i] for i in part) for part in chain
        )
        assert rational_equivalent(g, d, r)


@pytest.mark.parametrize("name", ["cycle20", "theta18", "ladder22"])
def test_burn_matches_reference_on_unreduced_divisors(name):
    """Burns that stop short, from random seed sets, as the firing loops see
    them, and as ``dhar`` and ``is_reduced`` report them."""
    g = GRAPHS[name]
    rng = random.Random(name)
    names = g.vertices
    n = len(names)
    for _ in range(40):
        seed = rng.sample(range(n), rng.randint(1, 3))
        vals = [rng.randint(-2, 2) if i in seed else rng.randint(0, 2) for i in range(n)]
        burnt, inflow, chain = reference_burn(g, vals, seed)
        cut = reference_cut(burnt, inflow)
        assert sorted_burn(g, vals, seed) == (burnt, cut, chain)
        d, zone = Divisor(g, vals), [names[i] for i in seed]
        res = dhar(g, d, zone)
        assert res.fixed_set == {names[i] for i in range(n) if burnt[i]}
        assert res.dhar_set == {names[i] for i in range(n) if not burnt[i]}
        assert res.chain == tuple(frozenset(names[i] for i in part) for part in chain)
        assert is_reduced(g, d, zone) == all(burnt)


def test_rational_equivalence_rejects_a_shifted_chip():
    g = cycle(16)
    d = Divisor(g, [1] + [0] * 15)
    moved = Divisor(g, [0, 1] + [0] * 14)
    assert not rational_equivalent(g, d, moved)
    assert rational_equivalent(g, d, d)


@pytest.mark.parametrize("name", GRAPHS)
def test_effectivize_matches_references(name):
    """Signed chips nudged to degree [0, genus]: an answer is an effective
    equivalent divisor, and None comes with a base-reduced form that the
    reference burn confirms and that is negative at the base."""
    g = GRAPHS[name]
    rng = random.Random(name)
    base = g.base_vertex()
    ui = g.vertex_index(base)
    for _ in range(12):
        d = clip_degree(rng, random_divisor(rng, g, -2, 2), 0, g.genus)
        out = effectivize(g, d)
        if out is not None:
            assert out.is_effective
            assert rational_equivalent(g, d, out)
            continue
        r = reduce_to(g, d, base)
        vals = r.values
        assert all(x >= 0 for i, x in enumerate(vals) if i != ui)
        assert all(reference_burn(g, vals, [ui])[0]), f"not reduced at {base}"
        assert rational_equivalent(g, d, r)
        assert vals[ui] < 0


def test_effectivize_burns_do_not_grow_with_the_chips(monkeypatch):
    """On C_4 with (-N, 0, 2N, 0) the answer is the base-reduced form
    (N, 0, 0, 0), reached in the same number of burns at every N."""
    calls = spy(monkeypatch, "chipfire.reduction._burn")
    counts = []
    for n in (10**2, 10**4, 10**30):
        g = cycle(4)
        d = Divisor(g, [-n, 0, 2 * n, 0])
        calls.clear()
        out = effectivize(g, d)
        counts.append(len(calls))
        assert out == reduce_to(g, d, g.base_vertex()) == Divisor(g, [n, 0, 0, 0])
    assert counts[0] > 0 and len(set(counts)) == 1

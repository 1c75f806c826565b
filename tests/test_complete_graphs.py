"""rank on complete graphs against an independent reference, at scale.

``helpers.reference_complete_rank`` ranks a divisor on K_n by the one-line
recursion rank(D) = 1 + min_v rank(D - v), memoised on reduced forms up to
the symmetries of K_n, with its own K_n reduction (parking functions,
Cori-Le Borgne, arXiv:1308.5325).  It shares no code with ``rank`` and
reaches K8 and K9, where neither ``rank_oracle`` nor the from-scratch scan
finish.
"""

import random
from collections import defaultdict

import pytest

from chipfire import Divisor, rank, reduce_to
from helpers import clip_degree, complete, reference_complete_reduce, reference_complete_rank


@pytest.mark.parametrize("n", range(1, 8))
def test_reference_reduction_matches_the_kernel(n):
    g = complete(n)
    rng = random.Random(n)
    for _ in range(200):
        vals = [rng.randint(-6, 8) for _ in range(n)]
        for q in {0, rng.randrange(n)}:
            got = reduce_to(g, Divisor(g, vals), g.vertices[q]).values
            assert reference_complete_reduce(vals, q) == list(got)


@pytest.fixture(scope="module")
def memos():
    """One reference memo per n, shared by this module's tests."""
    return defaultdict(dict)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rank_matches_the_reference_on_small_complete_graphs(n, memos):
    g = complete(n)
    rng = random.Random(f"K{n}")
    for deg in range(-2, 2 * g.genus + 1):
        for _ in range(4):
            d = clip_degree(rng, Divisor(g, [rng.randint(-2, 4) for _ in range(n)]), deg, deg)
            assert rank(g, d, shortcuts=False).rank == reference_complete_rank(d.values, memos[n])


def _balanced(n, deg):
    return [deg // n + (i < deg % n) for i in range(n)]


# degrees at which rank(shortcuts=False) takes at most about 1 s on
# CPython 3.11; the balanced divisors have the highest rank of their
# degree, so the deepest scans
SCALE_CASES = [
    *((8, deg, "drawn") for deg in range(20, 35, 2)),
    *((8, deg, "balanced") for deg in (24, 28, 32)),
    *((9, deg, "drawn") for deg in range(24, 39, 2)),
    *((9, deg, "balanced") for deg in (24, 28, 32)),
]


@pytest.mark.parametrize("n, deg, kind", SCALE_CASES)
def test_rank_matches_the_reference_at_scale(n, deg, kind, memos):
    g = complete(n)
    if kind == "balanced":
        vals = _balanced(n, deg)
    else:
        rng = random.Random(f"K{n}-{deg}")
        vals = clip_degree(rng, Divisor(g, [rng.randint(-1, 6) for _ in range(n)]), deg, deg).values
    report = rank(g, Divisor(g, vals), shortcuts=False)
    assert report.rank == reference_complete_rank(vals, memos[n])
    # the witness is effective of degree rank + 1, and d less it has no
    # effective class
    witness = report.witness.values
    assert min(witness) >= 0 and sum(witness) == report.rank + 1
    assert reference_complete_rank([a - b for a, b in zip(vals, witness)], memos[n]) == -1

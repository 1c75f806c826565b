"""Budget-guarded integer-vector enumeration used by the search routines.

All generators yield tuples in ascending lexicographic order, which is what
makes "first hit" equal to "lexicographically smallest hit" everywhere else
in the package.
"""

from itertools import combinations_with_replacement
from math import comb
from operator import sub

from .errors import BudgetExceededError

DEFAULT_BUDGET = 10_000_000


def check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise BudgetExceededError(count, budget)


def count_compositions(total: int, length: int) -> int:
    """Number of length-tuples of nonnegative integers summing to total."""
    if total < 0:
        return 0
    if length == 0:
        return 1 if total == 0 else 0
    return comb(total + length - 1, length - 1)


def compositions(total: int, length: int):
    """Yield all nonnegative integer tuples of the given length summing to total.

    Stars and bars: the length - 1 cut points run through the nondecreasing
    tuples in [0, total] in lex order, and the parts are the gaps between
    consecutive cuts.  The cuts are the parts' prefix sums, so the parts
    come in lex order too.
    """
    if total < 0:
        return
    if length == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), length - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def count_box_vectors(lows, highs, total: int) -> int:
    """Exact count of integer vectors in the box [lows, highs] with fixed sum."""
    # dynamic programming over partial sums, shifted so coordinates start at 0
    shifted_total = total - sum(lows)
    widths = [h - l for l, h in zip(lows, highs)]
    if shifted_total < 0 or any(w < 0 for w in widths):
        return 0
    counts = {0: 1}
    for w in widths:
        nxt: dict[int, int] = {}
        for s, c in counts.items():
            for a in range(min(w, shifted_total - s) + 1):
                nxt[s + a] = nxt.get(s + a, 0) + c
        counts = nxt
    return counts.get(shifted_total, 0)


def box_vectors(lows, highs, total: int):
    """Yield integer vectors v with lows <= v <= highs and sum(v) == total.

    Prunes on reachable partial sums, so sparse boxes are cheap to walk.
    """
    n = len(lows)
    if n != len(highs):
        raise ValueError("bounds must have equal length")
    suffix_min = [0] * (n + 1)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        if lows[i] > highs[i]:
            return
        suffix_min[i] = suffix_min[i + 1] + lows[i]
        suffix_max[i] = suffix_max[i + 1] + highs[i]

    prefix = [0] * n

    def rec(i: int, remaining: int):
        if i == n:
            if remaining == 0:
                yield tuple(prefix)
            return
        lo = max(lows[i], remaining - suffix_max[i + 1])
        hi = min(highs[i], remaining - suffix_min[i + 1])
        for a in range(lo, hi + 1):
            prefix[i] = a
            yield from rec(i + 1, remaining - a)

    yield from rec(0, total)

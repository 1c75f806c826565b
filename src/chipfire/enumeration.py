"""Budget-guarded integer-vector enumeration used by the search routines.

All generators walk their vectors in ascending lexicographic order, which
is what makes "first hit" equal to "lexicographically smallest hit"
everywhere else in the package.  :func:`compositions` serves the oracle
and the effective representatives; the rank scan steps its own
compositions in place, in the same order (:func:`.rank._walk_off_base`).
"""

from itertools import accumulate, combinations
from math import comb

from .errors import BudgetExceededError

DEFAULT_BUDGET = 10_000_000


def check_budget(count: int, budget: int, stage: str | None = None, level: int | None = None) -> None:
    """Raise BudgetExceededError, naming the stage and level, if count > budget."""
    if count > budget:
        raise BudgetExceededError(count, budget, stage, level)


def count_compositions(total: int, length: int) -> int:
    """Number of length-tuples of nonnegative integers summing to total."""
    if total < 0:
        return 0
    if length == 0:
        return 1 if total == 0 else 0
    return comb(total + length - 1, length - 1)


def compositions(total: int, length: int):
    """Yield all nonnegative integer tuples of the given length summing to
    total, in lex order, by stars and bars.

    A composition is total stars and length - 1 bars in a row of total +
    length - 1 slots, each part counting the stars between two bars.  The
    bars' slots come from :func:`itertools.combinations` in lex order, and
    at the first bar where two sets of slots differ, the lex-smaller set
    puts fewer stars before it, so the tuples come in lex order too.
    combinations holds a pool of every slot; from three parts on there are
    more than total^2 / 2 compositions, so that pool is small beside any
    walk of them, and one or two parts are listed without a pool.
    """
    if total < 0 or (length == 0 and total):
        return
    if length < 2:
        yield (total,) * length
    elif length == 2:
        for a in range(total + 1):
            yield a, total - a
    else:
        end = total + length - 1
        for bars in combinations(range(end), length - 1):
            ends = (-1, *bars, end)
            yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def count_box_vectors(lows, highs, total: int) -> int:
    """Exact count of integer vectors in the box [lows, highs] with fixed sum.

    Shifted so each coordinate runs from 0 to its width w, the count is
    that of the sum t = total - sum(lows), or of W - t with W the sum of
    the widths (reflect each coordinate, x to w - x), whichever is smaller,
    call it m.  One list holds, for each s <= m, the vectors over the
    coordinates so far with sum s; a coordinate of width w replaces entry s
    by the sum of the w + 1 entries ending at s, a window read off one
    prefix-sum list.  So the count costs O(n * m) additions.
    """
    widths = [h - l for l, h in zip(lows, highs)]
    t = total - sum(lows)
    m = min(t, sum(widths) - t)
    if m < 0 or any(w < 0 for w in widths):
        return 0
    counts = [1] + [0] * m
    for w in widths:
        prefix = [0, *accumulate(counts)]  # prefix[s]: entries below s
        counts = [prefix[s + 1] - prefix[max(0, s - w)] for s in range(m + 1)]
    return counts[m]


def box_vectors(lows, highs, total: int):
    """Yield integer vectors v with lows <= v <= highs and sum(v) == total.

    Prunes on reachable partial sums, so sparse boxes are cheap to walk.
    Iterative, so the box may have any number of coordinates.
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
    if not suffix_min[0] <= total <= suffix_max[0]:
        return

    vec = [0] * n
    tops = [0] * n
    rest = total  # what positions i.. still have to sum to
    i = 0
    while True:
        # fill positions i.. with their least values that leave rest reachable
        while i < n:
            low = max(lows[i], rest - suffix_max[i + 1])
            tops[i] = min(highs[i], rest - suffix_min[i + 1])
            vec[i] = low
            rest -= low
            i += 1
        yield tuple(vec)
        # raise the last position below its top, releasing those after it
        i -= 1
        while i >= 0 and vec[i] == tops[i]:
            rest += vec[i]
            i -= 1
        if i < 0:
            return
        vec[i] += 1
        rest -= 1
        i += 1

"""Budget-guarded integer-vector enumeration used by the search routines.

All generators walk their vectors in ascending lexicographic order, which
is what makes "first hit" equal to "lexicographically smallest hit"
everywhere else in the package.
"""

from itertools import accumulate
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


def composition_walk(total: int, length: int):
    """Walk the compositions of total into length parts in lex order, in place.

    Yields one list, changed between yields, with the first position that
    differs from the previous yield (0 for the first).  Each step moves one
    chip from the last nonzero part j to part j - 1 and the rest of part j
    to the last part; the parts between them stay 0.  So the last nonzero
    part of a yield is the last part or, when that is 0, the reported one.
    """
    if total < 0 or (length == 0 and total):
        return
    last = length - 1
    vec = [0] * last + [total] if length else []
    yield vec, 0
    j = last if total else 0  # the last nonzero part; at 0 (or none) the walk ends
    while j > 0:
        rest = vec[j] - 1
        vec[j] = 0
        vec[j - 1] += 1
        vec[last] = rest
        yield vec, j - 1
        j = last if rest else j - 1


def compositions(total: int, length: int):
    """Yield all nonnegative integer tuples of the given length summing to
    total, in lex order: a tuple view of :func:`composition_walk`."""
    for vec, _ in composition_walk(total, length):
        yield tuple(vec)


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

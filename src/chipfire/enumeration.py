"""Budget-guarded integer-vector enumeration used by the search routines.

:func:`box_vectors` is the one enumerator outside the rank scan: the
oracle walks the compositions of k into n parts as the full box [0, k]^n
at sum k, and the representative searches walk their boxes through
:func:`.divisors._members`.  It walks in ascending lexicographic order,
which is what makes "first hit" equal to "lexicographically smallest hit"
everywhere else in the package.  The rank scan steps its own compositions
in place, in the same order (:func:`.rank._walk_off_base`): it updates each
candidate's target at the three parts a step changes, which a walk that
yields whole tuples cannot, and routing the scan through
:func:`box_vectors` cost it a third of its speed.
"""

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


def count_box_vectors(lows, highs, total: int) -> int:
    """Exact count of integer vectors in the box [lows, highs] with fixed sum.

    Shifted so each coordinate runs from 0 to its width w, the count is
    that of the sum t = total - sum(lows), or of W - t with W the sum of
    the widths (reflect each coordinate, x to w - x), whichever is smaller,
    call it m.  A coordinate of width w has the generating function
    (1 - x^(w+1)) / (1 - x), so the count is the coefficient of x^m in
    prod(1 - x^(w+1)) / (1 - x)^n: the sum of c * C(m - e + n - 1, n - 1)
    over the terms c x^e of the product with e <= m.  Only a coordinate
    with w < m adds such terms, so the product is expanded over those k
    coordinates alone, in at most min(2^k, m + 1) terms.
    """
    widths = [h - l for l, h in zip(lows, highs)]
    t = total - sum(lows)
    m = min(t, sum(widths) - t)
    if m < 0 or any(w < 0 for w in widths):
        return 0
    terms = {0: 1}  # exponent e -> coefficient of x^e
    for w in widths:
        if w < m:
            for e, c in list(terms.items()):
                if e + w < m:
                    terms[e + w + 1] = terms.get(e + w + 1, 0) - c
    n = len(widths)
    return sum(c * count_compositions(m - e, n) for e, c in terms.items())


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

import json
import random
import tracemalloc
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chipfire.cli import main
from chipfire.enumeration import (
    box_vectors,
    count_box_vectors,
    count_compositions,
)
from helpers import graph_file, reference_box_count, reference_compositions


def full_box(total, length):
    """The compositions of total into length parts, walked as the full box
    [0, total] in every part at sum total."""
    return box_vectors((0,) * length, (total,) * length, total)


@pytest.mark.parametrize("length", range(6))
@pytest.mark.parametrize("total", range(-2, 7))
def test_compositions_are_the_sorted_product_filter(total, length):
    expected = sorted(
        v for v in product(range(max(total, 0) + 1), repeat=length) if sum(v) == total
    )
    got = list(full_box(total, length))
    assert got == expected  # same tuples, ascending lex order
    assert len(got) == count_compositions(total, length)


@given(st.integers(0, 9), st.integers(0, 7))
def test_compositions_match_stars_and_bars(total, length):
    assert list(full_box(total, length)) == list(reference_compositions(total, length))


def test_one_part_composition_holds_no_pool():
    """The box [0, total] at sum total has one tuple; walking it must not
    take memory in proportion to total (a pool of total + 1 values took
    38 MB)."""
    tracemalloc.start()
    try:
        got = list(full_box(10**6, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [(10**6,)]
    assert peak < 1 << 20


BOXES = [
    ((), ()),
    ((0,), (0,)),
    ((-2,), (3,)),
    ((0, 0), (2, 2)),
    ((-1, 2, 0), (1, 4, 0)),
    ((0, 1), (2, 0)),  # empty: a low above its high
    ((-2, -1, 0, 1), (0, 1, 2, 2)),
    ((0, 0, 0, 0, 0), (1, 3, 0, 2, 1)),
    ((3, -3, 1), (5, -1, 1)),
]


@pytest.mark.parametrize("lows, highs", BOXES)
def test_box_vectors_are_the_sorted_product_filter(lows, highs):
    for total in range(sum(lows) - 2, sum(highs) + 3):
        expected = sorted(
            v for v in product(*(range(l, h + 1) for l, h in zip(lows, highs))) if sum(v) == total
        )
        got = list(box_vectors(lows, highs, total))
        assert got == expected  # same tuples, ascending lex order
        assert len(got) == count_box_vectors(lows, highs, total)


def _inclusion_exclusion(widths, t):
    """Vectors with 0 <= x_i <= widths[i] summing to t: all nonnegative
    ones, C(t + n - 1, n - 1), less by inclusion-exclusion those above
    their width on each set S of coordinates, which shift t down by the
    sum of widths[i] + 1 over S."""
    n = len(widths)
    total = 0
    for r in range(n + 1):
        for over in combinations(widths, r):
            rest = t - sum(w + 1 for w in over)
            if rest >= 0:
                total += (-1) ** r * comb(rest + n - 1, n - 1)
    return total


@pytest.mark.parametrize("lows", [(0, 0, 0, 0, 0), (-7, 3, 0, -20_000, 11)])
@pytest.mark.parametrize("t", [-1, 0, 1, 37_123, 50_000, 99_999, 100_000, 100_001])
def test_box_count_on_a_wide_box_is_inclusion_exclusion(lows, t):
    """Width 20,000 at every coordinate: the count runs in time linear in
    the chips, where a loop over every value for every partial sum would
    take hours at t = 50,000."""
    highs = [low + 20_000 for low in lows]
    assert count_box_vectors(lows, highs, sum(lows) + t) == _inclusion_exclusion([20_000] * 5, t)


def test_box_count_near_the_top_of_a_huge_box():
    """A sum near the widths' total counts its shortfalls instead, and a
    sum past it counts nothing, however wide the box."""
    top = 5 * 10**12
    assert count_box_vectors([0] * 5, [10**12] * 5, top - 2) == 15  # C(6, 4)
    assert count_box_vectors([0] * 5, [10**12] * 5, top + 1) == 0
    assert count_box_vectors([0] * 3, [5] * 3, 10**30) == 0


def test_box_count_matches_a_dp_and_the_walk_on_random_boxes():
    """Boxes of 0 to 6 coordinates, some of them wider than the sum, so the
    expansion runs over a strict subset of the coordinates."""
    rng = random.Random(28)
    for _ in range(2000):
        n = rng.randint(0, 6)
        lows = [rng.randint(-4, 4) for _ in range(n)]
        highs = [low + rng.randint(-1, 9) for low in lows]
        total = sum(lows) + rng.randint(-2, sum(h - l for l, h in zip(lows, highs)) + 2)
        got = count_box_vectors(lows, highs, total)
        assert got == reference_box_count(lows, highs, total), (lows, highs, total)
        if got <= 2000:
            assert got == sum(1 for _ in box_vectors(lows, highs, total))


def test_box_count_of_a_million_wide_box_is_immediate():
    """The uniform search's box on a 5-cycle of weight 10^6 with 5 * 10^6
    chips: width 2 * 10^6 at each vertex, sum 5 * 10^6.  The expansion
    keeps three exponents, 0, 2 * 10^6 + 1 and 4 * 10^6 + 2, where a DP
    over the sums would fill five lists of 5 * 10^6 entries."""
    tracemalloc.start()
    try:
        got = count_box_vectors([0] * 5, [2 * 10**6] * 5, 5 * 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == 9583352500015416672500001
    assert got == _inclusion_exclusion([2 * 10**6] * 5, 5 * 10**6)
    assert peak < 1 << 20


def test_box_vectors_reject_unequal_bounds():
    with pytest.raises(ValueError):
        list(box_vectors((0, 0), (1,), 0))


def test_box_vectors_walk_a_box_wider_than_the_recursion_limit():
    got = list(box_vectors([0] * 1200, [1] * 1200, 1))
    assert got == [tuple(int(i == j) for i in range(1200)) for j in reversed(range(1200))]


def test_uniform_on_a_1200_cycle(tmp_path, capsys):
    n = 1200
    names = [f"c{i:04d}" for i in range(n)]
    lines = ["graph"] + [f"vertex {v} weight 0" for v in names]
    lines += [f"edge {names[i]} {names[(i + 1) % n]}" for i in range(n)]
    path = graph_file(tmp_path, "cycle", "\n".join(lines) + "\n")
    assert main(["uniform", path, "--divisor", "0", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["status"] == "Found"
    assert result["representative"] == dict.fromkeys(names, 0)

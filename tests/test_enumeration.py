from itertools import product

import pytest

from chipfire.enumeration import compositions, count_compositions


@pytest.mark.parametrize("length", range(6))
@pytest.mark.parametrize("total", range(-2, 7))
def test_compositions_are_the_sorted_product_filter(total, length):
    expected = sorted(
        v for v in product(range(max(total, 0) + 1), repeat=length) if sum(v) == total
    )
    got = list(compositions(total, length))
    assert got == expected  # same tuples, ascending lex order
    assert len(got) == count_compositions(total, length)

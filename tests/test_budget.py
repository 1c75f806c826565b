"""A budget error names the search stage and level that tripped it."""

import sys
import time

import pytest

from chipfire import (
    BudgetExceededError,
    Divisor,
    WeightedMultigraph,
    bullet_model,
    canonical_divisor,
    class_of,
    effective_representatives,
    rank,
    rank_lower_bound_edeg,
    rank_oracle,
    semibalanced_representative,
    uniform_representative,
)
from chipfire.cli import main
from chipfire.enumeration import count_compositions
from helpers import golden_graph, graph_file

# golden graph: 3 vertices, model of 3 + 4 satellites = 7 vertices
CASES = [
    # the model's 7 vertices, counted before any is built
    ("model", None, 7, lambda g: bullet_model(g, budget=6)),
    # level 1 of the model scan counts C(7, 6) = 7 candidates
    ("rank", 1, 7, lambda g: rank(g, Divisor(g, [0, 3, 2]), budget=5)),
    # v1 - v3 is not effective, so the scan fails at level 0; the model
    # (7 vertices) is checked before it is built for the witness
    ("witness", 0, 7, lambda g: rank(g, Divisor(g, [1, 0, -1]), budget=6)),
    # level 0 needs the keys of all C(11, 6) = 462 effective degree-5 model divisors
    ("oracle", 0, 462, lambda g: rank_oracle(g, Divisor(g, [0, 3, 2]), budget=5)),
    # level 2 on g itself counts C(4, 2) = 6
    ("rank_lower_bound_edeg", 2, 6, lambda g: rank_lower_bound_edeg(g, Divisor(g, [0, 3, 2]), 2, budget=5)),
    ("effective_representatives", None, 21, lambda g: effective_representatives(g, class_of(g, Divisor(g, [5, 0, 0]), "v1"), budget=10)),
    ("box", None, None, lambda g: semibalanced_representative(g, class_of(g, canonical_divisor(g), "v1"), budget=0)),
    ("box", None, None, lambda g: uniform_representative(g, class_of(g, canonical_divisor(g), "v1"), budget=0)),
]


@pytest.mark.parametrize("stage, level, count, call", CASES, ids=[c[0] for c in CASES])
def test_error_names_stage_and_level(stage, level, count, call):
    with pytest.raises(BudgetExceededError) as excinfo:
        call(golden_graph())
    exc = excinfo.value
    assert (exc.stage, exc.level) == (stage, level)
    if count is not None:
        assert exc.count == count
    where = stage if level is None else f"{stage} level {level}"
    assert str(exc) == f"{where}: enumeration of {exc.count} candidates exceeds budget {exc.budget}"


def test_plain_error_keeps_its_message():
    exc = BudgetExceededError(12, 10)
    assert (exc.count, exc.budget, exc.stage, exc.level) == (12, 10, None, None)
    assert str(exc) == "enumeration of 12 candidates exceeds budget 10"


@pytest.fixture
def digit_limit():
    """CPython's default int-to-str digit limit, restored afterwards."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


def test_count_past_the_digit_limit_is_stated_by_its_size(digit_limit):
    exc = BudgetExceededError(10**5000, 10)
    assert exc.count == 10**5000
    assert str(exc) == f"enumeration of <more than {digit_limit} digits> candidates exceeds budget 10"


def test_oracle_budget_error_past_the_digit_limit(digit_limit):
    """A triangle with weight 10^4 at a: the oracle's level-0 count for
    2 * 10^4 chips has more digits than CPython prints by default."""
    g = WeightedMultigraph(["a", "b", "c"], {"a": 10**4}, [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(BudgetExceededError) as excinfo:
        rank_oracle(g, Divisor(g, {"a": 2 * 10**4}))
    exc = excinfo.value
    assert exc.count == count_compositions(2 * 10**4, 3 + 10**4)
    assert str(exc) == (
        f"oracle level 0: enumeration of <more than {digit_limit} digits> candidates"
        f" exceeds budget {exc.budget}"
    )


def test_a_model_past_the_budget_is_refused_before_it_is_built():
    """Weight 10^7 on one vertex: a model of 10^7 + 1 vertices, one past
    the default budget.  Building it took about 5 us a satellite, close to
    a minute in all."""
    g = WeightedMultigraph(["a"], {"a": 10**7}, [])
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as excinfo:
        bullet_model(g)
    assert time.perf_counter() - start < 1
    assert (excinfo.value.stage, excinfo.value.count) == ("model", 10**7 + 1)
    assert g._model is None


def _weighted_cycle5(tmp_path, w):
    """The file of a 5-cycle with weight w at every vertex."""
    names = [f"v{i}" for i in range(5)]
    g = WeightedMultigraph(names, dict.fromkeys(names, w), list(zip(names, names[1:] + names[:1])))
    return graph_file(tmp_path, "cycle5", g)


def test_box_error_on_a_million_wide_box_comes_at_once(tmp_path, capsys):
    """A 5-cycle of weight 10^6 at every vertex: the uniform search's box
    [0, 2 * 10^6]^5 at sum 5 * 10^6 is refused from its exact count, which
    a DP over the sums reached only after filling five lists of 5 * 10^6
    entries."""
    assert main(["clifford-rep", _weighted_cycle5(tmp_path, 10**6), "--divisor", "v0=5000000"]) == 2
    err = capsys.readouterr().err
    assert err == "error: box: enumeration of 9583352500015416672500001 candidates exceeds budget 10000000\n"


def test_box_error_on_a_4000_wide_box_comes_at_once(tmp_path, capsys):
    """The same at weight 4,000: the box [0, 8000]^5 at sum 20,000.  A
    count quadratic in the chips ran past a minute here."""
    start = time.perf_counter()
    assert main(["clifford-rep", _weighted_cycle5(tmp_path, 4000), "--divisor", "v0=20000"]) == 2
    assert time.perf_counter() - start < 20
    err = capsys.readouterr().err
    assert err == "error: box: enumeration of 2454560246690001 candidates exceeds budget 10000000\n"

"""Every public function that takes a divisor or a class refuses one from
another graph with a DomainError, before any work on it.

The other graph has the golden graph's vertex names, so a lookup by name
would succeed and only the graph check can raise.
"""

import inspect

import pytest

import chipfire
from chipfire import (
    Divisor,
    DivisorClass,
    DomainError,
    WeightedMultigraph,
    class_of,
    clifford_check,
    clifford_representative,
    dhar,
    e_deg,
    effective_representatives,
    effectivize,
    equivalent,
    intersection,
    is_reduced,
    is_semibalanced,
    is_special_class,
    is_uniform,
    rank,
    rank_lower_bound_edeg,
    rank_oracle,
    reduce_to,
    reduce_to_set,
    residual,
    riemann_roch_check,
    semibalanced_representative,
    uniform_representative,
)
from helpers import golden_graph

CALLS = {
    "intersection": lambda g, d, c: intersection(g, d, Divisor.zero(g)),
    "residual": lambda g, d, c: residual(g, d),
    "equivalent": lambda g, d, c: equivalent(g, Divisor.zero(g), d),
    "class_of": lambda g, d, c: class_of(g, d, "v1"),
    "e_deg": lambda g, d, c: e_deg(g, d),
    "effective_representatives": lambda g, d, c: effective_representatives(g, c),
    "rank": lambda g, d, c: rank(g, d),
    "rank_oracle": lambda g, d, c: rank_oracle(g, d),
    "rank_lower_bound_edeg": lambda g, d, c: rank_lower_bound_edeg(g, d, 1),
    "riemann_roch_check": lambda g, d, c: riemann_roch_check(g, d),
    "clifford_check": lambda g, d, c: clifford_check(g, d),
    "dhar": lambda g, d, c: dhar(g, d, ["v1"]),
    "is_reduced": lambda g, d, c: is_reduced(g, d, ["v1"]),
    "reduce_to": lambda g, d, c: reduce_to(g, d, "v1"),
    "reduce_to_set": lambda g, d, c: reduce_to_set(g, d, ["v1", "v2"]),
    "effectivize": lambda g, d, c: effectivize(g, d),
    "is_semibalanced": lambda g, d, c: is_semibalanced(g, d),
    "semibalanced_representative": lambda g, d, c: semibalanced_representative(g, c),
    "is_uniform": lambda g, d, c: is_uniform(g, d),
    "is_special_class": lambda g, d, c: is_special_class(g, c),
    "uniform_representative": lambda g, d, c: uniform_representative(g, c),
    "clifford_representative": lambda g, d, c: clifford_representative(g, c),
}


@pytest.mark.parametrize("name", CALLS)
def test_a_divisor_or_class_from_another_graph_is_refused(name):
    other = WeightedMultigraph(["v1", "v2", "v3"], {}, [("v1", "v2"), ("v2", "v3"), ("v3", "v1")])
    d = Divisor(other, [1, 2, 1])  # effective, degree 4, in [0, 2 * genus - 2] on golden_graph()
    c = class_of(other, d, "v1")
    with pytest.raises(DomainError, match="different graph"):
        CALLS[name](golden_graph(), d, c)


def test_every_public_function_taking_a_divisor_or_class_is_called():
    kinds = ("Divisor", "DivisorClass", Divisor, DivisorClass)
    taking = {
        name
        for name in chipfire.__all__
        if inspect.isfunction(fn := getattr(chipfire, name))
        and any(p.annotation in kinds for p in inspect.signature(fn).parameters.values())
    }
    assert taking == set(CALLS)

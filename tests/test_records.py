"""The result records are immutable named tuples.

Each keeps the keyword constructor, the ``Name(field=value, ...)`` repr and
the field-wise equality and hashing it had, refuses assignment, and
unpacks, indexes and compares like a plain tuple of its fields.
"""

import pytest

from chipfire import (
    CliffordCertificate,
    DharResult,
    Divisor,
    DivisorClass,
    EdgeCut,
    NotCovered,
    RankReport,
    StabilityVerdict,
)
from chipfire.cli import GraphDocument
from helpers import golden_graph

G = golden_graph()
D = Divisor(G, [3, 2, 0])

# (record type, field values, one field with another value)
CASES = [
    (EdgeCut, {"graph": G, "bridge_indices": frozenset({3})}, ("bridge_indices", frozenset())),
    (StabilityVerdict, {"value": True, "applicable": True}, ("value", False)),
    (DivisorClass, {"graph": G, "base_vertex": "v1", "canonical": D}, ("base_vertex", "v2")),
    (
        DharResult,
        {
            "fixed_set": frozenset({"v1", "v2"}),
            "dhar_set": frozenset({"v3"}),
            "chain": (frozenset({"v1"}), frozenset({"v1", "v2"})),
        },
        ("dhar_set", frozenset()),
    ),
    (RankReport, {"rank": 2, "witness": D, "method": "definition"}, ("witness", None)),
    (
        CliffordCertificate,
        {"branch": "VReducedNonEffective", "representative": D, "evidence": {"vertex": "v1"}},
        ("evidence", {"vertex": "v2"}),
    ),
    (NotCovered, {"special": True, "chain_of_2ec": True, "loop_hypothesis": False}, ("special", False)),
    (GraphDocument, {"graph": G, "vertex_lines": {"v1": 3}}, ("vertex_lines", {})),
]
IDS = [case[0].__name__ for case in CASES]
HOLDS_A_DICT = {CliffordCertificate, GraphDocument}


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
class TestRecord:
    def test_keyword_construction(self, cls, fields, other):
        rec = cls(**fields)
        for name, value in fields.items():
            assert getattr(rec, name) == value

    def test_repr(self, cls, fields, other):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"

    def test_eq_and_hash(self, cls, fields, other):
        a, b = cls(**fields), cls(**fields)
        changed = cls(**{**fields, other[0]: other[1]})
        assert a == b and not a != b
        assert a != changed
        if cls in HOLDS_A_DICT:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b, changed}) == 2

    def test_fields_cannot_be_assigned(self, cls, fields, other):
        rec = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(rec, name, value)
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_behaves_as_a_tuple(self, cls, fields, other):
        rec = cls(**fields)
        values = tuple(fields.values())
        assert cls._fields == tuple(fields)
        assert rec == values and tuple(rec) == values
        assert rec[0] == values[0] and len(rec) == len(values)


@pytest.mark.parametrize("value", [False, True])
@pytest.mark.parametrize("applicable", [False, True])
def test_stability_verdict_truth_is_its_value(value, applicable):
    assert bool(StabilityVerdict(value=value, applicable=applicable)) is value

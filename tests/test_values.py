"""Value semantics of the twelve value classes and records.

The eight frozen classes compare and hash by their fields, refuse
assignment and normalise in their constructors; the four records of
`stanley` compare by their fields, stay mutable and are unhashable.
All print in the `Class(field=value, ...)` format and survive pickle
and deepcopy.
"""

import copy
import pickle

import pytest

from affsym.group import AffinePermutation, Reflection, from_window, identity
from affsym.little import MarkedSubset, MarkedWord, PQPair
from affsym.stanley import (
    ChevalleyReport,
    CoefficientTable,
    ExpansionResult,
    GarsiaLittleReport,
    check_chevalley,
    check_garsia_little,
    expand_in_affine_schur,
)
from affsym.words import AlphaDecomposition, CyclicSubset, Word

WORD = Word(3, (1, 0, 1))
SUBSET = CyclicSubset(3, (0, 2))
FACTORS = (CyclicSubset(3, (1,)), CyclicSubset(3, (0,)))

# (value, a fresh equal value, an unequal value of the same class, its repr)
FROZEN = [
    (
        AffinePermutation(4, (2, 5, 0, 3)),
        from_window(4, [2, 5, 0, 3]),
        identity(4),
        "AffinePermutation(n=4, window=(2, 5, 0, 3))",
    ),
    (Reflection(3, 1, 5), Reflection(3, 5, 1), Reflection(3, 1, 2), "Reflection(n=3, a=1, b=5)"),
    (Reflection(3, 7, 5), Reflection(3, 2, 4), Reflection(3, 1, 5), "Reflection(n=3, a=2, b=4)"),
    (WORD, Word(3, [1, 0, 1]), Word(3, (1, 0)), "Word(n=3, letters=(1, 0, 1))"),
    (SUBSET, CyclicSubset(3, (2, 0, 2)), CyclicSubset(3, (0,)), "CyclicSubset(n=3, members=(0, 2))"),
    (
        MarkedWord(WORD, 2),
        MarkedWord(Word(3, (1, 0, 1)), 2),
        MarkedWord(WORD, 1),
        "MarkedWord(word=Word(n=3, letters=(1, 0, 1)), mark=2)",
    ),
    (PQPair(3, 4, 2), PQPair(3, 7, 5), PQPair(3, 2, 4), "PQPair(n=3, p=4, q=2)"),
    (
        MarkedSubset(SUBSET, 2),
        MarkedSubset(CyclicSubset(3, (2, 0)), 2),
        MarkedSubset(SUBSET, 0),
        "MarkedSubset(subset=CyclicSubset(n=3, members=(0, 2)), mark=2)",
    ),
    (
        AlphaDecomposition(3, FACTORS),
        AlphaDecomposition(3, tuple(CyclicSubset(3, f.members) for f in FACTORS)),
        AlphaDecomposition(3, FACTORS[::-1]),
        "AlphaDecomposition(n=3, factors=(CyclicSubset(n=3, members=(1,)), "
        "CyclicSubset(n=3, members=(0,))))",
    ),
]

IDS = [f"{type(value).__name__}-{k}" for k, (value, *_) in enumerate(FROZEN)]

TABLE = CoefficientTable(2, 1, {(1,): 1})
AP = "AffinePermutation(n=2, window="

# (record, a fresh equal record, an unequal record of the same class, its repr)
RECORDS = [
    (
        CoefficientTable(4, 2, {(2,): 1, (1, 1): 0}),
        CoefficientTable(4, 2, {(2,): 1}),
        CoefficientTable(4, 2, {(1, 1): 1}),
        "CoefficientTable(n=4, degree=2, entries={(2,): 1})",
    ),
    (
        expand_in_affine_schur(from_window(3, [3, 2, 1])),
        ExpansionResult({(1, 1, 1): 1, (2, 1): 1}, True),
        ExpansionResult({(1, 1, 1): 1, (2, 1): 1}, False),
        "ExpansionResult(coefficients={(1, 1, 1): 1, (2, 1): 1}, exact=True)",
    ),
    (
        check_garsia_little(identity(2), 0),
        GarsiaLittleReport(
            identity(2),
            0,
            [AffinePermutation(2, (0, 3))],
            [AffinePermutation(2, (2, 1))],
            TABLE,
            CoefficientTable(2, 1, {(1,): 1}),
        ),
        GarsiaLittleReport(identity(2), 1, [], [], TABLE, TABLE),
        f"GarsiaLittleReport(v={AP}(1, 2)), r=0, plus_covers=[{AP}(0, 3))], "
        f"minus_covers=[{AP}(2, 1))], "
        "plus_table=CoefficientTable(n=2, degree=1, entries={(1,): 1}), "
        "minus_table=CoefficientTable(n=2, degree=1, entries={(1,): 1}))",
    ),
    (
        check_chevalley(identity(2), 1),
        ChevalleyReport(identity(2), 1, TABLE, TABLE, [(AffinePermutation(2, (2, 1)), 1)]),
        ChevalleyReport(identity(2), 1, TABLE, TABLE, []),
        f"ChevalleyReport(v={AP}(1, 2)), r=1, "
        "left_table=CoefficientTable(n=2, degree=1, entries={(1,): 1}), "
        "right_table=CoefficientTable(n=2, degree=1, entries={(1,): 1}), "
        f"terms=[({AP}(2, 1)), 1)])",
    ),
]

RECORD_IDS = [type(record).__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("value, same, other, text", FROZEN, ids=IDS)
def test_frozen_value_repr_equality_and_hash(value, same, other, text):
    assert repr(value) == text
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other and not value == other
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("value, same, other, text", FROZEN, ids=IDS)
def test_frozen_value_refuses_assignment_and_deletion(value, same, other, text):
    name = text.split("(", 1)[1].split("=", 1)[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == before and value == same


def test_constructors_normalise():
    assert (Reflection(3, 1, 5).a, Reflection(3, 1, 5).b) == (1, 5)
    assert (Reflection(3, 7, 5).a, Reflection(3, 7, 5).b) == (2, 4)
    assert (PQPair(3, 4, 2).p, PQPair(3, 4, 2).q) == (4, 2)
    assert (PQPair(3, 7, 5).p, PQPair(3, 7, 5).q) == (4, 2)
    assert Word(3, [1, 0, 1]).letters == (1, 0, 1)
    assert CyclicSubset(3, (2, 0, 2)).members == (0, 2)
    assert AffinePermutation(n=4, window=(1, 2, 3, 4)) == identity(4)


def test_no_equality_across_classes_with_the_same_fields():
    assert Word(3, (0, 2)) != CyclicSubset(3, (0, 2))
    assert CyclicSubset(3, (0, 2)) != Word(3, (0, 2))
    assert Reflection(3, 2, 4) != PQPair(3, 2, 4)
    assert AffinePermutation(3, (1, 2, 3)) != (3, (1, 2, 3))
    assert len({Word(3, (0, 2)), CyclicSubset(3, (0, 2))}) == 2


@pytest.mark.parametrize("value, same, other, text", FROZEN, ids=IDS)
def test_frozen_value_pickle_and_deepcopy(value, same, other, text):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == text
    if isinstance(value, AlphaDecomposition):
        assert copy.deepcopy(value).product() == value.product()


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=RECORD_IDS)
def test_record_repr_equality_and_unhashable(record, same, other, text):
    assert repr(record) == text
    assert record == same and not record != same
    assert record != other
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=RECORD_IDS)
def test_record_pickle_and_deepcopy(record, same, other, text):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record and repr(copied) == text


# the three reports take Record's constructor, one value per field in
# __slots__ order; CoefficientTable keeps its own
@pytest.mark.parametrize("record, same, other, text", RECORDS[1:], ids=RECORD_IDS[1:])
def test_report_record_takes_one_value_per_field(record, same, other, text):
    cls, values = type(record), [getattr(record, name) for name in record._fields]
    assert cls(*values) == record
    for wrong in (values[:-1], values + [None]):
        with pytest.raises(TypeError) as error:
            cls(*wrong)
        assert str(error.value) == f"{cls.__name__} takes {len(values)} fields, got {len(wrong)}"


def test_records_stay_mutable():
    result = expand_in_affine_schur(from_window(3, [3, 2, 1]))
    result.exact = False
    assert not result.exact
    table = CoefficientTable(4, 2, {(2,): 1})
    table.entries[(1, 1)] = 2
    assert table == CoefficientTable(4, 2, {(2,): 1, (1, 1): 2})
    assert CoefficientTable(4, 2) == CoefficientTable.zero(4, 2)
    report = check_garsia_little(identity(2), 0)
    report.minus_table = CoefficientTable.zero(2, 1)
    assert not report.equal

"""The constructor Record writes for a value type that only stores its fields, or checks them first."""

import inspect

import pytest

from naveval._record import Record
from naveval.align import TargetMatrix
from naveval.knowledge import KnowledgeFact
from naveval.metric import ScoreReport, ScoringInput
from naveval.stats import CorrelationReport, MetricCorrelation
from naveval.text import DirectionTaxonomy, Instruction

# CHECKED types define _check, which their generated __init__ runs first.
CHECKED = [Instruction, KnowledgeFact]
GENERATED = [ScoreReport, MetricCorrelation, CorrelationReport, *CHECKED]
WRITTEN = [DirectionTaxonomy, TargetMatrix, ScoringInput]


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__name__)
def test_signature_is_the_fields_in_order_with_no_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in params) == cls._fields
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    assert all(p.default is inspect.Parameter.empty for p in params)


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__name__)
def test_qualname_and_module_name_the_class(cls):
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


def test_missing_argument_is_a_type_error():
    with pytest.raises(TypeError) as excinfo:
        MetricCorrelation("spice_d", 0.5)
    assert str(excinfo.value) == "MetricCorrelation.__init__() missing 1 required positional argument: 'n'"


def test_unknown_keyword_is_a_type_error():
    with pytest.raises(TypeError) as excinfo:
        CorrelationReport(entries=(), n_dropped=0, n_filtered=0)
    assert str(excinfo.value) == "CorrelationReport.__init__() got an unexpected keyword argument 'n_filtered'"


def test_every_field_of_a_new_type_is_required():
    class Pair(Record):
        __slots__ = _fields = ("left", "right")

    assert Pair("a", "b") == Pair(right="b", left="a")
    assert Pair("a", "b")._values() == ("a", "b")
    with pytest.raises(TypeError) as excinfo:
        Pair("a")
    assert str(excinfo.value).endswith("Pair.__init__() missing 1 required positional argument: 'right'")


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_a_type_with_a_check_gets_the_generated_init(cls):
    assert cls.__init__.__code__.co_filename == "<string>"
    assert "_check" in cls.__dict__


def test_generated_init_of_a_new_type_runs_its_check():
    seen = []

    class Ordered(Record):
        __slots__ = _fields = ("low", "high")

        @staticmethod
        def _check(low, high):
            seen.append((low, high))
            if low > high:
                raise ValueError("low must not exceed high")

    assert Ordered(1, 2) == Ordered(high=2, low=1)
    assert seen == [(1, 2), (1, 2)]
    with pytest.raises(ValueError) as excinfo:
        Ordered(2, 1)
    assert str(excinfo.value) == "low must not exceed high"


def test_checked_stores_the_values_without_init_or_check():
    class Ordered(Record):
        __slots__ = _fields = ("low", "high")

        @staticmethod
        def _check(low, high):
            raise AssertionError("_checked ran the check")

    record = Ordered._checked(2, 1)
    assert record.__class__ is Ordered
    assert record._values() == (2, 1)
    with pytest.raises(AttributeError):
        record.low = 0
    with pytest.raises(ValueError):
        Ordered._checked(2)


@pytest.mark.parametrize("cls", WRITTEN, ids=lambda cls: cls.__name__)
def test_a_type_that_writes_its_own_init_keeps_it(cls):
    assert cls.__init__.__code__.co_filename == inspect.getfile(cls)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


def test_own_init_of_a_new_type_is_kept():
    class Checked(Record):
        __slots__ = _fields = ("value",)

        def __init__(self, value):
            if value < 0:
                raise ValueError("value must be nonnegative")
            object.__setattr__(self, "value", value)

    assert Checked.__init__.__code__.co_filename == __file__
    assert Checked(1).value == 1
    with pytest.raises(ValueError):
        Checked(-1)

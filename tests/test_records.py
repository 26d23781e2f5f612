"""The value types: construction, equality, hash, repr and immutability.

Each case is built with keyword arguments. Its repr is the text the
dataclasses these types once were gave for the same values.
"""

import copy
import pickle

import pytest

from naveval.align import TargetMatrix, target_from_word_map
from naveval.knowledge import KnowledgeFact
from naveval.metric import ScoreReport, ScoringInput
from naveval.stats import CorrelationReport, MetricCorrelation
from naveval.text import DirectionTaxonomy, Instruction

REPORT = dict(
    spice=0.5,
    spice_d=0.25,
    pr_s=1.0,
    re_s=1 / 3,
    pr_sd=0.0,
    re_sd=0.125,
    n_cand_tuples=1,
    n_ref_tuples=3,
    n_tuple_matches=1,
    n_cand_dirs=0,
    n_ref_dirs=2,
    n_dir_matches=0,
    direction_only=False,
)

# (class, keyword arguments, one field changed, repr, keyword arguments that must raise)
CASES = [
    (
        KnowledgeFact,
        dict(head="sink", relation="UsedFor", tail="washing", weight=2.5),
        dict(weight=2.0),
        "KnowledgeFact(head='sink', relation='UsedFor', tail='washing', weight=2.5)",
        dict(head="sink", relation="UsedFor", tail="washing", weight=float("nan")),
    ),
    (
        MetricCorrelation,
        dict(metric="spice_d", pearson=0.5, n=3),
        dict(n=4),
        "MetricCorrelation(metric='spice_d', pearson=0.5, n=3)",
        None,
    ),
    (
        CorrelationReport,
        dict(entries=(MetricCorrelation(metric="spice_d", pearson=0.5, n=3),), n_dropped=1),
        dict(n_dropped=0),
        "CorrelationReport(entries=(MetricCorrelation(metric='spice_d', pearson=0.5, n=3),), n_dropped=1)",
        None,
    ),
    (
        Instruction,
        dict(raw="Turn left", tokens=("turn", "left"), spans=((0, 4), (5, 9))),
        dict(raw="turn left"),
        "Instruction(raw='Turn left', tokens=('turn', 'left'), spans=((0, 4), (5, 9)))",
        dict(raw="Turn left", tokens=("turn", "left"), spans=((0, 4), (5, 10))),
    ),
    (
        DirectionTaxonomy,
        dict(name="t", classes=(("left", ("left", "turn left")),)),
        dict(name="u"),
        "DirectionTaxonomy(name='t', classes=(('left', ('left', 'turn left')),))",
        dict(name="t", classes=(("left", ("left",)), ("right", ("left",)))),
    ),
    (
        ScoreReport,
        REPORT,
        dict(direction_only=True),
        "ScoreReport(spice=0.5, spice_d=0.25, pr_s=1.0, re_s=0.3333333333333333, pr_sd=0.0, "
        "re_sd=0.125, n_cand_tuples=1, n_ref_tuples=3, n_tuple_matches=1, n_cand_dirs=0, "
        "n_ref_dirs=2, n_dir_matches=0, direction_only=False)",
        None,
    ),
    (
        ScoringInput,
        dict(instruction=None, tuples=[["Sofa"]], directions=("left",)),
        dict(directions=("right",)),
        "ScoringInput(instruction=None, tuples=frozenset({('sofa',)}), directions=('left',))",
        dict(instruction=None, tuples=[["sofa"]]),
    ),
    (
        TargetMatrix,
        dict(a_prime=[[1]]),
        dict(a_prime=[[0]]),
        "TargetMatrix(a_prime=array([[1]]))",
        dict(a_prime=[[1, 2]]),
    ),
]


@pytest.mark.parametrize("cls, kwargs, changed, text, invalid", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_behaves_as_a_frozen_value(cls, kwargs, changed, text, invalid):
    record = cls(**kwargs)
    twin = cls(*kwargs.values())
    other = cls(**{**kwargs, **changed})
    assert repr(record) == text
    assert record != other
    assert record != tuple(kwargs.values())
    assert record == twin
    if cls is TargetMatrix:
        # Hash covers the fields as a tuple does, and an array is unhashable.
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert repr(record) == text
    if invalid is not None:
        with pytest.raises(ValueError):
            cls(**invalid)


def test_defaults():
    item = ScoringInput(Instruction("left", ("left",), ((0, 4),)))
    assert item.tuples is None and item.directions is None


def test_target_matrix_equality_compares_shape_and_entries():
    """A 1x1 array compares as one bool; a larger one needs np.array_equal."""
    target = target_from_word_map([[1, 0], [0, 1]], [0, 1])
    assert copy.copy(target) == target
    assert pickle.loads(pickle.dumps(target)) == target
    assert target == TargetMatrix([[1, 0], [0, 1]])
    assert target != target_from_word_map([[1, 1], [0, 1]], [0, 1])
    assert target != target_from_word_map([[1, 0], [0, 1]], [0, 0, 1])
    with pytest.raises(TypeError):
        hash(target)


def test_taxonomy_caches_stay_out_of_equality_and_repr():
    classes = (("left", ("left", "turn left")), ("right", ("right",)))
    a = DirectionTaxonomy("t", classes)
    b = DirectionTaxonomy(name="t", classes=classes)
    assert a == b and hash(a) == hash(b)
    assert a.label_set == frozenset({"left", "right"})
    assert "_matcher" not in repr(a) and "label_set" not in repr(a)
    with pytest.raises(AttributeError):
        a.label_set = frozenset()

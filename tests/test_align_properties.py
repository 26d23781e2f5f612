"""Property tests for naveval.align; skipped when hypothesis is not installed."""

import warnings

import numpy as np
import pytest

from naveval.align import (
    attention_coverage_loss,
    build_cost,
    contrastive_loss,
    dtw_align,
    softmax_attention,
    target_from_word_map,
    validate_alignment_matrix,
)
from test_align import brute_force_min_cost

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# build_cost clips costs to [0, 2]; the brute-force oracle needs them nonnegative.
costs = st.floats(min_value=0.0, max_value=2.0, allow_subnormal=False)
# Bounded so that the logits w @ p.T stay finite: with entries up to 1e3 and at
# most 6 dimensions a logit is at most 6e6.
features = st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False)


def matrices(rows, cols, elements):
    return st.tuples(rows, cols).flatmap(lambda shape: arrays(float, shape, elements=elements))


@PROPERTY_SETTINGS
@given(matrices(st.integers(1, 6), st.integers(1, 6), costs))
def test_dtw_path_is_valid_and_minimal(cost):
    a = dtw_align(cost)
    validate_alignment_matrix(a)
    assert abs(float((a * cost).sum()) - brute_force_min_cost(cost)) < 1e-9


@st.composite
def loss_inputs(draw):
    n_subs = draw(st.integers(1, 4))
    n_panos = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 6))
    extra = draw(st.lists(st.integers(0, n_subs - 1), max_size=8))
    word_to_sub = sorted(list(range(n_subs)) + extra)
    a = dtw_align(draw(arrays(float, (n_subs, n_panos), elements=costs)))
    target = target_from_word_map(a, word_to_sub)
    words = draw(arrays(float, (len(word_to_sub), dim), elements=features))
    panoramas = draw(arrays(float, (n_panos, dim), elements=features))
    return words, panoramas, target


@PROPERTY_SETTINGS
@given(loss_inputs())
def test_losses_finite_without_warnings(inputs):
    words, panoramas, target = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        l_att = attention_coverage_loss(softmax_attention(words, panoramas), target)
        l_nce = contrastive_loss(panoramas, words, target)
    assert np.isfinite(l_att) and np.isfinite(l_nce)


@st.composite
def scaled_row(draw):
    """Two feature matrices, one row of one of them, and a power of two that leaves every entry of that row normal."""
    dim = draw(st.integers(1, 6))
    subs = draw(matrices(st.integers(1, 4), st.just(dim), features))
    panos = draw(matrices(st.integers(1, 5), st.just(dim), features))
    assume((subs != 0.0).any(axis=1).all() and (panos != 0.0).any(axis=1).all())
    side = draw(st.sampled_from([subs, panos]))
    row = draw(st.integers(0, len(side) - 1))
    k = draw(st.integers(-1070, 1070))
    with np.errstate(over="ignore"):
        scaled = np.ldexp(np.abs(side[row][side[row] != 0.0]), k)
    assume(((scaled >= np.finfo(float).tiny) & (scaled < np.inf)).all())
    return subs, panos, side, row, k


@PROPERTY_SETTINGS
@given(scaled_row())
def test_build_cost_ignores_a_power_of_two_on_a_row(inputs):
    """Squares of entries past about 2**511, or below 2**-511, leave the normal range; the costs do not change."""
    subs, panos, side, row, k = inputs
    cost = build_cost(subs, panos)
    side[row] = np.ldexp(side[row], k)
    assert build_cost(subs, panos).tobytes() == cost.tobytes()

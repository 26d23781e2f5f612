"""DTW alignment between feature sequences and the alignment-guided losses.

Sub-instruction features are warped onto panorama features with dynamic time
warping over cosine-distance costs. The binary alignment matrix is expanded to
word level and drives two auxiliary losses: an attention-coverage term and a
softmax contrastive term.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, chain, islice

import numpy as np

from ._record import Record, _set

DEFAULT_EPS = 1e-8
DEFAULT_LAMBDA1 = 1.0
DEFAULT_LAMBDA2 = 1.0

# Attention rows must sum to 1 within this tolerance.
ATTENTION_ROW_TOL = 1e-6


def _as_array(value: object, name: str, dtype: type | None = None) -> np.ndarray:
    """np.asarray(value, dtype); a value numpy cannot convert, a ragged one say, is named in the error."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a rectangular array of numbers: {exc}") from None


def _is_integer(value: object) -> bool:
    # The one rule for a count or an index: a Python or numpy integer, not a bool.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_hidden_matrix(value: object, name: str) -> np.ndarray:
    """Coerce a sequence of equal-length feature vectors to a finite 2-D float array."""
    arr = _as_array(value, name, float)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


def _matching_widths(a: object, a_name: str, b: object, b_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Coerce two feature matrices and check that their rows have the same width."""
    x, y = _as_hidden_matrix(a, a_name), _as_hidden_matrix(b, b_name)
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {a_name} have {x.shape[1]}, {b_name} have {y.shape[1]}")
    return x, y


def _unit_rows(arr: np.ndarray, name: str) -> np.ndarray:
    # The ufuncs np.linalg.norm(arr, axis=1) runs for real input, without its
    # wrapper and its conj() copy, so the norms are the same bits.
    norms = np.sqrt(np.add.reduce(arr * arr, axis=1))
    if not norms.all():
        raise ValueError(f"zero-norm vector at {name}[{np.flatnonzero(norms == 0.0)[0]}]")
    return arr / norms[:, None]


def build_cost(sub_instructions: object, panoramas: object) -> np.ndarray:
    """Pairwise cosine-distance cost matrix, entries clipped to [0, 2]."""
    subs, panos = _matching_widths(sub_instructions, "sub_instructions", panoramas, "panoramas")
    cost = _unit_rows(subs, "sub_instructions") @ _unit_rows(panos, "panoramas").T
    # In place, the ufuncs of `1.0 - cost` and np.clip. 1.0 - x is never -0.0,
    # so an entry clipped at 0 is +0.0.
    np.subtract(1.0, cost, out=cost)
    return cost.clip(0.0, 2.0, out=cost)


def dtw_align(cost: object) -> np.ndarray:
    """Minimum-cost monotone alignment through the cost matrix.

    The path runs from the top-left cell to the bottom-right cell with steps
    that advance the sub-instruction index, the panorama index, or both. Ties
    during backtracking prefer the diagonal predecessor, then the vertical one
    (previous sub-instruction), then the horizontal one, which makes the
    returned binary matrix deterministic.

    Raises ValueError when the accumulated cost of the best path overflows.
    """
    c = _as_hidden_matrix(cost, "cost matrix")
    m, n = c.shape
    # The DP runs on Python floats, which add exactly as float64 does, so
    # every value and tie matches the numpy-scalar loop kept in the tests
    # without boxing a np.float64 per cell. A prefix scan (cumsum/accumulate
    # over numpy rows) would reassociate the additions and could break ties
    # differently.
    rows = c.tolist()
    acc = [list(accumulate(rows[0]))]
    for row in rows[1:]:
        # Column 0 has only the vertical predecessor; inf stands in for the others.
        diag = left = math.inf
        cur = []
        for cij, vert in zip(row, acc[-1]):
            # min(diag, vert, left), keeping the first of equal values as min does.
            best = diag
            if vert < best:
                best = vert
            if left < best:
                best = left
            left = cij + best
            cur.append(left)
            diag = vert
        acc.append(cur)
    if not math.isfinite(acc[-1][-1]):
        raise ValueError("cost matrix accumulates to a non-finite path cost")

    i, j = m - 1, n - 1
    path = [i * n + j]
    while i and j:
        diag, vert, horiz = acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]
        best = min(diag, vert, horiz)
        if diag == best:
            i, j = i - 1, j - 1
        elif vert == best:
            i -= 1
        else:
            j -= 1
        path.append(i * n + j)
    # On the first row or column the rest of the path is forced.
    path.extend(range(j - 1, -1, -1) if i == 0 else range((i - 1) * n, -1, -n))
    a = np.zeros((m, n), dtype=int)
    a.put(path, 1)
    return a


def _as_binary(value: object, name: str) -> np.ndarray:
    """Check for a nonempty 2-D array whose entries are all 0 or 1."""
    arr = _as_array(value, name)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr


def validate_alignment_matrix(a: object) -> None:
    """Raise ValueError unless the matrix is a single monotone staircase path.

    Checks: binary entries, both corner cells set, and the set cells form one
    connected path using only right/down/diagonal steps. Such a path visits
    every row and column.
    """
    arr = _as_binary(a, "alignment matrix")
    m, n = arr.shape
    rows, cols = np.nonzero(arr)
    ones = set(zip(rows.tolist(), cols.tolist()))
    if (0, 0) not in ones or (m - 1, n - 1) not in ones:
        raise ValueError("alignment path must start at (0, 0) and end at the opposite corner")
    # A valid monotone path is forced: whenever the cell to the right (or below,
    # or diagonally below-right) is set, that must be the next path cell.
    i, j = 0, 0
    visited = 1
    while (i, j) != (m - 1, n - 1):
        if (i, j + 1) in ones:
            j += 1
        elif (i + 1, j) in ones:
            i += 1
        elif (i + 1, j + 1) in ones:
            i, j = i + 1, j + 1
        else:
            raise ValueError(f"alignment path breaks after cell ({i}, {j})")
        visited += 1
    if visited != len(ones):
        raise ValueError("alignment matrix holds cells outside the path")


class TargetMatrix(Record):
    """Word-level alignment targets: row o copies the alignment row of the sub-instruction owning word o."""

    __slots__ = _fields = ("a_prime",)

    def __init__(self, a_prime: np.ndarray) -> None:
        # The one 0/1 check of a target; the losses trust it, so keep a
        # read-only copy whose checked entries cannot change later.
        arr = np.array(_as_binary(a_prime, "target matrix"))
        arr.flags.writeable = False
        _set(self, "a_prime", arr)

    def __eq__(self, other: object) -> bool:
        # Record's tuple comparison would ask an array of booleans for one truth value.
        if other.__class__ is self.__class__:
            return np.array_equal(self.a_prime, other.a_prime)  # type: ignore[attr-defined]
        return NotImplemented


def expand_alignment(a: object, spans: Sequence[tuple[int, int]], n_words: int) -> TargetMatrix:
    """Expand a sub-instruction alignment to word level via the chunk spans.

    The (start, end) token spans, as chunk_instruction gives them, must
    partition [0, n_words) in order, one per alignment row. Word o's target
    row is the alignment row of the span that covers it.
    """
    if not _is_integer(n_words):
        raise ValueError(f"n_words must be an integer, got {n_words!r}")
    if n_words < 1:
        raise ValueError("n_words must be >= 1")
    # The words covered so far, as disjoint [start, end) runs sorted by start,
    # and so by end: the work grows with the spans, not with n_words.
    starts: list[int] = []
    ends: list[int] = []
    bounds = []
    covered = 0
    for k, (start, end) in enumerate(spans):
        for name, bound in (("start", start), ("end", end)):
            if not _is_integer(bound):
                raise ValueError(f"spans[{k}] {name} must be an integer, got {bound!r}")
        start, end = int(start), int(end)
        if not (0 <= start < end <= n_words):
            raise ValueError(f"sub-instruction span ({start}, {end}) out of range for {n_words} words")
        # Runs before i end by start; run i, if it starts before end, holds the first word covered twice.
        i = bisect_right(ends, start)
        if i < len(starts) and starts[i] < end:
            raise ValueError(f"word {max(start, starts[i])} is covered by more than one sub-instruction span")
        starts.insert(i, start)
        ends.insert(i, end)
        bounds.append((start, end))
        covered += end - start
    if covered != n_words:
        # The first ten uncovered words, from the gaps between the runs, and how many there are.
        gaps = zip([0, *ends], [*starts, n_words])
        uncovered = list(islice(chain.from_iterable(range(*gap) for gap in gaps), 10))
        more = n_words - covered - len(uncovered)
        tail = f" and {more} more ({n_words - covered} in all)" if more else ""
        raise ValueError(f"words not covered by any sub-instruction span: {uncovered}{tail}")
    arr = _as_array(a, "alignment matrix")
    validate_alignment_matrix(arr)
    if len(bounds) != len(arr):
        raise ValueError(f"sub-instruction spans ({len(bounds)}) do not match the alignment rows ({len(arr)})")
    # The spans partition the words, so they are in order when each starts where the one before ends.
    for before, span in zip(bounds, bounds[1:]):
        if span[0] != before[1]:
            raise ValueError(f"sub-instruction spans out of order: {span} does not start where {before} ends")
    return _target_rows(arr.repeat([end - start for start, end in bounds], axis=0))


def target_from_word_map(a: object, word_to_sub: Sequence[int]) -> TargetMatrix:
    """Build the word-level target matrix from an explicit word-to-chunk map.

    The map must be non-decreasing and cover every alignment row, as produced
    by an in-order chunk partition.
    """
    arr = _as_array(a, "alignment matrix")
    validate_alignment_matrix(arr)
    m = arr.shape[0]
    owner = list(word_to_sub)
    for o, k in enumerate(owner):
        if not _is_integer(k):
            raise ValueError(f"word_to_sub[{o}] must be an integer, got {k!r}")
        if not 0 <= k < m:
            raise ValueError(f"word_to_sub[{o}] = {k} out of range for {m} sub-instructions")
    if not owner:
        raise ValueError("word_to_sub must be nonempty")
    if owner != sorted(owner):
        raise ValueError("word_to_sub must be non-decreasing")
    if len(set(owner)) != m:
        raise ValueError(f"word_to_sub must cover every one of the {m} sub-instructions")
    return _target_rows(arr.take(owner, axis=0))


def _target_rows(a_prime: np.ndarray) -> TargetMatrix:
    # Each word's row of a matrix just validated, every row in order, in a new
    # array no caller holds: no copy, no second 0/1 check.
    a_prime.flags.writeable = False
    return TargetMatrix._checked(a_prime)


def _as_target(a_prime: object) -> np.ndarray:
    if isinstance(a_prime, TargetMatrix):
        return a_prime.a_prime
    return _as_binary(a_prime, "target matrix")


def attention_coverage_loss(beta: object, a_prime: object, eps: float = DEFAULT_EPS) -> float:
    """Coverage loss over attention mass on aligned and unaligned viewpoints.

    Per word: -log(sum of attention on aligned viewpoints) minus
    log(sum of one-minus-attention over unaligned viewpoints), both sums
    clamped below at eps, averaged over words. The second sum can exceed 1
    when several viewpoints are unaligned, so the value may be negative for
    sharp attention. It is exactly 0 when each word puts all its attention on
    aligned viewpoints and has exactly one unaligned viewpoint. A word whose
    viewpoints are all aligned scores -log(eps), 18.42 at the default eps.

    The target is checked first, then the attention, then eps.
    """
    target = _as_target(a_prime)
    b = _as_array(beta, "attention", float)
    if b.shape != target.shape:
        raise ValueError(f"attention shape {b.shape} does not match target shape {target.shape}")
    # min and max are NaN when any entry is, so this passes exactly the
    # attention whose entries are all finite and in [0, 1].
    if not (b.min() >= 0.0 and b.max() <= 1.0):
        if not np.isfinite(b).all():
            raise ValueError("attention entries must be finite")
        raise ValueError("attention entries must lie in [0, 1]")
    if np.abs(b.sum(axis=1) - 1.0).max() > ATTENTION_ROW_TOL:
        raise ValueError("attention rows must sum to 1")
    return _coverage_loss(b, target, eps)


def _coverage_loss(b: np.ndarray, target: np.ndarray, eps: float) -> float:
    # b has the target's shape and is a checked attention or a softmax just
    # built. The library's one eps check is here, after the other inputs'.
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    aligned = (target * b).sum(axis=1)
    unaligned = ((1.0 - target) * (1.0 - b)).sum(axis=1)
    per_word = np.log(np.maximum(aligned, eps, out=aligned), out=aligned)
    per_word += np.log(np.maximum(unaligned, eps, out=unaligned), out=unaligned)
    # sum / size is the float64 division numpy's mean does; 0.0 - x is -x
    # except that a zero loss stays +0.0.
    return 0.0 - float(per_word.sum() / per_word.size)


def _logsumexp(x: np.ndarray) -> np.ndarray:
    # Row-wise log(sum(exp(x))), shifted by the row maximum so that nothing
    # overflows and a row's largest entry never underflows.
    top = x.max(axis=1, keepdims=True)
    shifted = x - top
    total = np.exp(shifted, out=shifted).sum(axis=1, keepdims=True)
    total = np.log(total, out=total)
    total += top
    return total


def _log_softmax(words: object, panoramas: object) -> tuple[np.ndarray, np.ndarray]:
    """Each word's log-softmax over the panoramas, factored: the word-panorama products and each row's logsumexp."""
    w, p = _matching_widths(words, "words", panoramas, "panoramas")
    # Finite features can still give products that overflow; the one check
    # of that, for every loss, is the ValueError below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = w @ p.T
    del w, p  # free the float64 feature copies before the logsumexp
    if not np.isfinite(logits).all():
        raise ValueError("word-panorama products must be finite")
    return logits, _logsumexp(logits)


def contrastive_loss(panoramas: object, words: object, a_prime: object) -> float:
    """Softmax contrastive loss pulling word features toward aligned panoramas.

    For each word the logits are its dot products with every panorama feature;
    the loss is the negative log of the softmax mass on aligned viewpoints,
    averaged over words. It is computed in log space, as the logsumexp over
    the aligned logits minus the logsumexp over the row, so it is finite for
    finite features and invariant to adding a per-word constant.
    """
    return _contrastive_loss(*_log_softmax(words, panoramas), _as_target(a_prime))


def _contrastive_loss(logits: np.ndarray, norm: np.ndarray, target: np.ndarray) -> float:
    if target.shape != logits.shape:
        n_w, n_p = logits.shape
        raise ValueError(f"target shape {target.shape} does not match ({n_w} words, {n_p} panoramas)")
    covered = target.any(axis=1)
    if not covered.all():
        raise ValueError(f"target row {np.flatnonzero(~covered)[0]} has no aligned viewpoint")
    per_word = _logsumexp(np.where(target > 0, logits, -np.inf))
    per_word -= norm
    return 0.0 - float(per_word.sum() / per_word.size)


def softmax_attention(words: object, panoramas: object) -> np.ndarray:
    """Row-softmax of word-panorama dot products; rows sum to 1."""
    return _softmax(*_log_softmax(words, panoramas))


def _softmax(logits: np.ndarray, norm: np.ndarray) -> np.ndarray:
    logits -= norm
    return np.exp(logits, out=logits)


def alignment_losses(words: object, panoramas: object, a_prime: object, eps: float = DEFAULT_EPS) -> tuple[float, float]:
    """Both losses, (l_att, l_nce), from one log-softmax of the word-panorama products.

    The same bits as attention_coverage_loss(softmax_attention(words,
    panoramas), a_prime, eps) and contrastive_loss(panoramas, words, a_prime).
    Each input is checked once: the features and their products, then the
    target, then eps. The softmax built here is not checked again.
    """
    logits, norm = _log_softmax(words, panoramas)
    target = _as_target(a_prime)
    # l_nce reads the products before _softmax overwrites them.
    l_nce = _contrastive_loss(logits, norm, target)
    return _coverage_loss(_softmax(logits, norm), target, eps), l_nce


def total_loss(
    ce: float,
    l_att: float,
    l_nce: float,
    lambda1: float = DEFAULT_LAMBDA1,
    lambda2: float = DEFAULT_LAMBDA2,
) -> float:
    """Weighted training objective: ce + lambda1 * l_att + lambda2 * l_nce."""
    values = (("ce", ce), ("l_att", l_att), ("l_nce", l_nce), ("lambda1", lambda1), ("lambda2", lambda2))
    for name, v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if lambda1 < 0.0 or lambda2 < 0.0:
        raise ValueError("loss weights must be nonnegative")
    return float(ce + lambda1 * l_att + lambda2 * l_nce)

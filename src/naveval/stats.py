"""Pearson correlation between metric scores and human judgments."""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from ._record import Record


def _scaled(values: list[float]) -> list[float]:
    """values times the power of two that brings the largest magnitude into [0.5, 1).

    Pearson's r does not change under scaling, and scaling by a power of two
    is exact, so r reads the same bits for a series whose squares and
    products stay in the float range, and is exact for one whose would
    overflow or fall to subnormals. ldexp, because 2.0 ** -e overflows for a
    subnormal maximum.
    """
    e = -math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, e) for v in values]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson product-moment correlation of two equal-length series.

    Raises ValueError on a value that is nan or an infinity, length mismatch,
    fewer than two points, or a constant series (undefined correlation).
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
        raise ValueError("values must be finite")
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("at least two points are required")
    if min(xs) == max(xs) or min(ys) == max(ys):  # exactly: the float mean of equal values need not equal them
        raise ValueError("correlation is undefined for a constant series")
    xs, ys = _scaled(xs), _scaled(ys)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = [v - mx for v in xs]
    dy = [v - my for v in ys]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))  # as scipy.stats.pearsonr: rounding can pass ±1


class MetricCorrelation(Record):
    __slots__ = _fields = ("metric", "pearson", "n")


class CorrelationReport(Record):
    """Per-metric correlations sorted best-first, plus row-deletion bookkeeping."""

    __slots__ = _fields = ("entries", "n_dropped")


def correlate_metrics(
    metric_columns: Mapping[str, Sequence[float | None]],
    human: Sequence[float | None],
) -> CorrelationReport:
    """Correlate each metric column with the human column.

    Rows where any metric or the human value is missing (None) are dropped
    entirely and counted. Entries come back sorted by correlation descending;
    ties keep the input column order.
    """
    if not metric_columns:
        raise ValueError("at least one metric column is required")
    n_rows = len(human)
    for name, column in metric_columns.items():
        if len(column) != n_rows:
            raise ValueError(f"column {name!r} has {len(column)} rows, expected {n_rows}")

    keep = [
        i
        for i in range(n_rows)
        if human[i] is not None and all(col[i] is not None for col in metric_columns.values())
    ]
    n_used = len(keep)
    if n_used < 2:
        raise ValueError(f"need at least two complete rows, got {n_used}")

    human_kept = [float(human[i]) for i in keep]  # type: ignore[arg-type]
    if not all(map(math.isfinite, human_kept)):
        raise ValueError("human column: values must be finite")
    if min(human_kept) == max(human_kept):
        raise ValueError("human column: correlation is undefined for a constant series")
    entries = []
    for name, column in metric_columns.items():
        try:
            r = pearson([float(column[i]) for i in keep], human_kept)  # type: ignore[arg-type]
        except ValueError as exc:
            raise ValueError(f"column {name!r}: {exc}") from None
        entries.append(MetricCorrelation(metric=name, pearson=r, n=n_used))
    entries.sort(key=lambda e: -e.pearson)
    return CorrelationReport(entries=tuple(entries), n_dropped=n_rows - n_used)

"""Top-K weighted fact retrieval from a local TSV knowledge base."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from numbers import Real
from pathlib import Path

from ._record import Record, _fold, _is_integer, _read_text

DEFAULT_TOP_K = 3


def _check_fact(head: str, relation: str, tail: str, weight: float) -> None:
    if not (isinstance(head, str) and isinstance(relation, str) and isinstance(tail, str)):
        fields = (("head", head), ("relation", relation), ("tail", tail))
        name, value = next((name, value) for name, value in fields if not isinstance(value, str))
        raise ValueError(f"fact {name} must be a string, got {value!r}")
    if not (head and relation and tail):
        raise ValueError("fact fields must be nonempty")
    # load_kb's weights are floats, and the ABC check costs each about 1 us.
    if not isinstance(weight, float) and (isinstance(weight, bool) or not isinstance(weight, Real)):
        raise ValueError(f"fact weight must be a real number, got {weight!r}")
    if not math.isfinite(weight):
        raise ValueError(f"fact weight must be finite, got {weight}")


class KnowledgeFact(Record):
    __slots__ = _fields = ("head", "relation", "tail", "weight")
    _check = staticmethod(_check_fact)


# A checked fact as the index holds it: (head, relation, tail, weight).
_Row = tuple[str, str, str, float]


class KnowledgeBase:
    """Immutable index from folded head entity to its facts, in file order."""

    def __init__(self, rows: Iterable[Sequence]) -> None:
        """Index (head, relation, tail, weight) rows, each checked as KnowledgeFact checks its fields."""
        rows = [tuple(row) for row in rows]
        for row in rows:
            _check_fact(*row)
        self._fill(rows)

    @classmethod
    def _checked(cls, rows: list[_Row]) -> KnowledgeBase:
        """The index of rows that load_kb has just checked, with no second check."""
        kb = object.__new__(cls)
        kb._fill(rows)
        return kb

    def _fill(self, rows: list[_Row]) -> None:
        index: dict[str, list[_Row]] = {}
        for row in rows:
            index.setdefault(_fold(row[0]), []).append(row)
        self._index = index
        self._n_facts = len(rows)

    def _rows(self, entity: str) -> list[_Row]:
        return self._index.get(_fold(entity), [])

    @property
    def n_facts(self) -> int:
        return self._n_facts


def load_kb(path: str | Path) -> KnowledgeBase:
    """Load a tab-separated knowledge base: head, relation, tail, weight.

    Blank lines and lines starting with '#' are skipped. All malformed rows
    are reported together, with their line numbers.
    """
    rows: list[_Row] = []
    problems: list[str] = []
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            problems.append(f"line {lineno}: expected 4 tab-separated columns, got {len(parts)}")
            continue
        head, relation, tail, weight_text = map(str.strip, parts)
        try:
            weight = float(weight_text)
        except ValueError:
            problems.append(f"line {lineno}: non-numeric weight {weight_text!r}")
            continue
        try:
            _check_fact(head, relation, tail, weight)
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        rows.append((head, relation, tail, weight))
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return KnowledgeBase._checked(rows)


def retrieve_facts(kb: KnowledgeBase, entity: str, k: int = DEFAULT_TOP_K) -> list[KnowledgeFact]:
    """Top-k facts for an entity, by weight descending.

    Ties break by relation then tail, ascending, so the ranking is total and
    deterministic. Unknown entities yield an empty list.
    """
    if not _is_integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(kb._rows(entity), key=lambda row: (-row[3], row[1], row[2]))
    return [KnowledgeFact._checked(*row) for row in ranked[:k]]

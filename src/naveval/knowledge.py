"""Detection filtering and top-K fact retrieval from a local knowledge base."""

from __future__ import annotations

import math
from collections.abc import Iterable
from pathlib import Path

from ._record import Record, _set

DEFAULT_CONFIDENCE_THRESHOLD = 0.5
DEFAULT_TOP_K = 3


class Detection(Record):
    """One detected object label with its confidence at a trajectory step."""

    __slots__ = _fields = ("label", "confidence", "step")

    def __init__(self, label: str, confidence: float, step: int) -> None:
        if not label:
            raise ValueError("detection label must be nonempty")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"detection confidence must be in [0, 1], got {confidence}")
        _set(self, "label", label)
        _set(self, "confidence", confidence)
        _set(self, "step", step)


class EntitySet(Record):
    """Entities that survived confidence filtering at one step."""

    __slots__ = _fields = ("step", "entities")

    def __init__(self, step: int, entities: frozenset[str]) -> None:
        _set(self, "step", step)
        _set(self, "entities", entities)


def _check_fact(head: str, relation: str, tail: str, weight: float) -> None:
    if not (head and relation and tail):
        raise ValueError("fact fields must be nonempty")
    if not math.isfinite(weight):
        raise ValueError(f"fact weight must be finite, got {weight}")


class KnowledgeFact(Record):
    __slots__ = _fields = ("head", "relation", "tail", "weight")

    def __init__(self, head: str, relation: str, tail: str, weight: float) -> None:
        _check_fact(head, relation, tail, weight)
        _set(self, "head", head)
        _set(self, "relation", relation)
        _set(self, "tail", tail)
        _set(self, "weight", weight)


class KnowledgeBaseError(ValueError):
    """Raised for unreadable or malformed knowledge-base files."""


# A checked fact as the index holds it: (head, relation, tail, weight).
_Row = tuple[str, str, str, float]


class KnowledgeBase:
    """Immutable index from lowercase head entity to its facts, in file order."""

    def __init__(self, facts: Iterable[KnowledgeFact] = ()):
        self._index_rows((f.head, f.relation, f.tail, f.weight) for f in facts)

    @classmethod
    def _from_rows(cls, rows: Iterable[_Row]) -> KnowledgeBase:
        kb = cls.__new__(cls)
        kb._index_rows(rows)
        return kb

    def _index_rows(self, rows: Iterable[_Row]) -> None:
        index: dict[str, list[_Row]] = {}
        count = 0
        for row in rows:
            index.setdefault(row[0].lower(), []).append(row)
            count += 1
        self._index = index
        self._n_facts = count

    def _rows(self, entity: str) -> list[_Row]:
        return self._index.get(entity.lower(), [])

    def facts_for(self, entity: str) -> tuple[KnowledgeFact, ...]:
        return tuple(KnowledgeFact(*row) for row in self._rows(entity))

    @property
    def n_facts(self) -> int:
        return self._n_facts

    def __len__(self) -> int:
        return len(self._index)


def gather_entities(
    detections: Iterable[Detection], threshold: float = DEFAULT_CONFIDENCE_THRESHOLD
) -> list[EntitySet]:
    """Group detections by step and keep labels with confidence strictly above threshold.

    Every step present in the input appears in the output (possibly with an
    empty entity set), in ascending step order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    by_step: dict[int, set[str]] = {}
    for det in detections:
        labels = by_step.setdefault(det.step, set())
        if det.confidence > threshold:
            labels.add(det.label)
    return [EntitySet(step=step, entities=frozenset(by_step[step])) for step in sorted(by_step)]


def load_kb(path: str | Path) -> KnowledgeBase:
    """Load a tab-separated knowledge base: head, relation, tail, weight.

    Blank lines and lines starting with '#' are skipped. All malformed rows
    are reported together, with their line numbers.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise KnowledgeBaseError(f"{path}: not valid UTF-8 (byte {exc.start})") from None
    rows: list[_Row] = []
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
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
        raise KnowledgeBaseError(f"{path}: " + "; ".join(problems))
    return KnowledgeBase._from_rows(rows)


def retrieve_facts(kb: KnowledgeBase, entity: str, k: int = DEFAULT_TOP_K) -> list[KnowledgeFact]:
    """Top-k facts for an entity, by weight descending.

    Ties break by relation then tail, ascending, so the ranking is total and
    deterministic. Unknown entities yield an empty list.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(kb._rows(entity), key=lambda row: (-row[3], row[1], row[2]))
    return [KnowledgeFact(*row) for row in ranked[:k]]

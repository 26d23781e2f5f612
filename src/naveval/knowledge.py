"""Detection filtering and top-K fact retrieval from a local knowledge base."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

DEFAULT_CONFIDENCE_THRESHOLD = 0.5
DEFAULT_TOP_K = 3


@dataclass(frozen=True)
class Detection:
    """One detected object label with its confidence at a trajectory step."""

    label: str
    confidence: float
    step: int

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("detection label must be nonempty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"detection confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class EntitySet:
    """Entities that survived confidence filtering at one step."""

    step: int
    entities: frozenset[str]


@dataclass(frozen=True)
class KnowledgeFact:
    head: str
    relation: str
    tail: str
    weight: float

    def __post_init__(self) -> None:
        if not (self.head and self.relation and self.tail):
            raise ValueError("fact fields must be nonempty")
        if not math.isfinite(self.weight):
            raise ValueError(f"fact weight must be finite, got {self.weight}")


class KnowledgeBaseError(ValueError):
    """Raised for unreadable or malformed knowledge-base files."""


class KnowledgeBase:
    """Immutable index from lowercase head entity to its facts, in file order."""

    def __init__(self, facts: Iterable[KnowledgeFact] = ()):
        index: dict[str, list[KnowledgeFact]] = {}
        count = 0
        for fact in facts:
            index.setdefault(fact.head.lower(), []).append(fact)
            count += 1
        self._index = {head: tuple(fs) for head, fs in index.items()}
        self._n_facts = count

    def facts_for(self, entity: str) -> tuple[KnowledgeFact, ...]:
        return self._index.get(entity.lower(), ())

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
    facts: list[KnowledgeFact] = []
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            problems.append(f"line {lineno}: expected 4 tab-separated columns, got {len(parts)}")
            continue
        head, relation, tail, weight_text = (p.strip() for p in parts)
        try:
            weight = float(weight_text)
        except ValueError:
            problems.append(f"line {lineno}: non-numeric weight {weight_text!r}")
            continue
        try:
            facts.append(KnowledgeFact(head=head, relation=relation, tail=tail, weight=weight))
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise KnowledgeBaseError(f"{path}: " + "; ".join(problems))
    return KnowledgeBase(facts)


def retrieve_facts(kb: KnowledgeBase, entity: str, k: int = DEFAULT_TOP_K) -> list[KnowledgeFact]:
    """Top-k facts for an entity, by weight descending.

    Ties break by relation then tail, ascending, so the ranking is total and
    deterministic. Unknown entities yield an empty list.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(kb.facts_for(entity), key=lambda f: (-f.weight, f.relation, f.tail))
    return ranked[:k]

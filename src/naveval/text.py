"""Tokenization, direction taxonomies, direction labels, and sub-instruction chunking."""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from pathlib import Path

from ._record import Record, _fold, _read_text, _set

# The punctuation characters that separate tokens, as whitespace does. A token
# is a maximal run of characters other than whitespace and these.
_SEPARATORS = '.,;:!?"'
# The separators that also end a clause: all but the quotation mark.
_CLAUSE_MARKS = frozenset(_SEPARATORS) - {'"'}

# Tokens that open a new sub-instruction chunk.
BOUNDARY_TOKENS = frozenset({"and", "then"})


def data_dir() -> Path:
    """Root of the bundled data files. The NAVEVAL_DATA_DIR env var overrides it."""
    override = os.environ.get("NAVEVAL_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


class Instruction(Record):
    """A tokenized instruction plus per-token character spans into the raw text."""

    __slots__ = _fields = ("raw", "tokens", "spans")

    @staticmethod
    def _check(raw: str, tokens: tuple[str, ...], spans: tuple[tuple[int, int], ...]) -> None:
        if len(tokens) != len(spans):
            raise ValueError("tokens and spans must have equal length")
        prev_end = 0
        for tok, (start, end) in zip(tokens, spans):
            if tok.split() != [tok]:
                raise ValueError(f"invalid token {tok!r}: tokens must be nonempty and whitespace-free")
            if not (0 <= start < end <= len(raw)) or start < prev_end:
                raise ValueError("token spans must be strictly increasing and within the raw text")
            prev_end = end

    def __len__(self) -> int:
        return len(self.tokens)


def _spaced(raw: str) -> str:
    """raw with each separator punctuation character replaced by one space."""
    for separator in _SEPARATORS:
        raw = raw.replace(separator, " ")
    return raw


def tokenize(raw: str) -> Instruction:
    """Split raw text into lowercase tokens, the words of _words, with their spans.

    Spans are found in the spaced text before it is folded, so they index raw
    even where _fold changes a word's length. A word holds no whitespace and
    only whitespace precedes it, so its first match at or after the previous
    word's end is the word itself.
    Total: any string, including the empty one, yields a valid Instruction.
    """
    spaced = _spaced(raw)
    spans = []
    end = 0
    for word in spaced.split():
        start = spaced.index(word, end)
        end = start + len(word)
        spans.append((start, end))
    return Instruction._checked(raw, tuple(_fold(spaced).split()), tuple(spans))


def _words(raw: str) -> tuple[str, ...]:
    """The lowercase tokens of raw: the maximal runs of characters other than
    whitespace and the separator punctuation .,;:!?\".

    Apostrophes and hyphens are kept, so "o'clock" and "u-turn" stay single
    tokens. The separators are spaced out before the text is folded, because
    capital sigma lowers by context and "." and ":" do not end that context:
    "ΑΣ.Β" gives ("ας", "β"), as each token lowered on its own does.
    """
    return tuple(_fold(_spaced(raw)).split())


class DirectionTaxonomy(Record):
    """Named direction classes, each with the phrase strings that signal it.

    Phrases are compared at the token level, so two spellings that tokenize
    identically may not live under different classes.
    """

    _fields = ("name", "classes")
    __slots__ = _fields + ("_matcher", "label_set")

    def __init__(self, name: str, classes: tuple[tuple[str, tuple[str, ...]], ...]) -> None:
        _set(self, "name", name)
        _set(self, "classes", classes)
        if not name:
            raise ValueError("taxonomy name must be nonempty")
        index: dict[tuple[str, ...], str] = {}
        seen: set[str] = set()
        for label, phrases in classes:
            if not label:
                raise ValueError("direction class labels must be nonempty")
            if label in seen:
                raise ValueError(f"duplicate direction class {label!r}")
            seen.add(label)
            for phrase in phrases:
                toks = _words(phrase)
                if not toks:
                    raise ValueError(f"phrase {phrase!r} in class {label!r} is empty after tokenization")
                owner = index.get(toks)
                if owner is not None and owner != label:
                    raise ValueError(f"phrase {phrase!r} appears under both {owner!r} and {label!r}")
                index[toks] = label
        # Greedy matcher: (phrase, label) grouped by first token, longest first.
        matcher: dict[str, list[tuple[tuple[str, ...], str]]] = {}
        for toks, label in index.items():
            matcher.setdefault(toks[0], []).append((toks, label))
        for options in matcher.values():
            options.sort(key=lambda option: (-len(option[0]), option[0]))
        _set(self, "_matcher", matcher)
        _set(self, "label_set", frozenset(seen))

    @classmethod
    def from_mapping(cls, obj: object) -> "DirectionTaxonomy":
        """Build a taxonomy from the JSON shape {"name": ..., "classes": [{"label","phrases"}]}."""
        if not isinstance(obj, dict):
            raise ValueError("taxonomy document must be a JSON object")
        name = obj.get("name")
        classes = obj.get("classes")
        if not isinstance(name, str) or not name:
            raise ValueError("taxonomy 'name' must be a nonempty string")
        if not isinstance(classes, list) or not classes:
            raise ValueError("taxonomy 'classes' must be a nonempty list")
        parsed: list[tuple[str, tuple[str, ...]]] = []
        for entry in classes:
            if not isinstance(entry, dict):
                raise ValueError("each taxonomy class must be an object")
            label = entry.get("label")
            phrases = entry.get("phrases")
            if not isinstance(label, str) or not label:
                raise ValueError("class 'label' must be a nonempty string")
            if (
                not isinstance(phrases, list)
                or not phrases
                or not all(isinstance(p, str) for p in phrases)
            ):
                raise ValueError(f"class {label!r}: 'phrases' must be a nonempty list of strings")
            parsed.append((label, tuple(phrases)))
        return cls(name=name, classes=tuple(parsed))


def load_taxonomy(source: str | Path) -> DirectionTaxonomy:
    """Load a taxonomy from a JSON file path or by bare name from the data dir.

    A bare name like "r2r" resolves to <data_dir>/taxonomies/<name>.json, even
    when a file of that name exists in the working directory. A string that
    ends in .json or contains a path separator, and any Path, is read directly.
    """
    return DirectionTaxonomy.from_mapping(json.loads(_read_text(_taxonomy_path(source))))


def _taxonomy_path(source: str | Path) -> str | Path:
    """The file load_taxonomy reads for source: a path-like source as it is given."""
    if isinstance(source, str) and not _looks_like_path(source):
        return data_dir() / "taxonomies" / f"{source}.json"
    return source


def _looks_like_path(s: str) -> bool:
    return s.endswith(".json") or os.sep in s or bool(os.altsep and os.altsep in s)


def _labels(tokens: tuple[str, ...], taxonomy: DirectionTaxonomy) -> list[str]:
    """direction_labels on the tokens alone.

    Only a position whose token begins some phrase can match, so only those
    positions are tried.
    """
    matcher: dict[str, list[tuple[tuple[str, ...], str]]] = taxonomy._matcher  # type: ignore[attr-defined]
    labels: list[str] = []
    end = 0  # the scan resumes here
    for start in [i for i, tok in enumerate(tokens) if tok in matcher]:
        if start < end:
            continue
        for phrase, label in matcher[tokens[start]]:
            if tokens[start : start + len(phrase)] == phrase:
                end = start + len(phrase)
                labels.append(label)
                break
    return labels


def direction_labels(instruction: Instruction, taxonomy: DirectionTaxonomy) -> list[str]:
    """The ordered direction-class labels of a greedy longest-match scan, left to right.

    At each token position the longest matching phrase from any class wins and
    the scan resumes past it, so matched phrases never overlap.
    """
    return _labels(instruction.tokens, taxonomy)


def load_verb_lexicon(path: str | Path | None = None) -> frozenset[str]:
    """Read the action-verb lexicon: one lowercase verb per line, '#' comments allowed."""
    text = _read_text(data_dir() / "verbs.txt" if path is None else path)
    lines = (line.strip() for line in text.split("\n"))
    return frozenset(_fold(line) for line in lines if line and not line.startswith("#"))


def chunk_instruction(instruction: Instruction, verbs: Iterable[str]) -> list[tuple[int, int]]:
    """Split an instruction into sub-instructions, as (start, end) token spans.

    A new chunk opens before "and", before "then", and before any token that
    follows a clause mark (one of .,;:!?) in the raw text. Chunks that contain no verb
    from the lexicon (load_verb_lexicon() gives the bundled one) are merged
    into the chunk before them; the first chunk is always kept. The spans
    partition the full token range in order.
    """
    tokens, spans, raw = instruction.tokens, instruction.spans, instruction.raw
    if not tokens:
        raise ValueError("cannot chunk an instruction with no tokens")
    verb_set = frozenset(verbs)

    cuts = []  # where each chunk after the first opens, then the end
    for i in range(1, len(tokens)):
        gap = raw[spans[i - 1][1] : spans[i][0]]
        if tokens[i] in BOUNDARY_TOKENS or not _CLAUSE_MARKS.isdisjoint(gap):
            cuts.append(i)
    cuts.append(len(tokens))

    merged = [(0, cuts[0])]
    for start, end in zip(cuts, cuts[1:]):
        if verb_set.isdisjoint(tokens[start:end]):
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def span_text(instruction: Instruction, span: tuple[int, int]) -> str:
    """Tokens in the given span joined with single spaces."""
    start, end = span
    return " ".join(instruction.tokens[start:end])

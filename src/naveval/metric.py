"""Semantic-tuple matching, LCS direction matching, and SPICE / SPICE-D scoring."""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path

from ._record import Record, _read_text, _set
from .text import DirectionTaxonomy, Instruction, direction_labels

# A semantic tuple holds 1-3 lowercase lemmas: (object,), (object, attribute),
# or (object, relation, object).
SemanticTuple = tuple[str, ...]

AGGREGATIONS = ("max", "mean")


def normalize_tuples(raw: Iterable[Sequence[str]]) -> frozenset[SemanticTuple]:
    """Validate and normalize raw tuple data into a set of lowercase tuples.

    Each raw tuple is a list or a tuple of 1-3 nonempty strings.
    """
    return _tuple_set(raw)


def _tuple_set(raw: Iterable[Sequence[str]], synonyms: SynonymMap | None = None, spell=repr) -> frozenset[SemanticTuple]:
    # normalize_tuples with each word canonicalized by the synonyms in the same
    # pass; spell names a bad entry or element in the error message.
    get = {}.get if synonyms is None else synonyms._mapping.get
    out: set[SemanticTuple] = set()
    for item in raw:
        if not isinstance(item, (list, tuple)):
            what = "a bare string" if isinstance(item, str) else spell(item)
            raise ValueError(f"each semantic tuple must be a sequence of strings, not {what}")
        if not 1 <= len(item) <= 3:
            raise ValueError(f"semantic tuple arity must be 1-3, got {len(item)}")
        words = []
        for e in item:
            if not isinstance(e, str) or not (word := e.strip()):
                raise ValueError(f"semantic tuple elements must be nonempty strings, got {spell(e)}")
            word = word.lower()
            words.append(get(word, word))
        out.add(tuple(words))
    return frozenset(out)


class SynonymMap:
    """Canonicalizes words to the representative (first member) of their synonym group."""

    def __init__(self, groups: Iterable[Iterable[str]] = ()):
        mapping: dict[str, str] = {}
        for group in groups:
            members = [w.strip().lower() for w in group]
            if not members or any(not m for m in members):
                raise ValueError("synonym groups must be nonempty lists of nonempty strings")
            rep = members[0]
            for member in members:
                existing = mapping.get(member)
                if existing is not None and existing != rep:
                    raise ValueError(f"word {member!r} appears in more than one synonym group")
                mapping[member] = rep
        self._mapping = mapping

    @classmethod
    def load(cls, path: str | Path) -> "SynonymMap":
        """Read synonym groups from a JSON file holding a list of string lists."""
        doc = json.loads(_read_text(path))
        if not isinstance(doc, list) or not all(
            isinstance(g, list) and all(isinstance(w, str) for w in g) for g in doc
        ):
            raise ValueError("synonym file must hold a JSON list of lists of strings")
        return cls(doc)

    def canonical_set(self, tuples: frozenset[SemanticTuple]) -> frozenset[SemanticTuple]:
        get = self._mapping.get
        return frozenset(tuple(map(get, t, t)) for t in tuples)


def _ratio(num: int, den: int) -> float:
    # Convention: a ratio with zero denominator is 0.
    return num / den if den > 0 else 0.0


def _f_score(p: float, r: float) -> float:
    # Harmonic mean with F(0, 0) defined as 0.
    return 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two label sequences."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


class ScoreReport(Record):
    """SPICE and SPICE-D scores for one candidate-reference comparison.

    For reports produced by spice_d_score, spice is the harmonic mean of
    (pr_s, re_s) and spice_d the harmonic mean of (pr_sd, re_sd); reports
    aggregated by mean over several references carry field-wise means instead.
    """

    __slots__ = _fields = (
        "spice",
        "spice_d",
        "pr_s",
        "re_s",
        "pr_sd",
        "re_sd",
        "n_cand_tuples",
        "n_ref_tuples",
        "n_tuple_matches",
        "n_cand_dirs",
        "n_ref_dirs",
        "n_dir_matches",
        "direction_only",
    )


def spice_d_score(
    candidate_tuples: Iterable[Sequence[str]] | None,
    reference_tuples: Iterable[Sequence[str]] | None,
    candidate_dirs: Sequence[str],
    reference_dirs: Sequence[str],
    synonyms: SynonymMap | None = None,
) -> ScoreReport:
    """Direction-aware score: tuple matches and LCS direction matches pooled.

    Precision adds the direction-sequence LCS length to the tuple intersection
    and divides by candidate tuple plus direction counts; recall divides by
    the reference counts; the score is their harmonic mean. Each tuple side is
    normalized as by normalize_tuples (None counts as no tuples) and then
    canonicalized once with the synonyms. With no directions on either side
    this reduces exactly to plain SPICE.
    """
    cand = _tuple_set(() if candidate_tuples is None else candidate_tuples, synonyms)
    ref = _tuple_set(() if reference_tuples is None else reference_tuples, synonyms)
    return _score((cand, candidate_dirs), [(ref, reference_dirs)])


def spice_score(
    candidate: Iterable[Sequence[str]] | None,
    reference: Iterable[Sequence[str]] | None,
    synonyms: SynonymMap | None = None,
) -> tuple[float, float, float]:
    """Plain SPICE: tuple precision, recall, and their harmonic mean.

    This is spice_d_score with no direction labels on either side, so tuples
    are normalized and canonicalized the same way, and precision and recall
    always land in [0, 1].
    """
    r = spice_d_score(candidate, reference, (), (), synonyms)
    return r.pr_s, r.re_s, r.spice


# One side of a comparison: its canonical tuple set (None when the tuple
# annotation is absent) and its direction labels.
_Side = tuple[frozenset[SemanticTuple] | None, Sequence[str]]


def _score(candidate: _Side, references: Sequence[_Side], aggregation: str = "max") -> ScoreReport:
    # The SPICE-D arithmetic of one candidate against each reference, as one
    # report: under "max" the best reference's (earliest on ties), under
    # "mean" the six score fields averaged with the best reference's counts.
    # If any side has no tuple set, every side is scored on directions alone.
    cand, cand_dirs = candidate
    direction_only = cand is None or any(ref is None for ref, _ in references)
    empty: frozenset[SemanticTuple] = frozenset()
    if direction_only:
        cand = empty
    n_cand, n_cand_dirs = len(cand), len(cand_dirs)
    rows = []
    for ref, ref_dirs in references:
        if direction_only:
            ref = empty
        n_ref, n_ref_dirs = len(ref), len(ref_dirs)
        inter = len(cand & ref)
        matches = lcs_length(cand_dirs, ref_dirs)
        pr_s, re_s = _ratio(inter, n_cand), _ratio(inter, n_ref)
        pr_sd, re_sd = _ratio(inter + matches, n_cand + n_cand_dirs), _ratio(inter + matches, n_ref + n_ref_dirs)
        spice_d, spice = _f_score(pr_sd, re_sd), _f_score(pr_s, re_s)
        rows.append((spice_d, spice, pr_s, re_s, pr_sd, re_sd, n_ref, inter, n_ref_dirs, matches))
    spice_d, spice, pr_s, re_s, pr_sd, re_sd, n_ref, inter, n_ref_dirs, matches = max(rows, key=lambda row: row[0])
    if aggregation == "mean":
        n = len(rows)
        spice_d, spice, pr_s, re_s, pr_sd, re_sd = [sum(column) / n for column in list(zip(*rows))[:6]]
    return ScoreReport(
        spice, spice_d, pr_s, re_s, pr_sd, re_sd, n_cand, n_ref, inter, n_cand_dirs, n_ref_dirs, matches, direction_only
    )


class ScoringInput(Record):
    """One side of a comparison: tokenized text, optional tuples, optional labels.

    tuples=None means the tuple annotation is absent (direction-only scoring);
    an empty set means it is present but empty. Tuples are validated and
    normalized once, here, as by normalize_tuples. When directions is None the
    labels are parsed from the instruction text; with explicit directions the
    instruction is unused and may be None.
    """

    __slots__ = _fields = ("instruction", "tuples", "directions")

    def __init__(
        self,
        instruction: Instruction | None,
        tuples: Iterable[Sequence[str]] | None = None,
        directions: tuple[str, ...] | None = None,
    ) -> None:
        if instruction is None and directions is None:
            raise ValueError("an instruction is required when directions are not given")
        _set(self, "instruction", instruction)
        _set(self, "tuples", None if tuples is None else normalize_tuples(tuples))
        _set(self, "directions", directions)


def check_labels(labels: Iterable[str], taxonomy: DirectionTaxonomy) -> None:
    """Raise ValueError naming every label that is not a class of the taxonomy."""
    labels = tuple(labels)  # an iterator is read twice when a label is unknown
    if not taxonomy.label_set.issuperset(labels):
        unknown = sorted(set(labels) - taxonomy.label_set)
        raise ValueError(f"direction labels not in taxonomy {taxonomy.name!r}: {', '.join(unknown)}")


def score_pair(
    candidate: ScoringInput,
    references: Sequence[ScoringInput],
    taxonomy: DirectionTaxonomy,
    synonyms: SynonymMap | None = None,
    aggregation: str = "max",
) -> ScoreReport:
    """Score one candidate against one or more references.

    Each reference is scored separately. Under "max" the report of the
    best-scoring reference is returned (ties favor the earliest); under "mean"
    the six score fields are averaged and the counts are those of the best
    reference. If the candidate or any reference lacks tuple annotations the
    whole record is scored on directions alone and flagged direction_only.

    Each side's direction labels are its explicit directions, which must be
    classes of the taxonomy (else ValueError), or else the labels parsed from
    its instruction. Its tuples were normalized when the ScoringInput was
    built; they are canonicalized with the synonyms once per side, and one
    pass of spice_d_score's arithmetic over the references builds the report.
    """
    if not references:
        raise ValueError("at least one reference is required")
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")

    def side(item: ScoringInput) -> _Side:
        tuples = item.tuples if item.tuples is None or synonyms is None else synonyms.canonical_set(item.tuples)
        if item.directions is None:
            return tuples, direction_labels(item.instruction, taxonomy)
        check_labels(item.directions, taxonomy)
        return tuples, item.directions

    return _score(side(candidate), [side(ref) for ref in references], aggregation)

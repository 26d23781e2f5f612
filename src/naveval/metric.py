"""Semantic-tuple matching, LCS direction matching, and SPICE / SPICE-D scoring."""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path

from ._record import Record, _set
from .text import DirectionTaxonomy, Instruction, direction_labels

# A semantic tuple holds 1-3 lowercase lemmas: (object,), (object, attribute),
# or (object, relation, object).
SemanticTuple = tuple[str, ...]

AGGREGATIONS = ("max", "mean")


def normalize_tuples(raw: Iterable[Sequence[str]]) -> frozenset[SemanticTuple]:
    """Validate and normalize raw tuple data into a set of lowercase tuples.

    Each raw tuple is a list or a tuple of 1-3 nonempty strings.
    """
    out: set[SemanticTuple] = set()
    for item in raw:
        if not isinstance(item, (list, tuple)):
            what = "a bare string" if isinstance(item, str) else repr(item)
            raise ValueError(f"each semantic tuple must be a sequence of strings, not {what}")
        elems = tuple(item)
        if not 1 <= len(elems) <= 3:
            raise ValueError(f"semantic tuple arity must be 1-3, got {len(elems)}")
        norm = []
        for e in elems:
            if not isinstance(e, str) or not e.strip():
                raise ValueError(f"semantic tuple elements must be nonempty strings, got {e!r}")
            norm.append(e.strip().lower())
        out.add(tuple(norm))
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
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, list) or not all(
            isinstance(g, list) and all(isinstance(w, str) for w in g) for g in doc
        ):
            raise ValueError("synonym file must hold a JSON list of lists of strings")
        return cls(doc)

    def canonical(self, word: str) -> str:
        return self._mapping.get(word, word)

    def canonical_set(self, tuples: frozenset[SemanticTuple]) -> frozenset[SemanticTuple]:
        get = self._mapping.get
        return frozenset(tuple(map(get, t, t)) for t in tuples)


def _canonical(tuples: frozenset[SemanticTuple], synonyms: SynonymMap | None) -> frozenset[SemanticTuple]:
    return tuples if synonyms is None else synonyms.canonical_set(tuples)


def _ratio(num: int, den: int) -> float:
    # Convention: a ratio with zero denominator is 0.
    return num / den if den > 0 else 0.0


def _f_score(p: float, r: float) -> float:
    # Harmonic mean with F(0, 0) defined as 0.
    return 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two label sequences."""
    if not a or not b:
        return 0
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

    def __init__(
        self,
        spice: float,
        spice_d: float,
        pr_s: float,
        re_s: float,
        pr_sd: float,
        re_sd: float,
        n_cand_tuples: int,
        n_ref_tuples: int,
        n_tuple_matches: int,
        n_cand_dirs: int,
        n_ref_dirs: int,
        n_dir_matches: int,
        direction_only: bool = False,
    ) -> None:
        _set(self, "spice", spice)
        _set(self, "spice_d", spice_d)
        _set(self, "pr_s", pr_s)
        _set(self, "re_s", re_s)
        _set(self, "pr_sd", pr_sd)
        _set(self, "re_sd", re_sd)
        _set(self, "n_cand_tuples", n_cand_tuples)
        _set(self, "n_ref_tuples", n_ref_tuples)
        _set(self, "n_tuple_matches", n_tuple_matches)
        _set(self, "n_cand_dirs", n_cand_dirs)
        _set(self, "n_ref_dirs", n_ref_dirs)
        _set(self, "n_dir_matches", n_dir_matches)
        _set(self, "direction_only", direction_only)


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
    cand = _canonical(normalize_tuples(() if candidate_tuples is None else candidate_tuples), synonyms)
    ref = _canonical(normalize_tuples(() if reference_tuples is None else reference_tuples), synonyms)
    return _spice_d(cand, ref, candidate_dirs, reference_dirs)


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


def _spice_d(
    cand: frozenset[SemanticTuple],
    ref: frozenset[SemanticTuple],
    candidate_dirs: Sequence[str],
    reference_dirs: Sequence[str],
    direction_only: bool = False,
) -> ScoreReport:
    # spice_d_score on tuple sets that are already normalized and canonical.
    inter = len(cand & ref)
    pr_s = _ratio(inter, len(cand))
    re_s = _ratio(inter, len(ref))

    matches = lcs_length(candidate_dirs, reference_dirs)
    pr_sd = _ratio(inter + matches, len(cand) + len(candidate_dirs))
    re_sd = _ratio(inter + matches, len(ref) + len(reference_dirs))

    return ScoreReport(
        spice=_f_score(pr_s, re_s),
        spice_d=_f_score(pr_sd, re_sd),
        pr_s=pr_s,
        re_s=re_s,
        pr_sd=pr_sd,
        re_sd=re_sd,
        n_cand_tuples=len(cand),
        n_ref_tuples=len(ref),
        n_tuple_matches=inter,
        n_cand_dirs=len(candidate_dirs),
        n_ref_dirs=len(reference_dirs),
        n_dir_matches=matches,
        direction_only=direction_only,
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


def _resolve_directions(item: ScoringInput, taxonomy: DirectionTaxonomy) -> Sequence[str]:
    if item.directions is None:
        return direction_labels(item.instruction, taxonomy)
    check_labels(item.directions, taxonomy)
    return item.directions


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
    built; they are canonicalized with the synonyms once per side, and every
    comparison uses the arithmetic of spice_d_score.
    """
    if not references:
        raise ValueError("at least one reference is required")
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")

    direction_only = candidate.tuples is None or any(r.tuples is None for r in references)

    def prepared(item: ScoringInput) -> tuple[frozenset[SemanticTuple], Sequence[str]]:
        tuples = frozenset() if direction_only else item.tuples
        return _canonical(tuples, synonyms), _resolve_directions(item, taxonomy)

    cand_tuples, cand_dirs = prepared(candidate)
    reports = []
    for ref in references:
        ref_tuples, ref_dirs = prepared(ref)
        reports.append(_spice_d(cand_tuples, ref_tuples, cand_dirs, ref_dirs, direction_only))

    best = max(range(len(reports)), key=lambda i: (reports[i].spice_d, -i))
    chosen = reports[best]
    if aggregation == "max":
        return chosen
    n = len(reports)
    return ScoreReport(
        spice=sum(r.spice for r in reports) / n,
        spice_d=sum(r.spice_d for r in reports) / n,
        pr_s=sum(r.pr_s for r in reports) / n,
        re_s=sum(r.re_s for r in reports) / n,
        pr_sd=sum(r.pr_sd for r in reports) / n,
        re_sd=sum(r.re_sd for r in reports) / n,
        n_cand_tuples=chosen.n_cand_tuples,
        n_ref_tuples=chosen.n_ref_tuples,
        n_tuple_matches=chosen.n_tuple_matches,
        n_cand_dirs=chosen.n_cand_dirs,
        n_ref_dirs=chosen.n_ref_dirs,
        n_dir_matches=chosen.n_dir_matches,
        direction_only=direction_only,
    )

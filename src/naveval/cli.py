"""Command-line interface: corpus scoring, alignment reports, and utilities.

Exit codes: 0 on success, 1 on input errors (missing files, unresolvable ids,
degenerate data, a library check the input fails, such as --k 0, --eps 0 or
an empty chunk text), 2 on schema violations (malformed JSON/JSONL/CSV/TSV).
Output files are written atomically; stdout is used when --out is absent.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from ._record import _read_text

# naveval.metric and naveval.text are imported by the code paths that use
# them, so kb query and align load neither; typing is not loaded either.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable
    from typing import TypeVar

    from .metric import ScoreReport, SynonymMap, _Side
    from .text import DirectionTaxonomy
    _T = TypeVar("_T")

DEFAULT_TAXONOMY = "r2r"

# Thread-count variables of OpenBLAS, OpenMP and MKL; see run().
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class InputError(Exception):
    exit_code = 1


class SchemaError(InputError):
    exit_code = 2


def _load(
    load: Callable[[str | Path], _T],
    path: str | Path,
    unreadable: Callable[[OSError], str] = str,
    invalid: Callable[[ValueError], str] = str,
) -> _T:
    """load(path), whose file is read by _record._read_text, its errors mapped to exit codes.

    Not UTF-8 is a schema error naming the first bad byte's offset in the file,
    a BOM counted. OSError is an input error worded by unreadable(exc); any
    other ValueError is a schema error worded by invalid(exc).
    """
    try:
        return load(path)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8 (byte {exc.start})") from None
    except OSError as exc:
        raise InputError(unreadable(exc)) from None
    except ValueError as exc:
        raise SchemaError(invalid(exc)) from None


def _load_jsonl(path: str, taxonomy: DirectionTaxonomy, synonyms: SynonymMap | None = None) -> list[tuple[str, _Side]]:
    """Each JSONL corpus row as its id and its scoring side, fully validated.

    A side is the row's tuple set (None when it has no 'tuples'), checked,
    normalized and canonicalized with the synonyms in one pass, and its
    direction labels: the explicit ones, checked against the taxonomy once,
    here, or else those parsed from the text's words, which are classes of
    the taxonomy by construction.
    """
    from .metric import _tuple_set, check_labels
    from .text import _labels, _words

    records = []
    for lineno, line in enumerate(_load(_read_text, path).split("\n"), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
            raise SchemaError(f"{where}: invalid JSON: {getattr(exc, 'msg', exc)}") from None
        if not isinstance(obj, dict):
            raise SchemaError(f"{where}: record must be a JSON object")
        rid = obj.get("id")
        text = obj.get("text")
        if not isinstance(rid, str) or not rid:
            raise SchemaError(f"{where}: 'id' must be a nonempty string")
        if not isinstance(text, str) or not text.strip():
            raise SchemaError(f"{where}: 'text' must be a nonempty string")
        tuples = obj.get("tuples")
        if tuples is not None and not isinstance(tuples, list):
            raise SchemaError(f"{where}: 'tuples' must be a list of string lists")
        directions = obj.get("directions")
        if directions is not None and (
            not isinstance(directions, list) or not all(isinstance(lab, str) and lab for lab in directions)
        ):
            raise SchemaError(f"{where}: 'directions' must be a list of nonempty strings")
        try:
            if directions is None:
                directions = _labels(_words(text), taxonomy)
            else:
                check_labels(directions, taxonomy)
            if tuples is not None:
                tuples = _tuple_set(tuples, synonyms, json.dumps)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
        records.append((rid, (tuples, tuple(directions))))
    return records


def _by_unique_id(records: list[tuple[str, _Side]], path: str, kind: str) -> dict[str, _Side]:
    by_id: dict[str, _Side] = {}
    for rid, item in records:
        if rid in by_id:
            raise SchemaError(f"{path}: duplicate {kind} id {rid!r}")
        by_id[rid] = item
    return by_id


def _write_atomic(path: Path, text: str) -> None:
    import tempfile

    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        # mkstemp creates the file with mode 0600; give it the mode that a
        # plain open() would, as the umask allows.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> None:
    """Write one output to --out or to stdout; one that cannot be written is exit 1.

    This is the only writer of stdout. It flushes each output, so an exit
    finds nothing left to write.
    """
    if out:
        try:
            _write_atomic(Path(out), text)
        except OSError as exc:
            raise InputError(f"cannot write {out!r}: {exc.strerror or exc}") from None
        return
    try:
        if sys.stdout is None:
            # The process was started with stdout closed.
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise InputError(f"cannot write to stdout: {exc.strerror or exc}") from None
    except UnicodeEncodeError as exc:  # stdout's encoding cannot hold the text
        raise InputError(f"cannot write to stdout: {exc}") from None


def _emit_json(doc: object, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", out)


def _to_stderr(message: str) -> None:
    """Print one line to stderr, if it can be written.

    A note or error message that cannot be written never changes the exit
    code. sys.stderr is None when the process was started with it closed, and
    print(file=None) would write to stdout instead.
    """
    if sys.stderr is not None:
        try:
            print(message, file=sys.stderr)
        except OSError:
            pass


def _note(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        _to_stderr(message)


def _load_taxonomy(name: str) -> DirectionTaxonomy:
    from .text import _taxonomy_path, load_taxonomy

    path, what = _taxonomy_path(name), f"taxonomy {name!r}"
    return _load(load_taxonomy, path, lambda exc: f"{what} cannot be read: {exc}", lambda exc: f"{what}: {exc}")


def _synonyms_from_args(args: argparse.Namespace) -> SynonymMap | None:
    if not args.synonyms:
        return None
    from .metric import SynonymMap

    return _load(SynonymMap.load, args.synonyms, invalid=lambda exc: f"{args.synonyms}: {exc}")


# ---------------------------------------------------------------------------
# score


# One record of the score report as json.dumps(doc, indent=2) lays it out.
_RECORD_LAYOUT = """    {
      "id": %s,
      "n_references": %r,
      "spice": %r,
      "spice_d": %r,
      "pr_s": %r,
      "re_s": %r,
      "pr_sd": %r,
      "re_sd": %r,
      "counts": {
        "cand_tuples": %r,
        "ref_tuples": %r,
        "tuple_matches": %r,
        "cand_dirs": %r,
        "ref_dirs": %r,
        "dir_matches": %r
      },
      "direction_only": %s
    }"""


def _score_report_text(
    taxonomy: str, aggregation: str, rows: list[tuple[str, int, ScoreReport]], corpus: dict
) -> str:
    """The score report, byte for byte as json.dumps(doc, indent=2) + "\n" writes it.

    rows holds each record's id, number of references and report. With indent
    set, json.dumps runs its pure-Python encoder. This fills the report's
    fixed layout with a report's fields in ScoreReport._fields order and
    encodes the leaves as json does: strings with its C
    encode_basestring_ascii, floats and ints with their __repr__.
    """
    from operator import attrgetter

    from .metric import ScoreReport

    # Every field but the last, direction_only, is a number that %r writes as json does.
    scores, flag = attrgetter(*ScoreReport._fields[:-1]), attrgetter(ScoreReport._fields[-1])
    records = ",\n".join(
        _RECORD_LAYOUT % (encode_basestring_ascii(rid), n_references, *scores(r), "true" if flag(r) else "false")
        for rid, n_references, r in rows
    )
    records = f"[\n{records}\n  ]" if rows else "[]"
    # Encoded JSON strings hold no raw newline, so indenting every line of
    # the corpus block is the same as nesting it one level deeper.
    corpus_text = json.dumps(corpus, indent=2).replace("\n", "\n  ")
    return (
        "{\n"
        f'  "taxonomy": {encode_basestring_ascii(taxonomy)},\n'
        f'  "aggregation": {encode_basestring_ascii(aggregation)},\n'
        f'  "records": {records},\n'
        f'  "corpus": {corpus_text}\n'
        "}\n"
    )


def _cmd_score(args: argparse.Namespace) -> int:
    from .metric import _score, _sum

    taxonomy = _load_taxonomy(args.taxonomy)
    # The synonyms canonicalize each record as it is loaded, but a synonyms
    # file that cannot be used is reported after every corpus error.
    try:
        synonyms, synonyms_error = _synonyms_from_args(args), None
    except InputError as exc:
        synonyms, synonyms_error = None, exc
    records = _load_jsonl(args.candidates, taxonomy, synonyms)
    if not records:
        raise InputError(f"{args.candidates}: no candidate records")
    candidates = _by_unique_id(records, args.candidates, "candidate")

    references: dict[str, list[_Side]] = {}
    for rid, ref in _load_jsonl(args.references, taxonomy, synonyms):
        references.setdefault(rid, []).append(ref)

    missing = [rid for rid in candidates if rid not in references]
    if missing:
        raise InputError("candidate ids missing from references: " + ", ".join(missing))
    if synonyms_error is not None:
        raise synonyms_error

    rows = []
    for rid, cand in candidates.items():
        refs = references[rid]
        rows.append((rid, len(refs), _score(cand, refs, args.aggregation)))

    n = len(rows)
    corpus = {
        "mean_spice": _sum(r.spice for _, _, r in rows) / n,
        "mean_spice_d": _sum(r.spice_d for _, _, r in rows) / n,
        "n_records": n,
        "n_direction_only": sum(1 for _, _, r in rows if r.direction_only),
    }
    _emit(_score_report_text(taxonomy.name, args.aggregation, rows, corpus), args.out)
    orphans = sum(len(refs) for rid, refs in references.items() if rid not in candidates)
    if orphans:
        _note(args, f"ignored {orphans} reference records whose id no candidate has")
    _note(
        args,
        f"scored {n} records: mean SPICE {corpus['mean_spice']:.4f}, "
        f"mean SPICE-D {corpus['mean_spice_d']:.4f}",
    )
    return 0


# ---------------------------------------------------------------------------
# align


def _cmd_align(args: argparse.Namespace) -> int:
    from . import align  # numpy is imported only by this subcommand

    eps = align.DEFAULT_EPS if args.eps is None else args.eps
    lambda1 = align.DEFAULT_LAMBDA1 if args.lambda1 is None else args.lambda1
    lambda2 = align.DEFAULT_LAMBDA2 if args.lambda2 is None else args.lambda2
    doc = _load(lambda p: json.loads(_read_text(p)), args.features, invalid=lambda exc: f"{args.features}: invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError(f"{args.features}: feature document must be a JSON object")
    for key in ("sub_instructions", "panoramas", "words", "word_to_sub"):
        if key not in doc:
            raise SchemaError(f"{args.features}: missing required key {key!r}")

    word_to_sub = doc["word_to_sub"]
    if not isinstance(word_to_sub, list):
        raise SchemaError(f"{args.features}: 'word_to_sub' must be a list of integers")

    try:  # build_cost, dtw_align and alignment_losses check the feature matrices: exit 1, naming the file
        a = align.dtw_align(align.build_cost(doc["sub_instructions"], doc["panoramas"]))
        words = doc["words"]
        if not isinstance(words, list) or len(words) != len(word_to_sub):
            raise SchemaError(
                f"{args.features}: 'word_to_sub' must map every word "
                f"({len(word_to_sub)} entries for {len(words) if isinstance(words, list) else '?'} words)"
            )
        try:
            target = align.target_from_word_map(a, word_to_sub)
        except ValueError as exc:
            raise SchemaError(f"{args.features}: {exc}") from None
        # alignment_losses checks eps last; this copy of its check comes first so that the message names no file.
        if not 0.0 < eps < float("inf"):
            raise InputError(f"eps must be positive and finite, got {eps!r}")
        l_att, l_nce = align.alignment_losses(words, doc["panoramas"], target, eps)
    except ValueError as exc:
        raise InputError(f"{args.features}: {exc}") from None
    total = align.total_loss(args.ce, l_att, l_nce, lambda1, lambda2)

    out_doc = {
        "A": a.tolist(),
        "A_prime": target.a_prime.tolist(),
        "l_att": l_att,
        "l_nce": l_nce,
        "ce": args.ce,
        "lambda1": lambda1,
        "lambda2": lambda2,
        "total_loss": total,
    }
    _emit_json(out_doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# directions / chunk


def _cmd_directions(args: argparse.Namespace) -> int:
    from .text import _labels, _words

    taxonomy = _load_taxonomy(args.taxonomy)
    labels = _labels(_words(args.text), taxonomy)
    _emit(" ".join(labels) + "\n", args.out)
    return 0


def _cmd_chunk(args: argparse.Namespace) -> int:
    from .text import chunk_instruction, data_dir, load_verb_lexicon, span_text, tokenize

    instruction = tokenize(args.text)
    path = data_dir() / "verbs.txt"
    verbs = _load(load_verb_lexicon, path, lambda e: f"verb lexicon {str(path)!r} cannot be read: {e.strerror or e}")
    spans = chunk_instruction(instruction, verbs)
    lines = [span_text(instruction, span) for span in spans]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# correlate


def _read_score_table(path: str) -> tuple[list[str], list[list]]:
    """The table's header and its rows, each the id and then its parsed cells in column order."""
    import csv

    reader = csv.reader(io.StringIO(_load(_read_text, path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty table") from None
    if len(header) < 3 or header[0] != "id" or header[-1] != "human":
        raise SchemaError(f"{path}: header must be 'id', one or more metric names, then 'human'")
    metric_names = header[1:-1]
    for i, name in enumerate(metric_names):
        if name in metric_names[:i]:
            raise SchemaError(f"{path}: repeated metric name {name!r} in the header")
    rows = []
    for lineno, row in enumerate(reader, 2):
        if not row:
            continue
        if len(row) != len(header):
            raise SchemaError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
        rows.append([row[0], *(_parse_cell(cell, path, lineno) for cell in row[1:])])
    return header, rows


def _parse_cell(cell: str, path: str, lineno: int) -> float | None:
    from math import isfinite

    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise SchemaError(f"{path}:{lineno}: non-numeric value {cell!r}") from None
    if not isfinite(value):
        raise SchemaError(f"{path}:{lineno}: non-finite value {cell!r}")
    return value


def _cmd_correlate(args: argparse.Namespace) -> int:
    from .stats import correlate_metrics

    header, rows = _read_score_table(args.table)

    if args.min_directions is None:
        if args.instructions:
            raise InputError("--instructions requires --min-directions with the minimum label count")
        if args.taxonomy is not None:
            raise InputError("--taxonomy requires --min-directions with the minimum label count")
    else:
        if args.min_directions < 0:
            raise InputError("--min-directions must be nonnegative")
        if not args.instructions:
            raise InputError("--min-directions requires --instructions with the instruction texts")
        taxonomy = _load_taxonomy(DEFAULT_TAXONOMY if args.taxonomy is None else args.taxonomy)
        records = _load_jsonl(args.instructions, taxonomy)
        instructions = _by_unique_id(records, args.instructions, "instruction")
        unknown = dict.fromkeys(row[0] for row in rows if row[0] not in instructions)
        if unknown:
            raise InputError("table ids missing from the instructions file: " + ", ".join(unknown))
        kept = [row for row in rows if len(instructions[row[0]][1]) >= args.min_directions]
        _note(args, f"direction filter kept {len(kept)} rows, removed {len(rows) - len(kept)}")
        rows = kept

    columns = {name: [row[i] for row in rows] for i, name in enumerate(header[1:-1], 1)}
    report = correlate_metrics(columns, [row[-1] for row in rows])
    _emit_json([dict(zip(e._fields, e._values())) for e in report.entries], args.out)
    if report.n_dropped:
        _note(args, f"dropped {report.n_dropped} rows with missing values")
    return 0


# ---------------------------------------------------------------------------
# kb


def _cmd_kb(args: argparse.Namespace) -> int:
    from .knowledge import DEFAULT_TOP_K, load_kb, retrieve_facts

    k = DEFAULT_TOP_K if args.k is None else args.k
    kb = _load(load_kb, args.kb)
    facts = retrieve_facts(kb, args.entity, k)
    _emit("".join("\t".join(map(str, f._values())) + "\n" for f in facts), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help is written by _emit, as every other output is.

    argparse writes the help to stderr when stdout is closed, and ignores a
    write that fails; here either is exit 1 with the stdout error. argparse
    calls print_help only for -h, with no file.
    """

    def print_help(self, file=None) -> None:
        _emit(self.format_help(), None)


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write output to this file atomically instead of stdout")
    # Only the subcommands that write notes take --quiet.
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress informational stderr messages")
    taxonomy = argparse.ArgumentParser(add_help=False)
    taxonomy.add_argument(
        "--taxonomy",
        default=DEFAULT_TAXONOMY,
        help="direction taxonomy: a bundled name (r2r, urban) or a JSON file path",
    )

    parser = _Parser(prog="naveval", description="Navigation-instruction evaluation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", parents=[taxonomy, output, quiet], help="score a JSONL corpus against references")
    p_score.add_argument("candidates", help="candidate records, one JSON object per line")
    p_score.add_argument("references", help="reference records; repeat an id for multiple references")
    p_score.add_argument("--synonyms", default=None, help="JSON file of synonym groups")
    p_score.add_argument(
        "--aggregation",
        choices=("max", "mean"),
        default="max",
        help="how to combine scores over multiple references",
    )

    p_align = sub.add_parser("align", parents=[output], help="DTW-align feature sequences and report losses")
    p_align.add_argument("features", help="JSON file with sub_instructions, panoramas, words, word_to_sub")
    p_align.add_argument("--ce", type=float, default=0.0, help="cross-entropy term added to the total loss")
    # Unset here, so the parser needs no numpy; _cmd_align takes the defaults
    # from naveval.align.
    p_align.add_argument("--lambda1", type=float, help="attention-coverage loss weight")
    p_align.add_argument("--lambda2", type=float, help="contrastive loss weight")
    p_align.add_argument("--eps", type=float, help="log clamp for the coverage loss")

    p_dirs = sub.add_parser("directions", parents=[taxonomy, output], help="print direction labels parsed from text")
    p_dirs.add_argument("--text", required=True)

    p_chunk = sub.add_parser("chunk", parents=[output], help="print sub-instruction chunks, one per line")
    p_chunk.add_argument("--text", required=True)

    p_corr = sub.add_parser("correlate", parents=[output, quiet], help="correlate metric columns with human scores")
    p_corr.add_argument("table", help="CSV with columns: id, <metrics...>, human")
    # No default here, so that a --taxonomy no filter reads is an error.
    p_corr.add_argument(
        "--taxonomy",
        help=f"direction taxonomy of --min-directions (default {DEFAULT_TAXONOMY}): a bundled name or a JSON file path",
    )
    p_corr.add_argument("--min-directions", type=int, default=None, help="keep only rows whose instruction has at least this many direction labels")
    p_corr.add_argument("--instructions", default=None, help="JSONL instruction records, required by --min-directions")

    p_kb = sub.add_parser("kb", help="knowledge-base utilities")
    kb_sub = p_kb.add_subparsers(dest="kb_command", required=True)
    p_query = kb_sub.add_parser("query", parents=[output], help="print top-k facts for an entity as TSV")
    p_query.add_argument("--kb", required=True, help="tab-separated knowledge-base file")
    p_query.add_argument("--entity", required=True)
    # Unset here, so the parser needs no naveval.knowledge; _cmd_kb takes the
    # default from it.
    p_query.add_argument("--k", type=int)

    return parser


_HANDLERS = {
    "score": _cmd_score,
    "align": _cmd_align,
    "directions": _cmd_directions,
    "chunk": _cmd_chunk,
    "correlate": _cmd_correlate,
    "kb": _cmd_kb,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except InputError as exc:
        _to_stderr(f"naveval: error: {exc}")
        return exc.exit_code
    except ValueError as exc:  # a library check that the input failed
        _to_stderr(f"naveval: error: {exc}")
        return 1


def run() -> None:
    """The process entry point of `python -m naveval` and the naveval script.

    OpenBLAS gets one thread unless one of _BLAS_THREAD_VARS is set: one
    document never needs a second, and starting it costs a short call more
    than it saves. The process then ends with os._exit, skipping interpreter
    teardown: _emit has flushed each output, and stderr passes on each whole
    line as it is written. An exception that escapes main(), argparse's
    SystemExit among them, takes the normal exit path.
    """
    if not any(name in os.environ for name in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os._exit(main())

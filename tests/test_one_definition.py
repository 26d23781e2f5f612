"""The two primitives that the report bytes rest on each have one definition in src/naveval.

Words are folded by _record._fold alone, so every input compares words in
one form. Float scores are added by metric._sum alone, left to right, so a
report does not depend on which Python adds them: builtin sum compensates
the rounding from Python 3.12.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "naveval"


def _sites(predicate):
    """(module, top-level definition, node) for each node of src/naveval that the predicate accepts."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [(path.stem, getattr(top, "name", None), node) for node in ast.walk(top) if predicate(node)]
    return found


def test_words_are_folded_by_fold_alone():
    folds = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr in ("lower", "casefold"))
    assert [(module, where) for module, where, _ in folds] == [("_record", "_fold")]


def test_builtin_sum_adds_only_integer_counts():
    """Each float sum goes through metric._sum; builtin sum keeps the two counts of naveval score."""
    names = _sites(lambda node: isinstance(node, ast.Name) and node.id == "sum")
    calls = _sites(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum")
    assert len(names) == len(calls)
    counted = sorted((module, where, ast.unparse(call.args[0].elt)) for module, where, call in calls)
    assert counted == [("cli", "_cmd_score", "1"), ("cli", "_cmd_score", "len(refs)")]


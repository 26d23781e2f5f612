"""Checks on .github/workflows/tests.yml that its steps cannot make by themselves."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

_CI_TIME = "CI time: every mutant was killed when the pass was last run by hand (CHANGES.md)"
_CLI_TIME = "CI time: a pass over the whole of cli.py takes about 4 minutes; it is run by hand (CHANGES.md)"

# The top-level names of each module that CI mutates but no CI step scopes,
# each with the reason it is left out. tools/mutate.py can only include
# scopes, so a name added to a module is left out of CI's pass unless it is
# placed here or in a step.
UNMUTATED = {
    "_record": {},
    "align": {
        "dtw_align": "equivalent survivors: vert < best and left < best -> <=, and the two -1 stops -> -2 (CHANGES.md)",
        "_check_attention": "equivalent survivor: > ATTENTION_ROW_TOL -> >= (CHANGES.md)",
        **dict.fromkeys(
            [
                "_as_hidden_matrix", "_matching_widths", "_unit_rows", "build_cost", "TargetMatrix",
                "_as_target", "attention_coverage_loss",
            ],
            _CI_TIME,
        ),
    },
    "cli": {
        "_write_atomic": "equivalent survivor: os.umask(0) -> os.umask(1) (CHANGES.md)",
        **dict.fromkeys(
            [
                "InputError", "SchemaError", "_load", "_load_jsonl", "_by_unique_id", "_emit", "_emit_json",
                "_to_stderr", "_note", "_load_taxonomy", "_synonyms_from_args", "_cmd_score",
                "_cmd_align", "_cmd_directions", "_cmd_chunk", "_Parser", "build_parser", "run",
            ],
            _CLI_TIME,
        ),
    },
    "knowledge": {},
    # The one survivor, len(b) + 1 -> + 2, is equivalent: the loop reads only
    # the first len(b) + 1 entries of the first row, and with an empty `a`
    # the extra entry returned is 0, like the one it displaces.
    "metric": {"lcs_length": "equivalent survivor: len(b) + 1 -> + 2 (CHANGES.md)"},
    "stats": {},
    "text": {
        "DirectionTaxonomy": "equivalent survivor: option[0] -> option[1] in the matcher's sort key; "
        "from_mapping is scoped on its own (CHANGES.md)",
        "_looks_like_path": "equivalent survivor: os.altsep in s -> not in, os.altsep being None on POSIX (CHANGES.md)",
        "chunk_instruction": "equivalent survivor: spans[i][0] -> spans[i][1] at the gap's end (CHANGES.md)",
    },
}


def _top_level_names(module):
    tree = ast.parse((ROOT / "src" / "naveval" / f"{module}.py").read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


@pytest.mark.parametrize("module", sorted(UNMUTATED))
def test_mutation_steps_place_every_top_level_name(module):
    """The CI steps' scopes and the names left out, each with its reason, are the module's top-level names.

    A step with no --scope covers every name. A method scoped on its own
    (Class.method) covers part of a class, so the class stays left out.
    """
    steps = re.split(r"\n(?=\s*- name:)", WORKFLOW.read_text(encoding="utf-8"))
    steps = [s for s in steps if f"tools/mutate.py src/naveval/{module}.py" in s]
    assert steps, f"no CI mutation step over {module}.py"
    names = _top_level_names(module)
    scoped = set()
    for step in steps:
        scoped |= set(re.findall(r"--scope\s+(\S+)", step)) or names
    left_out = UNMUTATED[module]
    methods = {scope for scope in scoped if "." in scope}
    scoped -= methods
    assert all(left_out.values())
    assert {method.split(".")[0] for method in methods} <= set(left_out)
    assert scoped.isdisjoint(left_out)
    assert scoped | set(left_out) == names

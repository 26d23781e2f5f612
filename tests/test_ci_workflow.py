"""Checks on .github/workflows/tests.yml that its steps cannot make by themselves."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# Left out of CI's mutation pass over metric.py: its one survivor is equivalent.
METRIC_UNMUTATED = {"lcs_length"}


def test_metric_mutation_step_scopes_every_top_level_name():
    """tools/mutate.py can only include scopes, so a name added to metric.py must be named in CI too."""
    steps = re.split(r"\n(?=\s*- name:)", WORKFLOW.read_text(encoding="utf-8"))
    (step,) = [s for s in steps if "tools/mutate.py src/naveval/metric.py" in s]
    scopes = re.findall(r"--scope\s+(\S+)", step)
    tree = ast.parse((ROOT / "src" / "naveval" / "metric.py").read_text(encoding="utf-8"))
    names = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in METRIC_UNMUTATED
    ]
    assert sorted(scopes) == sorted(names)

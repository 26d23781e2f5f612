"""The public top-level names of each naveval module, and a reader for each.

A name is public when it does not start with an underscore. Adding or
removing one fails here until PUBLIC is edited to match, so the public
surface changes only on purpose.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "naveval"

PUBLIC = {
    "__init__": set(),
    "__main__": set(),
    "_record": {"Record"},
    "align": {
        "DEFAULT_EPS", "DEFAULT_LAMBDA1", "DEFAULT_LAMBDA2", "build_cost", "dtw_align", "validate_alignment_matrix",
        "TargetMatrix", "expand_alignment", "target_from_word_map", "attention_coverage_loss", "contrastive_loss",
        "softmax_attention", "alignment_losses", "total_loss",
    },
    "cli": {"TYPE_CHECKING", "main", "run"},
    "knowledge": {"DEFAULT_TOP_K", "KnowledgeFact", "KnowledgeBase", "load_kb", "retrieve_facts"},
    "metric": {
        "SemanticTuple", "normalize_tuples", "SynonymMap", "lcs_length", "ScoreReport", "spice_d_score",
        "spice_score", "ScoringInput", "check_labels", "score_pair",
    },
    "stats": {"pearson", "MetricCorrelation", "CorrelationReport", "correlate_metrics"},
    "text": {
        "data_dir", "Instruction", "tokenize", "DirectionTaxonomy", "load_taxonomy", "direction_labels",
        "load_verb_lexicon", "chunk_instruction", "span_text",
    },
}

# Public names that neither another module, perfbench nor README reads, each with its reason.
NO_READER = {
    "metric.SemanticTuple": "the element type that public signatures of metric name",
    "cli.TYPE_CHECKING": "the name type checkers treat as true, guarding cli's annotation-only imports",
}


def _public_names(path):
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_every_module_is_listed():
    assert {path.stem for path in SRC.glob("*.py")} == set(PUBLIC)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_the_listed_ones(module):
    assert _public_names(SRC / f"{module}.py") == PUBLIC[module]


def _read_in_code(module, name, text):
    """Whether text imports name from module, or reads it as module.name."""
    imports = re.finditer(rf"from\s+(?:naveval)?\.{module}\s+import\s+(\([^)]*\)|[^\n]*)", text)
    imported = any(re.search(rf"\b{name}\b", match.group(1)) for match in imports)
    return imported or re.search(rf"\b{module}\.{name}\b", text) is not None


def test_every_public_name_has_a_reader():
    """Each public name is imported or read as module.name by another module or by perfbench, or README
    names it in code: `name`, `name(...)` or module.name. A bare word in prose does not count."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    perfbench = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unread = []
    for module, names in PUBLIC.items():
        others = [path.read_text(encoding="utf-8") for path in SRC.glob("*.py") if path.stem != module]
        for name in sorted(names):
            documented = re.search(rf"`{name}[`(]", readme) or _read_in_code(module, name, readme)
            if not documented and not any(_read_in_code(module, name, text) for text in [*perfbench, *others]):
                unread.append(f"{module}.{name}")
    assert sorted(unread) == sorted(NO_READER)

"""Mutation testing for naveval with the standard library alone.

Each mutant makes one change to one module of src/naveval:

- a comparison operator is swapped (< and <=, > and >=, == and !=, is and
  is not, in and not in);
- an arithmetic operator is swapped (+ and -, * and /, // and /, % and //);
- a boolean operator is swapped (and and or);
- a numeric constant gets 1 added;
- a `not` is dropped.

The mutated module is written into a copy of src/ in a temporary directory,
and the chosen tests run against that copy. A mutant survives when they
pass. Annotations are never mutated: under `from __future__ import
annotations` they are not evaluated.

Bytecode is never written, by this script or by the tests it starts: a stale
.pyc beside a mutated module can be loaded instead of it and report a false
survivor.

    PYTHONDONTWRITEBYTECODE=1 python tools/mutate.py src/naveval/text.py \\
        --scope chunk_instruction -- tests/test_text.py tests/test_chain_exact.py

--scope keeps the sites inside the named top-level functions or classes
(a method as Class.method).
Exit status: 0 when every mutant is killed, 1 when one survives, 2 when the
tests fail on the unmutated module as the script writes it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SWAPS: dict[type, type] = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Div,
    ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div,
    ast.Mod: ast.FloorDiv,
    ast.And: ast.Or,
    ast.Or: ast.And,
}

# Fields that hold annotations, which no mutant touches.
ANNOTATION_FIELDS = {"annotation", "returns"}

SRC = Path(__file__).resolve().parent.parent / "src"

# A mutant that makes the tests loop forever is killed after this long.
TIMEOUT_S = 300.0


def sites(tree: ast.Module, scopes: list[str]) -> list[tuple[ast.AST, int | None, str]]:
    """(node, operator index, description) for every mutation, in walk order."""
    found: list[tuple[ast.AST, int | None, str]] = []

    def visit(node: ast.AST, path: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path = f"{path}.{node.name}" if path else node.name
        if _in_scope(path, scopes):
            found.extend(_node_sites(node))
        for field, value in ast.iter_fields(node):
            if field in ANNOTATION_FIELDS:
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, path)

    visit(tree, "")
    return found


def _in_scope(path: str, scopes: list[str]) -> bool:
    return not scopes or any(path == s or path.startswith(s + ".") for s in scopes)


def _node_sites(node: ast.AST) -> list[tuple[ast.AST, int | None, str]]:
    line = getattr(node, "lineno", "?")
    if isinstance(node, ast.Compare):
        return [(node, i, f"line {line}: {type(op).__name__} -> {SWAPS[type(op)].__name__}") for i, op in enumerate(node.ops)]
    if isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
        return [(node, None, f"line {line}: {type(node.op).__name__} -> {SWAPS[type(node.op)].__name__}")]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return [(node, None, f"line {line}: {node.value!r} -> {node.value + 1!r}")]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [(node, None, f"line {line}: drop not")]
    return []


def mutate(source: str, scopes: list[str], k: int) -> str:
    """The source with its k-th mutation applied."""
    tree = ast.parse(source)
    node, op_index, _ = sites(tree, scopes)[k]
    if isinstance(node, ast.Compare):
        node.ops[op_index] = SWAPS[type(node.ops[op_index])]()
    elif isinstance(node, (ast.BinOp, ast.BoolOp)):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value = node.value + 1
    else:
        tree = _DropNot(node).visit(tree)
    return ast.unparse(tree)


class _DropNot(ast.NodeTransformer):
    """Replaces one `not x` by x."""

    def __init__(self, target: ast.AST) -> None:
        self.target = target

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        return node.operand if node is self.target else node


def run_tests(src_copy: Path, tests: list[str]) -> bool:
    """True when the tests pass against src_copy; a run that hangs fails."""
    env = dict(os.environ, PYTHONPATH=str(src_copy), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], epilog="Arguments after -- go to pytest (default: tests)."
    )
    parser.add_argument("module", help="a module under src/, e.g. src/naveval/text.py")
    parser.add_argument("--scope", action="append", default=[], help="mutate only inside this function or class")
    argv = sys.argv[1:] if argv is None else argv
    tests = argv[argv.index("--") + 1 :] if "--" in argv else ["tests"]
    args = parser.parse_args(argv[: argv.index("--")] if "--" in argv else argv)

    module = Path(args.module).resolve()
    source = module.read_text(encoding="utf-8")
    labels = [label for _, _, label in sites(ast.parse(source), args.scope)]
    with tempfile.TemporaryDirectory() as tmp:
        src_copy = Path(tmp) / "src"
        shutil.copytree(SRC, src_copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src_copy / module.relative_to(SRC)
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        if not run_tests(src_copy, tests):
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 2
        survivors = []
        for k, label in enumerate(labels):
            target.write_text(mutate(source, args.scope, k), encoding="utf-8")
            killed = not run_tests(src_copy, tests)
            print(f"{'killed ' if killed else 'SURVIVED'} {label}", flush=True)
            if not killed:
                survivors.append(label)
    print(f"{len(labels)} mutants, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

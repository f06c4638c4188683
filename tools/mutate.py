"""Mutation analysis of one ``medquery`` module, from the standard library alone.

Usage::

    python tools/mutate.py src/medquery/scanner.py [--only NAME ...] [--workdir DIR] > survivors.txt

Each mutant changes one place of the module, parsed with ``ast``:

- operator swaps: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``in``
  and ``not in``, ``is`` and ``is not``, ``+`` and ``-``, ``*`` and ``//``,
  ``and`` and ``or``, and ``not x`` to ``x``;
- constant changes: an integer ``n`` to ``n + 1``, ``True`` and ``False``, a
  string (not a docstring) to ``""`` and an empty one to ``"x"``;
- statement deletions: a statement in a function body becomes ``pass``.

``--only`` keeps the mutants inside the named top-level functions or
classes. The module and the tests are copied to ``--workdir`` (a new
temporary directory by default), so the checkout is never changed. A
mutant runs only the test files that import its module, directly or
through other ``medquery`` modules, nearest importers first, with
``pytest -x``: it is killed when they fail or run ten times as long as
the unmutated module's run (at least a minute), and survives when they
pass. The unmutated module, written back by ``ast.unparse`` as every
mutant is, must pass first. Progress goes to stderr and the survivors,
one line each, to stdout. This is an offline tool; the tests do not run it.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "medquery"
_TIMEOUT_FACTOR, _MIN_TIMEOUT = 10, 60.0  # a mutant's run, against the unmutated one's, in seconds

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the constant nodes that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            found.add(id(body[0].value))
    return found


def _mutations(node: ast.AST, docstrings: set[int], in_function: bool) -> list[tuple[str, object]]:
    """Each way to mutate ``node`` itself, as (description, replacement or op swap)."""
    found: list[tuple[str, object]] = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                found.append((f"{type(op).__name__} -> {_SWAPS[type(op)].__name__}", ("ops", i)))
    elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in _SWAPS:
        found.append((f"{type(node.op).__name__} -> {_SWAPS[type(node.op)].__name__}", ("op", None)))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        found.append(("not x -> x", node.operand))
    elif isinstance(node, ast.Constant) and id(node) not in docstrings:
        value = node.value
        if isinstance(value, bool):
            found.append((f"{value} -> {not value}", ast.Constant(not value)))
        elif isinstance(value, int):
            found.append((f"{value} -> {value + 1}", ast.Constant(value + 1)))
        elif isinstance(value, str):
            found.append((f"{value!r} -> {'x' if not value else ''!r}", ast.Constant("x" if not value else "")))
    if in_function and isinstance(node, ast.stmt) and not isinstance(node, ast.Pass) \
            and not (isinstance(node, ast.Expr) and id(getattr(node, "value", None)) in docstrings):
        found.append(("statement -> pass", ast.Pass()))
    return found


def _points(tree: ast.Module, only: set[str]) -> list[tuple[ast.AST, str, object, str]]:
    """Every mutation point of ``tree``: (node, description, change, enclosing top-level name)."""
    docstrings = _docstrings(tree)
    points = []

    def visit(node: ast.AST, top: str, in_function: bool) -> None:
        for description, change in _mutations(node, docstrings, in_function):
            points.append((node, description, change, top))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr_context):
                continue
            visit(child, top, in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))

    for statement in tree.body:
        name = getattr(statement, "name", None) or next(
            (t.id for t in getattr(statement, "targets", []) if isinstance(t, ast.Name)), "")
        if not only or name in only:
            visit(statement, name, False)
    return points


def _mutant(tree: ast.Module, index: int, only: set[str]) -> str:
    """The source of ``tree`` with its ``index``-th mutation applied, on a copy."""
    tree = copy.deepcopy(tree)
    node, _, change, _ = _points(tree, only)[index]
    if isinstance(change, tuple) and change[0] == "ops":
        node.ops[change[1]] = _SWAPS[type(node.ops[change[1]])]()
    elif isinstance(change, tuple):
        node.op = _SWAPS[type(node.op)]()
    else:
        for parent in ast.walk(tree):
            for field, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, field, change)
                elif isinstance(value, list) and any(item is node for item in value):
                    value[[item is node for item in value].index(True)] = change
    return ast.unparse(ast.fix_missing_locations(tree))


def _imports(path: Path) -> set[str]:
    """The ``medquery`` modules a file imports; ``__init__`` for the package itself."""
    names: set[str] = set()
    modules = {p.stem for p in (ROOT / "src" / PACKAGE).glob("*.py")}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:  # inside the package
                names |= {module} if module else {a.name for a in node.names}
            elif module == PACKAGE:
                names |= {a.name if a.name in modules else "__init__" for a in node.names}
            elif module.startswith(PACKAGE + "."):
                names.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == PACKAGE:
                    names.add("__init__")
                elif alias.name.startswith(PACKAGE + "."):
                    names.add(alias.name.split(".")[1])
    return names


def importing_tests(module: str) -> list[Path]:
    """The test files that import ``module``, directly or through other modules, nearest first."""
    graph = {p.stem: _imports(p) for p in (ROOT / "src" / PACKAGE).glob("*.py")}
    distance = {module: 0}
    frontier = [module]
    for name in frontier:  # breadth first over importers
        for importer, imported in graph.items():
            if name in imported and importer not in distance:
                distance[importer] = distance[name] + 1
                frontier.append(importer)
    ranked = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        reach = [distance[name] for name in _imports(path) if name in distance]
        if reach:
            ranked.append((min(reach), path.name))
    return [Path("tests") / name for _, name in sorted(ranked)]


def _run(workdir: Path, files: list[Path], timeout: float | None) -> str:
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *map(str, files)],
            cwd=workdir, capture_output=True, timeout=timeout,
            env={**os.environ, "PYTHONPATH": str(workdir / "src")})
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if result.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="a module under src/medquery")
    parser.add_argument("--only", nargs="*", default=[], help="top-level functions or classes to mutate")
    parser.add_argument("--workdir", type=Path, help="where to copy src/ and tests/ (default: a new temp dir)")
    args = parser.parse_args(argv)

    source_path = args.module.resolve()
    name, only = source_path.stem, set(args.only)
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="mutate-"))
    for part in ("src", "tests"):
        shutil.rmtree(workdir / part, ignore_errors=True)
        shutil.copytree(ROOT / part, workdir / part, ignore=shutil.ignore_patterns("__pycache__"))
    target = workdir / "src" / PACKAGE / source_path.name
    tree = ast.parse(source_path.read_text(encoding="utf-8"))
    files = importing_tests(name)
    points = _points(tree, only)
    print(f"{len(points)} mutants of {name}; tests: {' '.join(f.name for f in files)}", file=sys.stderr)

    target.write_text(ast.unparse(tree), encoding="utf-8")
    started = time.perf_counter()
    if _run(workdir, files, None) != "survived":
        print("the unmutated module fails its tests; no mutant is run", file=sys.stderr)
        return 2
    timeout = max(_MIN_TIMEOUT, _TIMEOUT_FACTOR * (time.perf_counter() - started))
    survivors = []
    for index, (node, description, _, top) in enumerate(points):
        target.write_text(_mutant(tree, index, only), encoding="utf-8")
        started = time.perf_counter()
        verdict = _run(workdir, files, timeout)
        line = f"{name}.py:{node.lineno} in {top or '<module>'}: {description}"
        print(f"[{index + 1}/{len(points)}] {verdict:8} {time.perf_counter() - started:6.1f}s  {line}",
              file=sys.stderr)
        if verdict == "survived":
            survivors.append(line)
            print(line, flush=True)
    shutil.copyfile(source_path, target)
    print(f"{len(survivors)} of {len(points)} mutants survived", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

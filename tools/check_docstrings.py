#!/usr/bin/env python
"""Docstring lint: fail on undocumented public symbols in audited modules.

The repository convention (established in PR 1 for the store/serialization
layers) is that every public module, class, function, and method carries a
docstring — with paper-section references where the code implements part of
the DDSketch paper.  This script enforces the *presence* half of that
convention for the audited module set below, so new public surface cannot
land undocumented.  It is dependency-free on purpose (the CI image does not
ship ``pydocstyle``) and runs both as a CI step and via
``tests/test_docstring_lint.py``.

Usage::

    python tools/check_docstrings.py [extra_paths...]

Exits non-zero listing every public symbol that lacks a docstring.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Audited by default: the high-cardinality registry package (series keys,
#: registry), the grouped ingestion facade and its store-level primitives,
#: the service tier, the benchmark artifact schema, the query engine, the
#: ingest kernel and the wire codecs.
DEFAULT_TARGETS = [
    REPO_ROOT / "src" / "repro" / "registry",
    REPO_ROOT / "src" / "repro" / "serialization",
    REPO_ROOT / "src" / "repro" / "core" / "grouped.py",
    REPO_ROOT / "src" / "repro" / "store" / "grouped.py",
    REPO_ROOT / "src" / "repro" / "service",
    REPO_ROOT / "src" / "repro" / "evaluation" / "artifacts.py",
    REPO_ROOT / "src" / "repro" / "query",
    REPO_ROOT / "src" / "repro" / "kernel",
]


def _python_files(target: Path):
    if target.is_dir():
        yield from sorted(target.rglob("*.py"))
    else:
        yield target


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_in_file(path: Path):
    """Yield ``(qualified_name, lineno)`` for every undocumented public symbol."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    try:
        module = path.relative_to(REPO_ROOT).as_posix()
    except ValueError:  # explicitly targeted file outside the repository
        module = path.as_posix()
    if ast.get_docstring(tree) is None:
        yield f"{module} (module)", 1
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                yield f"{module}::{node.name}", node.lineno
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                yield f"{module}::{node.name}", node.lineno
            for member in node.body:
                if (
                    isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_public(member.name)
                    and ast.get_docstring(member) is None
                ):
                    yield f"{module}::{node.name}.{member.name}", member.lineno


def main(argv=None) -> int:
    """Run the lint over the default targets plus any extra paths given."""
    argv = sys.argv[1:] if argv is None else argv
    targets = list(DEFAULT_TARGETS) + [Path(extra).resolve() for extra in argv]
    missing = []
    for target in targets:
        if not target.exists():
            print(f"docstring lint: target {target} does not exist", file=sys.stderr)
            return 2
        for path in _python_files(target):
            missing.extend(_missing_in_file(path))
    if missing:
        print("undocumented public symbols:")
        for name, lineno in missing:
            print(f"  {name} (line {lineno})")
        return 1
    print(f"docstring lint: OK ({len(targets)} target(s), no undocumented public symbols)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

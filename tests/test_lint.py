"""Unused module-level imports (pyflakes F401), checked with ``ast``.

CI also runs ``ruff check``; this test keeps the one rule that has
regressed without it runnable wherever the tests run.  It honours
``[tool.ruff.lint.per-file-ignores]`` in pyproject.toml, ``# noqa``
comments, ``__all__`` and names used only inside string annotations.
"""

from __future__ import annotations

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: ``# noqa`` alone, or with a code list naming F401.
NOQA = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[\w\s,]*\bF401\b")


def _ignored_files() -> set[Path]:
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    ignores = config["tool"]["ruff"]["lint"].get("per-file-ignores", {})
    return {ROOT / name for name, rules in ignores.items() if "F401" in rules or "F" in rules}


def _bound_imports(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name bound by every module-level import -> its line number."""
    bound: dict[str, int] = {}
    # Module level includes imports nested in module-level if/try blocks.
    pending: list[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if NOQA.search(lines[node.lineno - 1]):
            continue
        for alias in node.names:
            if alias.asname is not None:
                bound[alias.asname] = node.lineno
            elif isinstance(node, ast.Import):
                bound[alias.name.split(".")[0]] = node.lineno
            elif alias.name != "*":
                bound[alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations.extend(a.annotation for a in every if a and a.annotation)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every module-level import ``source`` never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    bound = _bound_imports(tree, source.splitlines())
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_module_level_imports():
    ignored = _ignored_files()
    found = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        if path in ignored:
            continue
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports (F401):\n" + "\n".join(found)


def test_catches_a_planted_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "from repro.engine.table import Table\n"
        "from repro.engine.query import Query  # noqa: F401\n"
        "from repro.engine.plans import PlanNode  # noqa: E501\n"
        "__all__ = ['TYPE_CHECKING']\n"
        "def f(x: 'Table') -> None:\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (7, "PlanNode")]

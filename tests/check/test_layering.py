"""``repro.check`` holds oracles; production code must not reach into it.

The scalar reference planner lives in ``repro.check`` so the hot
modules carry one path each.  This guard keeps it (and every other
oracle) from drifting back: only ``repro/check/`` itself and the CLI
entry point may import the package.  Source is parsed, never executed.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent


def _imports_check(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        if any(
            name == "repro.check" or name.startswith("repro.check.")
            for name in names
        ):
            return True
    return False


def test_only_check_and_cli_import_repro_check():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT)
        if relative.parts[0] == "check" or relative == Path("cli.py"):
            continue
        if _imports_check(ast.parse(path.read_text(), filename=str(path))):
            offenders.append(str(relative))
    assert offenders == []
    # The walk must be able to fire: the CLI is a known importer.
    assert _imports_check(ast.parse((PACKAGE_ROOT / "cli.py").read_text()))

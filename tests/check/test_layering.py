"""Import layering, checked on source that is parsed, never executed.

``repro.check`` holds oracles; production code must not reach into it.
The scalar reference planner lives in ``repro.check`` so the hot
modules carry one path each.  This guard keeps it (and every other
oracle) from drifting back: only ``repro/check/`` itself and the CLI
entry point may import the package.

``repro.obs`` is the instrumentation every layer imports, so it must not
import a layer above it: nothing under ``repro/obs/`` imports
``repro.serve``, ``repro.engine`` or ``repro.core``.  Code that drives the
engine for a report (blame attribution) lives in ``repro.experiments``.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent


def _imports(tree: ast.AST, package: str) -> bool:
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
            name == package or name.startswith(f"{package}.")
            for name in names
        ):
            return True
    return False


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_only_check_and_cli_import_repro_check():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT)
        if relative.parts[0] == "check" or relative == Path("cli.py"):
            continue
        if _imports(_parse(path), "repro.check"):
            offenders.append(str(relative))
    assert offenders == []
    # The walk must be able to fire: the CLI is a known importer.
    assert _imports(_parse(PACKAGE_ROOT / "cli.py"), "repro.check")


def test_obs_does_not_import_repro_serve():
    offenders = [
        str(path.relative_to(PACKAGE_ROOT))
        for path in sorted((PACKAGE_ROOT / "obs").rglob("*.py"))
        if _imports(_parse(path), "repro.serve")
    ]
    assert offenders == []
    # The walk must be able to fire: the CLI imports the serving package.
    assert _imports(_parse(PACKAGE_ROOT / "cli.py"), "repro.serve")


def test_obs_does_not_import_engine_or_core():
    offenders = [
        str(path.relative_to(PACKAGE_ROOT))
        for path in sorted((PACKAGE_ROOT / "obs").rglob("*.py"))
        for package in ("repro.engine", "repro.core")
        if _imports(_parse(path), package)
    ]
    assert offenders == []
    # The walk must be able to fire: blame attribution plans and
    # executes queries from outside the package.
    blame = _parse(PACKAGE_ROOT / "experiments" / "blame.py")
    assert _imports(blame, "repro.engine")
    assert _imports(blame, "repro.core")

"""The docs may only quote files and CLI subcommands that exist.

Guards README.md, EXPERIMENTS.md, DESIGN.md and benchmarks/README.md
against naming a deleted benchmark script, result JSON, source module,
test file or ``repro`` subcommand.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "benchmarks/README.md")

#: ``benchmarks/...(.py|.json|.md)``, ``src/repro/...py``, ``tests/...py``.
#: Globs and brace lists (``bench_table*.py``) contain characters outside
#: the class and are not matched.
_PATH = re.compile(
    r"(?<![\w/.-])("
    r"benchmarks/[\w./-]*\.(?:py|json|md)"
    r"|src/repro/[\w./-]*\.py"
    r"|tests/[\w./-]*\.py"
    r")(?!\w)"
)

#: ``python -m repro.cli [--mode M] <sub>`` and back-ticked ```repro <sub>``.
_COMMAND = re.compile(
    r"(?:python -m repro\.cli|`repro)\s+(?:--mode\s+\w+\s+)?([a-z][\w-]*)"
)


def _subcommands() -> set[str]:
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("cli.build_parser() defines no subcommands")


@pytest.mark.parametrize("doc", DOCS)
def test_quoted_paths_exist(doc):
    quoted = set(_PATH.findall((REPO / doc).read_text()))
    missing = sorted(path for path in quoted if not (REPO / path).exists())
    assert missing == [], f"{doc} quotes files that do not exist"


@pytest.mark.parametrize("doc", DOCS)
def test_quoted_commands_are_subcommands(doc):
    quoted = set(_COMMAND.findall((REPO / doc).read_text()))
    unknown = sorted(quoted - _subcommands())
    assert unknown == [], f"{doc} quotes `repro` subcommands that do not exist"

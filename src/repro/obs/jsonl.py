"""Append-only JSONL files that survive a killed writer.

Every durable log in the repo — events, campaign checkpoints, serving
traces, access logs, drift pairs — is one JSON object per
``\\n``-terminated line, flushed whole, so a writer killed at any
instant leaves at most one torn final line.  The two halves of that
contract live here:

- :func:`open_append` terminates a torn tail before the next writer
  appends, so its first record is not glued onto the fragment (which
  would lose both to every reader);
- :func:`read_jsonl` skips blank lines and lines that do not parse.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TextIO


def open_append(path: str | Path) -> TextIO:
    """Open ``path`` for appending whole lines, creating parent directories.

    If the file ends in a fragment without a newline, one is written
    first.  ``handle.tell() == 0`` on the result means the file is new
    or empty.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    torn_tail = False
    if path.exists() and path.stat().st_size:
        with path.open("rb") as probe:
            probe.seek(-1, 2)
            torn_tail = probe.read(1) != b"\n"
    handle = path.open("a", encoding="utf-8")
    if torn_tail:
        handle.write("\n")
    return handle


def read_jsonl(path: str | Path, *, missing_ok: bool = True) -> list[dict]:
    """Every intact record of a JSONL file, in file order.

    Blank lines and unparseable lines — the torn tail of a killed
    writer, or one a later :func:`open_append` terminated — are
    skipped; everything else is intact because records are flushed
    whole.  Reading stops at a final line without its newline: it is
    torn, or a live writer is still writing it, and reading on would
    split that record in two and lose it.  A missing file reads as
    empty unless ``missing_ok`` is false, in which case
    ``FileNotFoundError`` propagates.
    """
    records: list[dict] = []
    try:
        handle = Path(path).open("r", encoding="utf-8")
    except FileNotFoundError:
        if missing_ok:
            return records
        raise
    with handle:
        for line in handle:
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records

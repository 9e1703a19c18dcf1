"""Deterministic file output: fixed-format CSV and NDJSON with atomic writes.

Floats carry 12 significant digits (CSV cells are formatted here, NDJSON
records arrive rounded) so that identical configs produce byte-identical
files.  Every file is written to a temporary sibling and renamed into
place, so a failing run never leaves partial output.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["fmt", "write_csv", "write_ndjson"]


def fmt(value) -> str:
    """Render a cell: floats at 12 significant digits, everything else as str."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_ndjson(path, records) -> Path:
    """One compact JSON line per record; callers round floats to 12 digits first."""
    path = Path(path)
    lines = [json.dumps(rec, separators=(",", ":")) for rec in records]
    _atomic_write(path, "\n".join(lines) + "\n")
    return path

"""Deterministic file output: fixed-format CSV and NDJSON.

Floats carry 12 significant digits, in CSV cells and in NDJSON values and lists
alike, so that identical configs produce byte-identical files.  The writers
write in place; ``runners.run_experiment`` points them at a staging directory
and publishes a run's files only once it succeeds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["fmt", "write_csv", "write_ndjson"]


def fmt(value) -> str:
    """Render a cell: floats at 12 significant digits, everything else as str."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _round(value):
    """A float, or each float of a flat list, rounded to 12 digits; other values pass."""
    if isinstance(value, list):
        return [float(f"{v:.12g}") if isinstance(v, (float, np.floating)) else v for v in value]
    return float(f"{value:.12g}") if isinstance(value, (float, np.floating)) else value


def write_ndjson(path, records) -> Path:
    """One compact JSON line per flat record (an iterable of dicts), floats rounded.

    Each line is written as it is made; an empty stream writes one newline.
    """
    path = Path(path)
    lines = (json.dumps({k: _round(v) for k, v in r.items()}, separators=(",", ":")) + "\n" for r in records)
    with path.open("w") as fh:
        fh.write(next(lines, "\n"))
        fh.writelines(lines)
    return path

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


def _json_value(v) -> str:
    """Compact ``json.dumps(_round(v))``, in one pass for a 1-D float64 array.

    Its ``%.12g`` cells are redone where the JSON float can differ: nan, inf, zero, subnormals, and
    values within 1e-11 |v| of an integer ("3" for "3.0"), which take in "1e+12" and all |v| >= 5e10.
    """
    if not (isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype == np.float64):
        return json.dumps(_round(v), separators=(",", ":"))
    cells = ("%.12g," * len(v) % tuple(v.tolist())).split(",")[:-1]
    near_int = np.isclose(v, np.rint(v), rtol=1e-11, atol=0.0)
    for i in np.flatnonzero(~np.isfinite(v) | (np.abs(v) < 2.3e-308) | near_int):
        cells[i] = json.dumps(float(cells[i]))
    return f"[{','.join(cells)}]"


def write_ndjson(path, records) -> Path:
    """One compact JSON line per flat record (an iterable of dicts), floats rounded.

    Each line is written as it is made; an empty stream writes one newline.
    """
    path = Path(path)
    lines = ("{%s}\n" % ",".join(f"{json.dumps(k)}:{_json_value(v)}" for k, v in r.items()) for r in records)
    with path.open("w") as fh:
        fh.write(next(lines, "\n"))
        fh.writelines(lines)
    return path

"""The benchmark's workloads: config per seed, CLI arguments and output checks.

Seed 0 runs each workload's config unchanged.  Any other seed draws the
imaginary shift delta and the drift (v/v_c, or v where phi = 0 leaves v_c
undefined) uniformly from the ranges in ``DRAWS``.  The checks compare the
outputs with closed forms that hold for every draw; seed 0 is also pinned to
the values the package produced when the benchmark was written.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

# name -> (key path in the YAML, low, high); list-valued entries draw per sweep point.
DRAWS = {
    "spectrum-sweep": {
        ("potential", "delta"): (0.1, 0.3),
        # The first point stays at rest; the last stays at or below 0.9 v_c,
        # above which the runner doubles the box (a different workload).
        ("params", "v_over_vc"): [(0.0, 0.0), (0.4, 0.6), (0.8, 0.9)],
    },
    "scatter-barrier": {
        ("potential", "delta"): (-0.6, -0.4),
        # Slower drifts leave the packet within five widths of the barrier at
        # the config's t_final, which the runner reports as inconclusive.
        ("params", "v"): (-2.1, -2.0),
    },
    "gain-transient": {
        ("potential", "delta"): (0.15, 0.25),
        ("params", "v_over_vc"): [(0.75, 0.85)],
    },
}

# Values of the gain-transient workload at seed 0 when the benchmark was written.
SEED0_G_INFINITY = 18.6404
SEED0_G_T = {0.5: 2.07630202277, 2.0: 8.55931235799, 5.0: 20.0615653228}


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str
    config: str  # relative to the checkout root
    jobs: int

    def make_config(self, root: Path, seed: int, workdir: Path):
        """Return (config path, parsed config) for ``seed``; seed 0 is the file as is."""
        path = root / self.config
        raw = yaml.safe_load(path.read_text())
        if seed == 0:
            return path, raw
        rng = random.Random(f"{self.name}:{seed}")
        for (section, key), span in DRAWS[self.name].items():
            if isinstance(span, list):
                raw[section][key] = [round(rng.uniform(lo, hi), 6) for lo, hi in span]
            else:
                raw[section][key] = round(rng.uniform(*span), 6)
        raw.pop("output_dir", None)
        drawn = workdir / f"{self.name}-seed{seed}.yaml"
        drawn.write_text(yaml.safe_dump(raw, sort_keys=False))
        return drawn, raw

    def cli_args(self, config: Path, outdir: Path) -> list:
        return [self.runner, "--config", str(config), "--jobs", str(self.jobs), "--output", str(outdir)]

    def check(self, outdir: Path, raw: dict, seed: int) -> list:
        """Problems found in one invocation's outputs; empty when they are correct."""
        try:
            return _CHECKS[self.name](outdir, raw, seed)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def corrupt(self, outdir: Path):
        """Damage one output value in place, as a broken program might."""
        _CORRUPTIONS[self.name](outdir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectrum-sweep", "spectrum", "configs/spectrum_drift_sweep.yaml", 1),
        Workload("scatter-barrier", "scatter", "configs/scatter_barrier_k0.yaml", 1),
        Workload("gain-transient", "amplify", "perfbench/gain_transient.yaml", 1),
    )
}


# ------------------------------------------------------------------ helpers


def _rows(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _write_rows(path: Path, rows: list):
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _ground_energy(raw: dict) -> float:
    return -float(raw["potential"].get("nu", 1.0)) ** 2


def _critical_velocity(e1: float, phi: float) -> float:
    return 2.0 * math.sqrt(-e1) / math.sin(phi)


# ------------------------------------------------------------------- checks


def _check_spectrum(outdir: Path, raw: dict, seed: int) -> list:
    problems = []
    e1 = _ground_energy(raw)
    phi = float(raw["params"]["phi"])
    fractions = [float(f) for f in _as_list(raw["params"]["v_over_vc"])]
    manifest = _rows(outdir / "manifest.csv")
    if len(manifest) != len(fractions):
        problems.append(f"manifest has {len(manifest)} rows, expected {len(fractions)}")
    for row in manifest:
        if int(row["numerical_point_count"]) != 1:
            problems.append(f"manifest row {row['index']}: point count {row['numerical_point_count']}")
    rot = complex(math.cos(phi), -math.sin(phi))
    for i, frac in enumerate(fractions):
        v = frac * _critical_velocity(e1, phi)
        shifted = e1 * rot - (v * v / 4.0) * rot.conjugate()
        margin = math.sqrt(-e1) - abs(v / 2.0) * math.sin(phi)
        points = [r for r in _rows(outdir / f"eigs_{i:03d}.csv") if r["classification"] == "point"]
        if len(points) != 1:
            problems.append(f"point {i}: {len(points)} point states, expected 1")
            continue
        energy = complex(float(points[0]["re_e"]), float(points[0]["im_e"]))
        if abs(energy - shifted) > 5e-3:
            problems.append(f"point {i}: eigenvalue {energy:.6g} vs closed form {shifted:.6g}")
        loc = float(points[0]["localization_length"])
        if not abs(loc * margin - 1.0) <= 0.05:
            problems.append(f"point {i}: localization length {loc:.6g} vs 1/margin {1 / margin:.6g}")
    return problems


def _check_scatter(outdir: Path, raw: dict, seed: int) -> list:
    problems = []
    report = _rows(outdir / "report.csv")
    phis = _as_list(raw["params"]["phi"])
    if len(report) != len(phis):
        problems.append(f"report has {len(report)} rows, expected {len(phis)}")
    prop = raw["propagator"]
    records = round(float(prop["t_final"]) / float(prop["dt"])) // int(prop["snapshot_every"]) + 1
    for row in report:
        idx, phi, v = int(row["index"]), float(row["phi"]), float(row["v"])
        evanescent = row["evanescent"] == "true"
        if abs(float(row["im_k_r"]) - v * math.sin(phi)) > 1e-9:
            problems.append(f"row {idx}: Im k_r {row['im_k_r']} vs v sin(phi) {v * math.sin(phi):.12g}")
        if phi == 0.0 and not float(row["reflected_fraction"]) > 0.99:
            problems.append(f"row {idx}: reflected fraction {row['reflected_fraction']} at phi = 0")
        if phi > 0.0 and not (evanescent and float(row["transmitted_fraction"]) > 0.999):
            problems.append(
                f"row {idx}: transmitted {row['transmitted_fraction']}, evanescent {row['evanescent']}"
            )
        with (outdir / f"evolution_{idx:03d}.ndjson").open() as fh:
            count = sum(1 for _ in fh)
        if count != records:
            problems.append(f"row {idx}: {count} evolution records, expected {records}")
    rt_files = sorted(outdir.glob("rt_*.csv"))
    if len(rt_files) != len(phis):
        problems.append(f"{len(rt_files)} rt files, expected {len(phis)}")
    for path in rt_files:
        count = len(_rows(path))
        if count != int(raw["rt_sweep"]["num"]):
            problems.append(f"{path.name}: {count} rows, expected {raw['rt_sweep']['num']}")
    return problems


def g_infinity_closed_form(delta: float, s: float) -> float:
    """Gain factor of u = sech(x - i delta) under the weights exp(+-s x), 0 < |s| < 2, delta != 0.

    int |u|^2 e^{s x} dx = 2 pi sin(s delta) / (sin(2 delta) sin(pi s / 2)) and
    int u^2 dx = 2, so G = (pi sin(s delta) / (sin(2 delta) sin(pi s / 2)))^2.
    """
    return (math.pi * math.sin(s * delta) / (math.sin(2.0 * delta) * math.sin(math.pi * s / 2.0))) ** 2


def _check_gain(outdir: Path, raw: dict, seed: int) -> list:
    problems = []
    e1 = _ground_energy(raw)
    delta = float(raw["potential"]["delta"])
    (frac,) = _as_list(raw["params"]["v_over_vc"])
    (row,) = _rows(outdir / "ginf.csv")
    ginf = float(row["g_infinity"])
    expected = [g_infinity_closed_form(delta, 2.0 * float(frac) * math.sqrt(-e1))]
    if seed == 0:
        expected.append(SEED0_G_INFINITY)
    for value in expected:
        if not abs(ginf - value) <= 1e-5 * value:
            problems.append(f"g_infinity {ginf:.12g} vs {value:.12g}")
    times = [float(t) for t in raw["amplify"]["g_t_times"]]
    samples = [(float(r["t"]), float(r["g_t"])) for r in _rows(outdir / "gt_000.csv")]
    if [t for t, _ in samples] != times:
        problems.append(f"g_t rows at {[t for t, _ in samples]}, expected {times}")
    for t, g in samples:
        if not (math.isfinite(g) and g >= 1.0 - 1e-9):
            problems.append(f"g_t({t}) = {g}: not finite or below 1")
        if seed == 0 and not abs(g - SEED0_G_T[t]) <= 1e-6 * SEED0_G_T[t]:
            problems.append(f"g_t({t}) = {g:.12g}, pinned {SEED0_G_T[t]:.12g}")
    return problems


_CHECKS = {
    "spectrum-sweep": _check_spectrum,
    "scatter-barrier": _check_scatter,
    "gain-transient": _check_gain,
}


# -------------------------------------------------------------- corruptions


def _corrupt_csv(path: Path, row: int, column: str, change):
    rows = _rows(path)
    rows[row][column] = change(rows[row][column])
    _write_rows(path, rows)


_CORRUPTIONS = {
    "spectrum-sweep": lambda out: _corrupt_csv(
        out / "manifest.csv", 0, "numerical_point_count", lambda c: str(int(c) + 1)
    ),
    "scatter-barrier": lambda out: _corrupt_csv(
        out / "report.csv", -1, "evanescent", lambda e: "false" if e == "true" else "true"
    ),
    "gain-transient": lambda out: _corrupt_csv(
        out / "ginf.csv", 0, "g_infinity", lambda g: repr(float(g) * 1.001)
    ),
}

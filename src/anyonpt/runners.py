"""Figure-level experiment runners driven by ExperimentConfig.

Each runner takes the config's sweep points, which arrive with their drift
parameters and potential built, and computes them (in parallel worker
threads when jobs > 1); a point's files are written as soon as it is done,
and a summary table follows in sweep order, one row per point, each row a
mapping from column name to value.  The runners that evolve fields
(``scatter``, ``amplify``) split the points into one contiguous run per
worker and evolve each run as one batch through the library's own path,
``run_packet_scattering`` or ``evolve_batch``, which keeps of each stop
only N(t) and the density at every density_stride-th point; a point's
evolution files wait for its run.
``run_experiment`` hands every runner a hidden staging directory inside the
output directory and moves the files into place only once the runner
returns, so a failed run leaves nothing behind.  Outputs are CSV for curves
and tables, NDJSON for space-time fields; all floats at 12 significant
digits, file names indexed by sweep position.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
import shutil
import socket
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ._io import write_csv, write_ndjson
from .config import ExperimentConfig, SweepPoint
from .lasermap import map_to_anyonic, mode_locking_threshold
from .model import build_h_eff
from .nonnormal import analytic_bound_state_pt, g_infinity, g_t, self_orthogonality
from .propagation import evolve_batch
from .scattering import group_velocity, run_packet_scattering, stationary_rt
from .spectra import (
    continuous_dispersion,
    delocalization_margin,
    moving_bound_state,
    point_states,
    shifted_point_energy,
    solve_spectrum,
)

__all__ = ["run_experiment", "run_spectrum", "run_delocalize", "run_scatter", "run_amplify", "run_lasermap"]


def _map_points(fn, points, jobs: int):
    """``fn`` over ``points`` in order, on at most ``jobs`` threads and no more than usable CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if min(jobs, cpus, len(points)) <= 1:
        return [fn(p) for p in points]
    with ThreadPoolExecutor(max_workers=min(jobs, cpus)) as pool:
        return list(pool.map(fn, points))


def _map_chunks(fn, points, jobs: int) -> list:
    """``fn`` over min(jobs, m) contiguous runs of the m points; its lists joined in sweep order.

    jobs <= 1 gives one run, as ``_map_points`` runs serially then.
    """
    n = max(1, min(jobs, len(points)))
    chunks = [points[len(points) * j // n : len(points) * (j + 1) // n] for j in range(n)]
    return list(itertools.chain.from_iterable(_map_points(fn, chunks, jobs)))


def _point_columns(point: SweepPoint) -> dict:
    """The leading columns of a summary row."""
    return {"index": point.index, "phi": point.params.phi, "v": point.params.v, "delta": point.delta}


def _with_summary(outdir: Path, name: str, computed) -> list:
    """The points' files in sweep order, then table ``name`` of their summary rows.

    ``computed`` holds one ``(paths, row)`` per sweep point; the first row's
    keys are the table's header.
    """
    written = [path for paths, _ in computed for path in paths]
    rows = [row for _, row in computed]
    return written + [write_csv(outdir / name, list(rows[0]), [r.values() for r in rows])]


def _write_evolution(outdir: Path, tag: str, record, densities) -> list:
    """Write evolution_<tag>.ndjson (t, N(t), ``densities`` at each stop) and norm_<tag>.csv."""
    times, norms = record.times, record.norm
    ndjson = ({"t": t, "norm": n, "density": d.tolist()} for t, n, d in zip(times, norms, densities))
    return [
        write_ndjson(outdir / f"evolution_{tag}.ndjson", ndjson),
        write_csv(outdir / f"norm_{tag}.csv", ("t", "norm"), zip(times, norms)),
    ]


# --------------------------------------------------------------------- spectrum


def run_spectrum(cfg: ExperimentConfig, outdir: Path, jobs: int = 1) -> list:
    def compute(point: SweepPoint):
        params = point.params
        h = build_h_eff(point.potential, params, point.grid, boundary=cfg.boundary)
        result = solve_spectrum(h)
        k = np.linspace(-cfg.k_max, cfg.k_max, cfg.k_points)
        band = continuous_dispersion(k, params)
        bound_rows = []
        for n, e_n in enumerate(cfg.bound_energies(), start=1):
            shifted = shifted_point_energy(e_n, params)
            survives = delocalization_margin(e_n, params) > 0
            bound_rows.append((n, e_n, shifted.real, shifted.imag, survives))
        tag = f"{point.index:03d}"
        paths = [
            write_csv(
                outdir / f"continuum_{tag}.csv",
                ("k", "re_e", "im_e"),
                zip(k, band.real, band.imag),
            ),
            write_csv(
                outdir / f"bound_{tag}.csv",
                ("n", "e_stationary", "re_e", "im_e", "survives"),
                bound_rows,
            ),
            write_csv(
                outdir / f"eigs_{tag}.csv",
                ("re_e", "im_e", "classification", "localization_length"),
                result.csv_rows(),
            ),
        ]
        return paths, {**_point_columns(point), "numerical_point_count": result.point_count}

    return _with_summary(outdir, "manifest.csv", _map_points(compute, cfg.sweep_points(), jobs))


# ------------------------------------------------------------------- delocalize


def run_delocalize(cfg: ExperimentConfig, outdir: Path, jobs: int = 1) -> list:
    def compute(point: SweepPoint):
        params = point.params
        e1 = cfg.ground_state_energy()
        u1 = analytic_bound_state_pt(point.grid, point.delta, point.potential.well_nu)
        dressed = moving_bound_state(u1, e1, params)
        margin = delocalization_margin(e1, params)
        h = build_h_eff(point.potential, params, point.grid, boundary=cfg.boundary)
        result = point_states(h, [shifted_point_energy(e, params) for e in cfg.bound_energies()])
        loc_num = math.inf
        pts = result.point_indices()
        if len(pts):
            target = shifted_point_energy(e1, params)
            best = pts[np.argmin(np.abs(result.eigenvalues[pts] - target))]
            loc_num = float(result.localization_length[best])
        paths = []
        if dressed is not None:
            paths.append(
                write_csv(
                    outdir / f"profile_{point.index:03d}.csv",
                    ("x", "density"),
                    zip(point.grid.x, dressed.density()),
                )
            )
        return paths, {
            **_point_columns(point),
            "margin": margin,
            "analytic_localization_length": (1.0 / margin) if margin > 0 else math.inf,
            "numerical_point_count": result.point_count,
            "numerical_localization_length": loc_num,
        }

    return _with_summary(outdir, "metrics.csv", _map_points(compute, cfg.sweep_points(), jobs))


# ---------------------------------------------------------------------- scatter


def run_scatter(cfg: ExperimentConfig, outdir: Path, jobs: int = 1) -> list:
    points = cfg.sweep_points()

    def scatter(chunk):
        cases = [(p.potential, p.params, cfg.packet(p.carrier)) for p in chunk]
        runs = run_packet_scattering(cases, cfg.propagator, cfg.grid, cfg.separatrix, cfg.density_stride)
        computed = []
        for point, (record, report) in zip(chunk, runs):
            paths = _write_evolution(outdir, f"{point.index:03d}", record, record.densities)
            row = {
                **_point_columns(point),
                "k": report.k_incident,
                "re_k_r": report.k_reflected.real,
                "im_k_r": report.k_reflected.imag,
                "reflected_fraction": report.reflected_power_fraction,
                "transmitted_fraction": report.transmitted_power_fraction,
                "evanescent": report.reflected_is_evanescent,
            }
            computed.append((paths, row))
        return computed

    written = _with_summary(outdir, "report.csv", _map_chunks(scatter, points, jobs))
    if cfg.rt_sweep is None:
        return written

    # stationary r(k), t(k) spectra, one file per distinct (phi, v, delta)
    ks = np.linspace(cfg.rt_sweep["k_min"], cfg.rt_sweep["k_max"], cfg.rt_sweep["num"])

    def rt_file(item):
        i, point = item
        incident = ks[group_velocity(ks, point.params) > 0]  # left-incident channels only
        rows = []
        if len(incident):
            r, t = stationary_rt(point.potential, point.params, incident)
            rows = zip(incident, r.real, r.imag, t.real, t.imag)
        return write_csv(outdir / f"rt_{i:03d}.csv", ("k", "re_r", "im_r", "re_t", "im_t"), rows)

    by_triple = {(p.params.phi, p.params.v, p.delta): p for p in points}
    distinct = [by_triple[triple] for triple in sorted(by_triple)]
    return written + _map_points(rt_file, list(enumerate(distinct)), jobs)


# ---------------------------------------------------------------------- amplify


def run_amplify(cfg: ExperimentConfig, outdir: Path, jobs: int = 1) -> list:
    e1 = cfg.ground_state_energy()

    def compute(chunk):
        computed, fields = [], []
        for point in chunk:
            params = point.params
            margin = delocalization_margin(e1, params)
            nu = point.potential.well_nu
            ginf = g_infinity(point.delta, params, nu)
            sorth = self_orthogonality(point.delta, nu)

            paths = []
            if cfg.g_t_times:
                h = build_h_eff(point.potential, params, cfg.g_t_grid, boundary="dirichlet")
                e_dom = point_states(h, [shifted_point_energy(e1, params)]).eigenvalues[0]
                gt_rows = zip(cfg.g_t_times, g_t(h, e_dom, cfg.g_t_times))
                paths.append(write_csv(outdir / f"gt_{point.index:03d}.csv", ("t", "g_t"), gt_rows))
            if cfg.amplify_evolve:  # on the config box; v < v_c, checked at parse time
                u1 = analytic_bound_state_pt(cfg.grid, point.delta, nu)
                fields.append((moving_bound_state(u1, e1, params), point.potential, params))
            _, *leading = _point_columns(point).items()  # ginf.csv has no index column
            row = dict(leading, g_infinity=ginf, self_orthogonality=sorth, margin=margin)
            computed.append((paths, row))
        # one batched evolution per chunk; densities divided by N(t) keep only their shape
        runs = evolve_batch(fields, cfg.propagator, cfg.density_stride) if fields else ()
        for point, (paths, _), record in zip(chunk, computed, runs):
            shapes = (d / n for d, n in zip(record.densities, record.norm))
            paths += _write_evolution(outdir, f"{point.index:03d}", record, shapes)
        return computed

    return _with_summary(outdir, "ginf.csv", _map_chunks(compute, cfg.sweep_points(), jobs))


# --------------------------------------------------------------------- lasermap


def run_lasermap(cfg: ExperimentConfig, outdir: Path, jobs: int = 1) -> list:
    m = map_to_anyonic(cfg.cavity)
    row = (m.params.phi, m.params.v, m.gain_balanced, m.modulators_tuned,
           mode_locking_threshold(cfg.cavity, cfg.e1))
    header = ("phi", "v", "gain_balanced", "modulators_tuned", "threshold")
    written = [write_csv(outdir / "mapping.csv", header, [row])]
    if cfg.detuning is not None:
        d = cfg.detuning
        table = []
        for ratio in np.linspace(d["start"], d["stop"], d["num"]):
            cav = dataclasses.replace(cfg.cavity, Tm=ratio * cfg.cavity.TR)
            v, thr = map_to_anyonic(cav).params.v, mode_locking_threshold(cav, cfg.e1)
            table.append((ratio, v, thr, abs(v) >= thr))
        header = ("tm_over_tr", "v", "threshold", "delocalized")
        written.append(write_csv(outdir / "threshold_table.csv", header, table))
    return written


_RUNNERS = {
    "spectrum": run_spectrum,
    "delocalize": run_delocalize,
    "scatter": run_scatter,
    "amplify": run_amplify,
    "lasermap": run_lasermap,
}


def run_experiment(cfg: ExperimentConfig, outdir, jobs: int = 1) -> list:
    """Run ``cfg``'s runner and publish its files in ``outdir``: all of them or none.

    The runner writes into a hidden ``.partial-<host>-<pid>-*`` directory inside
    ``outdir``, so each final rename stays on one filesystem; no file moves if a
    target is a directory.  A failure removes the stage, then each directory this
    call created, deepest first, until one is not empty; other files stay as they are.
    """
    outdir = Path(outdir)
    made = list(itertools.takewhile(lambda d: not d.exists(), [outdir, *outdir.parents]))
    outdir.mkdir(parents=True, exist_ok=True)
    host = socket.gethostname()  # first remove the stages of this host's exited runs
    for old in outdir.glob(".partial-*-*-*") if os.name == "posix" else ():
        name, pid, _ = old.name.rsplit("-", 2)  # older names, without host and pid, skip
        try:
            if name == f".partial-{host}" and pid.isdecimal():
                os.kill(int(pid), 0)  # signal 0 only checks that the pid exists
        except ProcessLookupError:
            shutil.rmtree(old, ignore_errors=True)
        except (PermissionError, OverflowError):  # another user's process, or no valid pid
            pass
    stage = Path(tempfile.mkdtemp(prefix=f".partial-{host}-{os.getpid()}-", dir=outdir))
    try:
        staged = _RUNNERS[cfg.experiment](cfg, stage, jobs=jobs)
        for target in (outdir / path.name for path in staged):
            if target.is_dir():
                raise IsADirectoryError(f"{target} is a directory")
        written = [path.replace(outdir / path.name) for path in staged]
        stage.rmdir()
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        with contextlib.suppress(OSError):  # a directory others wrote into stays
            for d in made:
                d.rmdir()
        raise
    return written

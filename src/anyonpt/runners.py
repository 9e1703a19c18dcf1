"""Figure-level experiment runners driven by ExperimentConfig.

Each runner resolves the config's sweep, computes every sweep point (in
parallel worker threads when jobs > 1), and only then writes its output
files, so a failure anywhere leaves no partial products.  Outputs are CSV
for curves and tables, NDJSON for space-time fields; all floats at 12
significant digits, file names indexed by sweep position, merges ordered
by sweep index.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ._io import write_csv, write_ndjson
from .config import ExperimentConfig, SweepPoint
from .errors import ConfigError
from .lasermap import map_to_anyonic, mode_locking_threshold
from .model import AnyonicParams, Grid, build_h_eff
from .nonnormal import (
    AmplificationReport,
    amplification_grid_for,
    analytic_bound_state_pt,
    g_infinity,
    g_infinity_poschl_teller,
    g_t,
    self_orthogonality,
)
from .propagation import evolve
from .scattering import group_velocity, run_packet_scattering, stationary_rt
from .spectra import (
    DispersionCurve,
    delocalization_margin,
    moving_bound_state,
    point_states,
    shifted_point_energy,
    solve_spectrum,
)

__all__ = ["run_experiment", "run_spectrum", "run_delocalize", "run_scatter", "run_amplify", "run_lasermap"]


def _map_points(fn, points, jobs: int):
    if jobs <= 1 or len(points) <= 1:
        return [fn(p) for p in points]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, points))


def _write_evolution(outdir: Path, tag: str, record, stride: int, divisors) -> list:
    """Write evolution_<tag>.ndjson and norm_<tag>.csv for one evolution record.

    Each snapshot's density is divided by its entry of ``divisors`` and
    sampled at every ``stride``-th grid point.
    """
    ndjson = [  # rounded once to the 12 significant digits of every output
        {
            "t": float(f"{t:.12g}"),
            "norm": float(f"{norm:.12g}"),
            "density": [float(f"{d:.12g}") for d in (snap.density() / div)[::stride].tolist()],
        }
        for t, norm, snap, div in zip(record.times, record.norm, record.snapshots, divisors)
    ]
    return [
        write_ndjson(outdir / f"evolution_{tag}.ndjson", ndjson),
        write_csv(outdir / f"norm_{tag}.csv", ("t", "norm"), zip(record.times, record.norm)),
    ]


def _stationary_ground_state(cfg: ExperimentConfig, delta: float, grid: Grid):
    """Bound state of the stationary well: closed form at nu = 1, else numeric."""
    e1 = cfg.ground_state_energy()
    if cfg.closed_form_well():
        return analytic_bound_state_pt(grid, delta), e1
    h = build_h_eff(cfg.potential(delta), AnyonicParams(phi=0.0, v=0.0), grid, "dirichlet")
    return point_states(h, [e1]).eigenvector(0), e1


# --------------------------------------------------------------------- spectrum


def run_spectrum(cfg: ExperimentConfig, outdir: Path, jobs: int = 1) -> list:
    points = cfg.sweep_points()

    def compute(point: SweepPoint):
        params = AnyonicParams(phi=point.phi, v=point.v)
        grid = cfg.grid_for_point(point)
        pot = cfg.potential(point.delta)
        h = build_h_eff(pot, params, grid, boundary=cfg.boundary)
        result = solve_spectrum(h)
        curve = DispersionCurve.sample(params, cfg.k_max, cfg.k_points)
        bound_rows = []
        if cfg.potential_kind == "poschl_teller" and pot.amplitude < 0:
            for n, e_n in enumerate(cfg.bound_energies(), start=1):
                shifted = shifted_point_energy(e_n, params)
                survives = delocalization_margin(e_n, params) > 0
                bound_rows.append((n, e_n, shifted.real, shifted.imag, survives))
        return result, curve, bound_rows

    computed = _map_points(compute, points, jobs)

    written = []
    manifest = []
    for point, (result, curve, bound_rows) in zip(points, computed):
        tag = f"{point.index:03d}"
        written.append(
            write_csv(
                outdir / f"continuum_{tag}.csv",
                ("k", "re_e", "im_e"),
                zip(curve.k_samples, curve.energy.real, curve.energy.imag),
            )
        )
        written.append(
            write_csv(
                outdir / f"bound_{tag}.csv",
                ("n", "e_stationary", "re_e", "im_e", "survives"),
                bound_rows,
            )
        )
        written.append(
            write_csv(
                outdir / f"eigs_{tag}.csv",
                ("re_e", "im_e", "classification", "localization_length"),
                result.csv_rows(),
            )
        )
        manifest.append(
            (point.index, point.phi, point.v, point.delta, result.point_count)
        )
    written.append(
        write_csv(
            outdir / "manifest.csv",
            ("index", "phi", "v", "delta", "numerical_point_count"),
            manifest,
        )
    )
    return written


# ------------------------------------------------------------------- delocalize


def run_delocalize(cfg: ExperimentConfig, outdir: Path, jobs: int = 1) -> list:
    points = cfg.sweep_points()

    def compute(point: SweepPoint):
        params = AnyonicParams(phi=point.phi, v=point.v)
        grid = cfg.grid_for_point(point)
        u1, e1 = _stationary_ground_state(cfg, point.delta, grid)
        dressed = moving_bound_state(u1, e1, params)
        margin = delocalization_margin(e1, params)
        pot = cfg.potential(point.delta)
        h = build_h_eff(pot, params, grid, boundary=cfg.boundary)
        result = point_states(h, [shifted_point_energy(e, params) for e in cfg.bound_energies()])
        loc_num = math.inf
        pts = result.point_indices()
        if len(pts):
            target = shifted_point_energy(e1, params)
            best = pts[np.argmin(np.abs(result.eigenvalues[pts] - target))]
            loc_num = float(result.localization_length[best])
        return grid, dressed, margin, result.point_count, loc_num

    computed = _map_points(compute, points, jobs)

    written = []
    metrics = []
    for point, (grid, dressed, margin, count, loc_num) in zip(points, computed):
        tag = f"{point.index:03d}"
        if dressed is not None:
            written.append(
                write_csv(
                    outdir / f"profile_{tag}.csv",
                    ("x", "density"),
                    zip(grid.x, dressed.density()),
                )
            )
        metrics.append(
            (
                point.index,
                point.phi,
                point.v,
                point.delta,
                margin,
                (1.0 / margin) if margin > 0 else math.inf,
                count,
                loc_num,
            )
        )
    written.append(
        write_csv(
            outdir / "metrics.csv",
            (
                "index",
                "phi",
                "v",
                "delta",
                "margin",
                "analytic_localization_length",
                "numerical_point_count",
                "numerical_localization_length",
            ),
            metrics,
        )
    )
    return written


# ---------------------------------------------------------------------- scatter


def run_scatter(cfg: ExperimentConfig, outdir: Path, jobs: int = 1) -> list:
    points = cfg.sweep_points()
    cases = [
        (cfg.potential(p.delta), AnyonicParams(phi=p.phi, v=p.v), cfg.packet(p.carrier))
        for p in points
    ]
    # one batched evolution per worker, over contiguous runs of sweep points
    n = min(jobs, len(cases))
    chunks = [cases[len(cases) * j // n : len(cases) * (j + 1) // n] for j in range(n)]
    batches = _map_points(
        lambda chunk: run_packet_scattering(chunk, cfg.propagator, cfg.grid, cfg.separatrix),
        chunks,
        jobs,
    )
    computed = list(itertools.chain.from_iterable(batches))

    triples = []
    if cfg.rt_sweep is not None:
        # stationary r(k), t(k) spectra, one file per distinct (phi, v, delta)
        ks = np.linspace(cfg.rt_sweep["k_min"], cfg.rt_sweep["k_max"], cfg.rt_sweep["num"])
        triples = sorted({(p.phi, p.v, p.delta) for p in points})

    def rt_rows(triple):
        phi, v, delta = triple
        params = AnyonicParams(phi=phi, v=v)
        incident = ks[group_velocity(ks, params) > 0]  # left-incident channels only
        if not len(incident):
            return []
        r, t = stationary_rt(cfg.potential(delta), params, incident, cfg.grid)
        return list(zip(incident, r.real, r.imag, t.real, t.imag))

    rt_tables = _map_points(rt_rows, triples, jobs)

    written = []
    report_rows = []
    for point, (record, report) in zip(points, computed):
        tag = f"{point.index:03d}"
        written += _write_evolution(outdir, tag, record, cfg.density_stride, itertools.repeat(1.0))
        report_rows.append(
            (
                point.index,
                point.phi,
                point.v,
                point.delta,
                report.k_incident,
                report.k_reflected.real,
                report.k_reflected.imag,
                report.reflected_power_fraction,
                report.transmitted_power_fraction,
                report.reflected_is_evanescent,
            )
        )
    written.append(
        write_csv(
            outdir / "report.csv",
            (
                "index",
                "phi",
                "v",
                "delta",
                "k",
                "re_k_r",
                "im_k_r",
                "reflected_fraction",
                "transmitted_fraction",
                "evanescent",
            ),
            report_rows,
        )
    )
    for i, rows in enumerate(rt_tables):
        written.append(
            write_csv(outdir / f"rt_{i:03d}.csv", ("k", "re_r", "im_r", "re_t", "im_t"), rows)
        )
    return written


# ---------------------------------------------------------------------- amplify


def run_amplify(cfg: ExperimentConfig, outdir: Path, jobs: int = 1) -> list:
    points = cfg.sweep_points()

    def compute(point: SweepPoint):
        params = AnyonicParams(phi=point.phi, v=point.v)
        e1 = cfg.ground_state_energy()
        margin = delocalization_margin(e1, params)
        if cfg.closed_form_well():
            # Closed-form state on an auto-widened quadrature grid.
            ginf = g_infinity_poschl_teller(point.delta, params)
            u1 = analytic_bound_state_pt(amplification_grid_for(e1, params), point.delta)
        else:
            u1, e1 = _stationary_ground_state(cfg, point.delta, cfg.grid)
            ginf = g_infinity(u1, params, e1=e1)
        sorth = self_orthogonality(u1)

        gt_rows = []
        if cfg.g_t_times:
            gt_grid = cfg.g_t_grid if cfg.g_t_grid is not None else Grid(-30.0, 30.0, 1024)
            pot = cfg.potential(point.delta)
            h = build_h_eff(pot, params, gt_grid, boundary="dirichlet")
            e_dom = point_states(h, [shifted_point_energy(e1, params)]).eigenvalues[0]
            gt_rows = list(zip(cfg.g_t_times, g_t(h, e_dom, cfg.g_t_times)))

        record = None
        if cfg.amplify_evolve:
            # Evolution runs honor the configured box as-is, where the numeric
            # state above already lives; automatic box doubling is reserved
            # for eigensolve localization studies.
            u1_sim = u1
            if cfg.closed_form_well():
                u1_sim, _ = _stationary_ground_state(cfg, point.delta, cfg.grid)
            dressed = moving_bound_state(u1_sim, e1, params)
            if dressed is None:
                raise ConfigError(
                    f"amplify evolve: no normalizable initial state at v = {point.v}"
                )
            pot = cfg.potential(point.delta)
            record = evolve(dressed, pot, params, cfg.propagator)
        report = AmplificationReport(
            g_infinity=ginf,
            g_t_samples=tuple(gt_rows),
            self_orthogonality=sorth,
            delocalization_margin=margin,
        )
        return report, record

    computed = _map_points(compute, points, jobs)

    written = []
    rows = []
    for point, (report, record) in zip(points, computed):
        tag = f"{point.index:03d}"
        rows.append(
            (
                point.phi,
                point.v,
                point.delta,
                report.g_infinity,
                report.self_orthogonality,
                report.delocalization_margin,
            )
        )
        if report.g_t_samples:
            written.append(
                write_csv(outdir / f"gt_{tag}.csv", ("t", "g_t"), report.g_t_samples)
            )
        if record is not None:
            # densities normalized by N(t), so only their shape evolves
            written += _write_evolution(outdir, tag, record, cfg.density_stride, record.norm)
    written.append(
        write_csv(
            outdir / "ginf.csv",
            ("phi", "v", "delta", "g_infinity", "self_orthogonality", "margin"),
            rows,
        )
    )
    return written


# --------------------------------------------------------------------- lasermap


def run_lasermap(cfg: ExperimentConfig, outdir: Path, jobs: int = 1) -> list:
    mapping = map_to_anyonic(cfg.cavity)
    threshold = mode_locking_threshold(cfg.cavity, cfg.e1)
    table = []
    if cfg.detuning is not None:
        d = cfg.detuning
        for ratio in np.linspace(d["start"], d["stop"], d["num"]):
            c = cfg.cavity
            cav = dataclasses.replace(c, Tm=ratio * c.TR)
            m = map_to_anyonic(cav)
            thr = mode_locking_threshold(cav, cfg.e1)
            delocalized = thr is not None and abs(m.params.v) >= thr
            table.append((ratio, m.params.v, thr if thr is not None else math.inf, delocalized))

    written = [
        write_csv(
            outdir / "mapping.csv",
            ("phi", "v", "gain_balanced", "modulators_tuned", "threshold"),
            [
                (
                    mapping.params.phi,
                    mapping.params.v,
                    mapping.gain_balanced,
                    mapping.modulators_tuned,
                    threshold if threshold is not None else math.inf,
                )
            ],
        )
    ]
    if cfg.detuning is not None:
        written.append(
            write_csv(
                outdir / "threshold_table.csv",
                ("tm_over_tr", "v", "threshold", "delocalized"),
                table,
            )
        )
    return written


_RUNNERS = {
    "spectrum": run_spectrum,
    "delocalize": run_delocalize,
    "scatter": run_scatter,
    "amplify": run_amplify,
    "lasermap": run_lasermap,
}


def run_experiment(cfg: ExperimentConfig, outdir, jobs: int = 1) -> list:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg.experiment](cfg, outdir, jobs=jobs)

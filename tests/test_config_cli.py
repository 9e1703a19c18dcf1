import copy
import csv
import json
import math
import os
import socket
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anyonpt import (
    AnyonicParams,
    ConfigError,
    DomainError,
    ExperimentConfig,
    Grid,
    NumericalError,
    WaveFunction,
    build_h_eff,
)
from anyonpt._io import _json_value, _round, fmt, write_csv, write_ndjson
from anyonpt.cli import main as cli_main
from anyonpt.nonnormal import analytic_bound_state_pt, gain_grid
from anyonpt.propagation import _strang
from anyonpt.runners import _write_evolution, run_experiment
from anyonpt.scattering import gaussian_packet, run_packet_scattering
from anyonpt.spectra import moving_bound_state

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

FAST_CONFIGS = [
    "null_lasermap.yaml",
    "null_amplify.yaml",
    "lasermap_detuning.yaml",
    "regression_amplify.yaml",
]


def minimal_scatter_dict(**overrides):
    d = {
        "experiment": "scatter",
        "grid": {"x_min": -60.0, "x_max": 60.0, "n_points": 1024},
        "potential": {"kind": "poschl_teller", "v0": 0.0},
        "params": {"phi": 0.0, "v": 0.0},
        "packet": {"center": -20.0, "width": 4.0, "carrier": 1.0},
        "propagator": {"dt": 0.01, "t_final": 25.0, "snapshot_every": 500},
    }
    d.update(overrides)
    return d


class TestConfigParsing:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.yaml")))
    def test_all_shipped_configs_parse(self, name):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / name)
        assert cfg.experiment in ("spectrum", "delocalize", "scatter", "amplify", "lasermap")
        assert len(cfg.sweep_points()) >= 1

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.yaml")))
    def test_roundtrip_idempotent(self, name):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / name)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "spectrum", "gridd": {}})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "plasma"})

    def test_v_and_fraction_exclusive(self):
        d = minimal_scatter_dict()
        d["params"] = {"phi": 0.5, "v": 1.0, "v_over_vc": [0.5]}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_fraction_needs_well(self):
        d = minimal_scatter_dict()
        d["params"] = {"phi": 0.5, "v_over_vc": [0.5]}  # v0 = 0 barrier: no bound state
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_sweep_cap(self):
        d = minimal_scatter_dict()
        d["params"] = {"phi": [0.001 * i for i in range(101)], "v": [0.1 * i for i in range(101)]}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_sweep_cap_is_checked_before_points_are_built(self, monkeypatch):
        def never(cfg):
            raise AssertionError("sweep_points ran before the cap check")

        monkeypatch.setattr(ExperimentConfig, "sweep_points", never)
        d = minimal_scatter_dict()
        axis = [0.01 * i for i in range(100)]
        d["potential"]["delta"] = axis
        d["params"] = {"phi": axis, "v": axis}
        with pytest.raises(ConfigError, match="sweep has 1000000 points"):
            ExperimentConfig.from_dict(d)

    def test_sweep_points_resolve_fraction(self):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "regression_amplify.yaml")
        pts = cfg.sweep_points()
        vc = 2.0 / math.sin(cfg.phi[0])
        assert [p.params.v for p in pts] == pytest.approx([0.2 * vc, 0.8 * vc, 0.95 * vc])

    def test_well_given_by_v0_takes_nu_from_its_amplitude(self):
        raw = minimal_amplify_dict()
        raw["potential"] = {"kind": "poschl_teller", "v0": -6.0, "delta": 0.2}  # the nu = 2 well
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.ground_state_energy() == -4.0
        u = analytic_bound_state_pt(cfg.grid, 0.2, cfg.sweep_points()[0].potential.well_nu)
        h = build_h_eff(cfg.potential(0.2), AnyonicParams(phi=0.0, v=0.0), cfg.grid)
        energy = np.vdot(u.values, h.dense() @ u.values) / np.vdot(u.values, u.values)
        assert abs(energy + 4.0) < 1e-2

    def test_tiny_v0_keeps_its_nu(self):
        # -2 v0 / (1 + sqrt(1 - 4 v0)); (sqrt(1 - 4 v0) - 1) / 2 cancels to 0 here
        raw = {**spectrum_dict(256), "potential": {"kind": "poschl_teller", "v0": -1e-20}}
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.potential(0.0).well_nu == 1e-20
        assert cfg.bound_energies() == (-1e-40,)

    def test_lasermap_requires_cavity(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "lasermap", "e1": -1.0})

    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": "x"},
            {"potential": {"nu": "deep"}},
            {"params": {"phi": "a"}},
            {"density_stride": "x"},
            {"spectrum": {"k_points": [1]}},
            {"detuning": {"start": 0.0, "stop": 1.0, "num": "x"}},
            {"e1": "x"},
            {"propagator": 3},
            {"potential": {"kind": "tabulated", "file": 3}},
            {"output_dir": 3},
        ],
    )
    def test_malformed_values_are_config_errors(self, tmp_path, bad):
        raw = {"experiment": "lasermap", "e1": -1.0, "cavity": {"D": 1.0}, **bad}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["lasermap", "--config", str(path), "--output", str(tmp_path)]) == 2


def minimal_amplify_dict(**amplify):
    return {
        "experiment": "amplify",
        "grid": {"x_min": -40.0, "x_max": 40.0, "n_points": 1024},
        "potential": {"kind": "poschl_teller", "nu": 1.0, "delta": 0.2},
        "params": {"phi": math.pi / 3, "v_over_vc": [0.8]},
        "amplify": {"evolve": False, "g_t_times": [0.5], **amplify},
    }


def amplify_at(v_over_vc: float, **amplify):
    """The minimal amplify well at one drift, with only the given amplify keys."""
    params = {"phi": math.pi / 3, "v_over_vc": [v_over_vc]}
    return {**minimal_amplify_dict(), "params": params, "amplify": amplify}


SMALL_G_T_GRID = {"x_min": -12.0, "x_max": 12.0, "n_points": 128}


class TestAmplifyValidation:
    """Bad amplify values exit 2 at parse time, before any eigensolve or expm."""

    @pytest.mark.parametrize(
        "amplify",
        [
            {"g_t_grid": {"x_min": -30.0, "n_points": 512}},  # missing x_max
            {"g_t_grid": {"x_min": 30.0, "x_max": -30.0, "n_points": 512}},  # inverted
            {"g_t_times": [-1.0]},
            {"g_t_times": [0.5, math.nan]},
            {"g_t_grid": {"x_min": -30.0, "x_max": 30.0, "n_points": 4096}},  # > 2048
        ],
        ids=["no-x_max", "inverted-grid", "negative-time", "nan-time", "oversized-grid"],
    )
    def test_bad_amplify_values_exit_2(self, tmp_path, amplify):
        raw = minimal_amplify_dict(**amplify)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        outdir = tmp_path / "never"
        assert cli_main(["amplify", "--config", str(path), "--output", str(outdir)]) == 2
        assert not outdir.exists()

    def test_g_t_grid_defaults_to_the_documented_box(self):
        raw = minimal_amplify_dict()
        assert "g_t_grid" not in raw["amplify"]
        assert ExperimentConfig.from_dict(raw).g_t_grid == Grid(-30.0, 30.0, 1024)

    def test_cap_is_inclusive(self):
        raw = minimal_amplify_dict(g_t_grid={"x_min": -30.0, "x_max": 30.0, "n_points": 2048})
        assert ExperimentConfig.from_dict(raw).g_t_grid.n_points == 2048

    def test_g_t_rows_follow_configured_order(self, tmp_path):
        raw = minimal_amplify_dict(
            g_t_times=[5.0, 0.0, 0.5, 5.0],
            g_t_grid={"x_min": -12.0, "x_max": 12.0, "n_points": 256},
        )
        run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        ginf_header = (tmp_path / "ginf.csv").read_text().splitlines()[0]
        assert ginf_header == "phi,v,delta,g_infinity,self_orthogonality,margin"
        rows = [r.split(",") for r in (tmp_path / "gt_000.csv").read_text().splitlines()[1:]]
        assert [float(t) for t, _ in rows] == [5.0, 0.0, 0.5, 5.0]
        gains = [float(g) for _, g in rows]
        assert gains[1] == 1.0 and gains[0] == gains[3] > gains[2] > 1.0

    def test_without_evolve_the_grid_goes_unread(self, tmp_path):
        # G_infinity sums on gain_grid; only the evolution reads the config grid
        raw = minimal_amplify_dict()
        del raw["amplify"]["g_t_times"]
        gridless = {key: value for key, value in raw.items() if key != "grid"}
        for name, tree in (("with", raw), ("without", gridless)):
            run_experiment(ExperimentConfig.from_dict(tree), tmp_path / name)
        with_grid = (tmp_path / "with" / "ginf.csv").read_bytes()
        assert (tmp_path / "without" / "ginf.csv").read_bytes() == with_grid

    def test_evolve_needs_the_grid(self, tmp_path, capsys):
        raw = minimal_amplify_dict(evolve=True)
        raw["propagator"] = {"dt": 0.01, "t_final": 0.04, "snapshot_every": 2}
        ExperimentConfig.from_dict(raw)  # valid with its grid
        del raw["grid"]
        path = tmp_path / "no_grid.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["amplify", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        assert "grid is required" in capsys.readouterr().err


def scatter_with(section: str, **values):
    raw = minimal_scatter_dict()
    raw[section].update(values)
    return raw


def spectrum_dict(n_points: int, phi: float = 0.0, v_over_vc: float | None = None):
    params = {"phi": phi, "v": 0.0} if v_over_vc is None else {"phi": phi, "v_over_vc": v_over_vc}
    return {
        "experiment": "spectrum",
        "grid": {"x_min": -40.0, "x_max": 40.0, "n_points": n_points},
        "potential": {"kind": "poschl_teller", "nu": 1.0, "delta": 0.2},
        "params": params,
    }


def near_vc_delocalize_dict(n_points: int):
    # 0.95 v_c: the runner doubles the box and the point count
    return {**spectrum_dict(n_points, phi=math.pi / 3, v_over_vc=0.95), "experiment": "delocalize"}


def amplify_on_grid(n_points: int, nu: float):
    raw = minimal_amplify_dict()
    raw["grid"]["n_points"] = n_points
    raw["potential"]["nu"] = nu
    return raw


def shipped_with(name: str, section: str, **values):
    raw = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
    raw[section].update(values)
    return raw


def lasermap_dict(**overrides):
    return {"experiment": "lasermap", "e1": -1.0, "cavity": {"D": 1.0, "Dg": 1.0}, **overrides}


class TestParseTimeRejection:
    """Configs that cannot run exit 2 before the output directory is made."""

    @pytest.mark.parametrize(
        "raw",
        [
            scatter_with("propagator", absorber={"width": 8.0, "strength": 0.05}),
            scatter_with("packet", center=20.0),
            scatter_with("packet", center=-50.0),
            spectrum_dict(10_000),
            spectrum_dict(4097, phi=math.pi / 3, v_over_vc=0.95),
            near_vc_delocalize_dict(2**19 + 1),
            spectrum_dict(256, phi=2.0),
            spectrum_dict(256, phi=2.0, v_over_vc=0.5),
            {**spectrum_dict(256, phi=math.pi / 3, v_over_vc=0.2), "boundary": "dirichlet"},
            scatter_with("params", phi=-0.1),
            {**minimal_amplify_dict(), "potential": {"kind": "poschl_teller", "v0": 3.0}},
            {**spectrum_dict(256), "experiment": "delocalize", "potential": {"v0": 3.0}},
            {**spectrum_dict(256), "potential": {"nu": math.inf}},
            {**spectrum_dict(256), "spectrum": {"k_points": -1}},
            {**spectrum_dict(256), "spectrum": {"k_points": 10**12}},
            scatter_with("propagator", t_final=math.inf),
            scatter_with("propagator", t_final=1e300),
            scatter_with("propagator", t_final=2e5),  # 2e7 steps at dt = 0.01
            scatter_with("grid", n_points=10**13),
            {**spectrum_dict(256), "potential": {"nu": -1.0}},
            {**spectrum_dict(256), "potential": {"v0": math.nan}},
            {**spectrum_dict(256), "experiment": "delocalize", "potential": {"delta": 2.0}},
            scatter_with("packet", center=math.nan),
            lasermap_dict(e1=0.5),
            lasermap_dict(detuning={"start": -1.0, "stop": 1.0, "num": 3}),
            lasermap_dict(cavity={"D": 0.0}),
            lasermap_dict(cavity={"D": 1.0, "delta1": 0.0, "delta2": 0.3}),
            lasermap_dict(cavity={"D": -1.0, "Dg": 0.5}),
            spectrum_dict(100.7),
            {**minimal_scatter_dict(), "density_stride": 2.5},
            {**minimal_scatter_dict(), "rt_sweep": {"k_min": 0.5, "k_max": 2.0, "num": 2.5}},
            {**minimal_scatter_dict(), "separatrix": math.nan},
            {**spectrum_dict(256), "spectrum": {"k_max": math.nan}},
            {**minimal_scatter_dict(), "rt_sweep": {"k_min": 0.5, "k_max": math.nan, "num": 4}},
            scatter_with("params", phi=[]),
            {**minimal_amplify_dict(), "params": {"phi": math.pi / 3, "v_over_vc": []}},
            {**minimal_amplify_dict(), "params": {"phi": math.pi / 3, "v_over_vc": [0.5, 1.2]}},
            {
                **minimal_amplify_dict(evolve=True),
                "params": {"phi": math.pi / 3, "v_over_vc": [0.5, 1.0]},
                "propagator": {"dt": 0.01, "t_final": 1.0},
            },
            {  # 5.1e6 points on the gain box: 2 pi (pi/2 - delta) / dx >= 40
                **minimal_amplify_dict(),
                "potential": {"kind": "poschl_teller", "nu": 1.0, "delta": math.pi / 2 - 1e-4},
            },
            {**spectrum_dict(256), "potential": {"nu": 1e5}},
            {**spectrum_dict(256), "potential": {"v0": -1e10}},
            {**spectrum_dict(256), "params": {"phi": 0.0, "v": 1.0e200}},
            {**spectrum_dict(256), "grid": {"x_min": -1e-300, "x_max": 1e-300, "n_points": 256}},
            {**spectrum_dict(256), "grid": {"x_min": -1e300, "x_max": 1e300, "n_points": 256}},
            minimal_amplify_dict(g_t_grid={"x_min": -1e300, "x_max": 1e300, "n_points": 64}),
            {**minimal_scatter_dict(), "separatrix": 170.0},
            {**minimal_scatter_dict(), "separatrix": 60.0},  # on the grid's right end
            scatter_with("propagator", frame="lab"),
            {  # the gain box depends on delta alone, not on nu
                **minimal_amplify_dict(),
                "potential": {"kind": "poschl_teller", "nu": 1e-3, "delta": -(math.pi / 2 - 4e-4)},
                "params": {"phi": math.pi / 3, "v_over_vc": [0.5]},
            },
            scatter_with("grid", x_min=-30.0),  # support [-32, -8] crosses x_min
            # three identical tables labeled by delta, with nu ignored
            {**spectrum_dict(256), "potential": {"kind": "tabulated", "file": "well.csv",
                                                 "delta": [0.1, 0.2, 0.3], "nu": 5.0}},
            {**spectrum_dict(256), "potential": {"nu": 2.0, "v0": -2.0}},  # v0 would win
            {**spectrum_dict(256), "potential": {"kind": "poschl_teller", "file": "nope.csv"}},
            # stationary_rt needs a decaying potential; this table is 0.5 at both ends
            {**minimal_scatter_dict(), "potential": {"kind": "tabulated", "file": "flat.csv"},
             "rt_sweep": {"k_min": 0.5, "k_max": 2.0, "num": 4}},
            # 2241 snapshots x 2 fields x 2^20 points x 16 bytes = 70 GiB of snapshots
            {
                **shipped_with("scatter_barrier_k1", "grid", n_points=2**20),
                "propagator": {"dt": 0.0125, "t_final": 28.0, "snapshot_every": 1},
            },
            # 1001 snapshots x 1 field x 2^20 points x 16 bytes = 16 GiB
            {
                **amplify_on_grid(2**20, nu=1.0),
                "amplify": {"evolve": True},
                "propagator": {"dt": 0.01, "t_final": 10.0, "snapshot_every": 1},
            },
        ],
        ids=[
            "propagator-absorber-key",
            "packet-moving-away",
            "packet-outside-grid",
            "spectrum-over-dense-cap",
            "spectrum-doubled-box-over-dense-cap",
            "delocalize-doubled-box-over-point-cap",
            "phi-above-pi-over-2",
            "phi-above-pi-over-2-with-v_over_vc",
            "spectrum-dirichlet-under-drift",
            "phi-negative",
            "amplify-barrier-has-no-ground-state",
            "delocalize-barrier-has-no-ground-state",
            "nu-infinite",
            "k_points-negative",
            "k_points-above-cap",
            "t_final-infinite",
            "t_final-1e300",
            "steps-2e7",
            "grid-above-point-cap",
            "nu-negative",
            "v0-nan",
            "delocalize-delta-beyond-pole",
            "packet-center-nan",
            "lasermap-e1-positive",
            "lasermap-detuning-negative",
            "cavity-D-zero",
            "cavity-pure-AM",
            "cavity-anomalous-dispersion",
            "n_points-fractional",
            "density_stride-fractional",
            "rt_sweep-num-fractional",
            "separatrix-nan",
            "k_max-nan",
            "rt_sweep-k_max-nan",
            "scatter-phi-empty",
            "amplify-v_over_vc-empty",
            "amplify-beyond-v_c",
            "amplify-evolve-at-v_c",
            "amplify-delta-at-exceptional-point",
            "nu-above-bound-state-cap",
            "v0-above-bound-state-cap",
            "spectrum-v-square-overflows",
            "grid-spacing-square-underflows",
            "grid-spacing-square-overflows",
            "g_t-grid-spacing-square-overflows",
            "separatrix-outside-grid",
            "separatrix-on-grid-end",
            "scatter-frame-key",
            "amplify-small-nu-delta-at-exceptional-point",
            "packet-crosses-left-edge-of-asymmetric-grid",
            "tabulated-with-delta-and-nu",
            "nu-and-v0",
            "poschl_teller-with-file",
            "rt_sweep-potential-does-not-decay",
            "scatter-snapshots-over-1-GiB",
            "amplify-evolve-snapshots-over-1-GiB",
        ],
    )
    def test_bad_config_exits_2_without_output(self, tmp_path, monkeypatch, raw):
        write_tabulated_config(tmp_path)  # well.csv, read by the tabulated case
        write_flat_table(tmp_path)  # flat.csv, read by the rt_sweep case
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        outdir = tmp_path / "out"
        assert cli_main([raw["experiment"], "--config", str(path), "--output", str(outdir)]) == 2
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "raw, n_records",
        [
            (scatter_with("propagator", snapshot_every=499), 7),  # 2500 steps
            (scatter_with("propagator", t_final=25.01), 7),  # 2501 steps
            ({**minimal_amplify_dict(evolve=True), "propagator": {"dt": 0.01, "t_final": 0.05}}, 2),
        ],
        ids=["scatter-snapshot_every-odd", "scatter-step-count-odd", "amplify-evolve-step-count-odd"],
    )
    def test_odd_counts_run(self, tmp_path, raw, n_records):
        path = tmp_path / "odd.yaml"
        path.write_text(yaml.safe_dump(raw))
        outdir = tmp_path / "out"
        assert cli_main([raw["experiment"], "--config", str(path), "--output", str(outdir)]) == 0
        (evolution,) = outdir.glob("evolution_*.ndjson")
        records = evolution.read_text().splitlines()
        assert len(records) == n_records
        assert json.loads(records[-1])["t"] == pytest.approx(raw["propagator"]["t_final"])

    def test_empty_axis_names_its_key(self):
        with pytest.raises(ConfigError, match="potential.delta must not be empty"):
            ExperimentConfig.from_dict({**spectrum_dict(256), "potential": {"delta": []}})

    def test_integral_floats_are_integers(self):
        cfg = ExperimentConfig.from_dict(spectrum_dict(256.0))
        assert cfg.grid.n_points == 256 and isinstance(cfg.grid.n_points, int)

    def test_dirichlet_spectrum_without_non_hermitian_drift_parses(self):
        # at rest (the regression config), or at phi = 0, where the drift is a gauge
        for params in ({"phi": math.pi / 3, "v": 0.0}, {"phi": 0.0, "v": 1.0}):
            ExperimentConfig.from_dict({**spectrum_dict(256), "boundary": "dirichlet", "params": params})

    def test_evolution_snapshots_up_to_1_GiB_parse(self):
        # 2 fields x 8192 points x 16 bytes x 4096 snapshots is 1 GiB exactly
        raw = scatter_with("grid", n_points=8192)
        raw["params"]["phi"] = [0.0, 0.1]
        raw["propagator"].update(dt=0.01, t_final=40.95, snapshot_every=1)  # 4095 steps
        ExperimentConfig.from_dict(raw)
        raw["propagator"]["t_final"] = 40.96  # one snapshot more
        message = r"4097 snapshots x 2 fields x 8192 points hold 1074003968 bytes > 1073741824 \(1 GiB\)"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(raw)

    def test_grids_within_the_dense_cap_parse(self):
        ExperimentConfig.from_dict(spectrum_dict(8192))
        ExperimentConfig.from_dict(spectrum_dict(4096, phi=math.pi / 3, v_over_vc=0.95))
        ExperimentConfig.from_dict(spectrum_dict(5000, phi=math.pi / 3, v_over_vc=0.5))
        # amplify and delocalize make no dense solve, so their boxes may pass the dense cap
        ExperimentConfig.from_dict(amplify_on_grid(10_000, nu=1.0))
        ExperimentConfig.from_dict(amplify_on_grid(10_000, nu=2.0))
        assert ExperimentConfig.from_dict(near_vc_delocalize_dict(4097)).grid.n_points == 4097

    def test_each_point_carries_the_grid_its_runner_uses(self):
        def grids(raw):
            return [p.grid for p in ExperimentConfig.from_dict(raw).sweep_points()]

        box, doubled = Grid(-40.0, 40.0, 256), Grid(-80.0, 80.0, 512)
        near_vc = spectrum_dict(256, phi=math.pi / 3, v_over_vc=[0.5, 0.9, 0.95])
        assert grids(near_vc) == [box, box, doubled]
        assert grids({**near_vc, "experiment": "delocalize"}) == [box, box, doubled]
        barrier = {**near_vc, "potential": {"v0": 3.0}, "params": {"phi": 1.0, "v": 5.0}}
        assert grids(barrier) == [box]  # no bound well, no v_c
        for nu in (1.0, 2.0):
            assert grids(amplify_on_grid(1024, nu)) == [gain_grid(0.2, nu)]


MUTANT_VALUES = [None, "x", [], {}, True, 2.5, -1, 0, math.nan, math.inf]


def key_paths(tree: dict, prefix=()):
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


class TestConfigFuzz:
    """One mutation of a shipped config either parses or is a config error."""

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.yaml")))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_mutated_tree_parses_or_exits_2(self, name, data):
        tree = yaml.safe_load((CONFIG_DIR / name).read_text())
        runner = tree["experiment"]
        *parents, leaf = data.draw(st.sampled_from(list(key_paths(tree))), label="key")
        node = tree
        for key in parents:
            node = node[key]
        action = data.draw(st.sampled_from(["drop", "add", "set"]), label="action")
        if action == "drop":
            del node[leaf]
        elif action == "add":
            node["unknown_key"] = 1.0
        else:
            node[leaf] = copy.deepcopy(data.draw(st.sampled_from(MUTANT_VALUES), label="value"))
        try:
            cfg = ExperimentConfig.from_dict(tree, base_dir=CONFIG_DIR)
        except ConfigError:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "mutant.yaml"
                path.write_text(yaml.safe_dump(tree))
                outdir = Path(tmp) / "out"
                assert cli_main([runner, "--config", str(path), "--output", str(outdir)]) == 2
                assert not outdir.exists()
        else:
            assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


class TestPropagatorValidation:
    @pytest.mark.parametrize("evolve", ["no", "off", 1])
    def test_evolve_must_be_a_yaml_boolean(self, tmp_path, evolve):
        raw = minimal_amplify_dict(evolve=evolve)
        raw["propagator"] = {"dt": 0.01, "t_final": 1.0}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["amplify", "--config", str(path), "--output", str(tmp_path)]) == 2

    def test_unquoted_yaml_no_is_false(self):
        raw = minimal_amplify_dict(**yaml.safe_load("{evolve: no}"))
        assert ExperimentConfig.from_dict(raw).amplify_evolve is False


def write_tabulated_config(directory: Path, file: str = "well.csv") -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    x = [-10.0 + 20.0 * (i + 0.5) / 64 for i in range(64)]
    rows = "".join(f"{xi},{-2.0 / math.cosh(xi) ** 2},0.0\n" for xi in x)
    (directory / "well.csv").write_text("x,re,im\n" + rows)
    cfg = {
        "experiment": "spectrum",
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 256},
        "boundary": "dirichlet",
        "potential": {"kind": "tabulated", "file": file},
        "spectrum": {"k_max": 2.0, "k_points": 5},
    }
    path = directory / "tabulated.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def write_flat_table(directory: Path) -> None:
    """flat.csv: V = 0.5 on 512 rows over +-60, a step that never decays."""
    x = [-60.0 + 120.0 * (i + 0.5) / 512 for i in range(512)]
    (directory / "flat.csv").write_text("x,re,im\n" + "".join(f"{xi},0.5,0.0\n" for xi in x))


class TestTabulatedPotential:
    def test_file_resolves_against_config_directory(self, tmp_path, monkeypatch):
        path = write_tabulated_config(tmp_path / "configs")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        rc = cli_main(["spectrum", "--config", str(path), "--output", str(tmp_path / "out")])
        assert rc == 0
        eigs = (tmp_path / "out" / "eigs_000.csv").read_text().splitlines()
        assert min(float(r.split(",")[0]) for r in eigs[1:]) == pytest.approx(-1.0, abs=0.01)

    def test_loaded_once_at_parse_time(self, tmp_path, monkeypatch):
        from anyonpt.model import Tabulated

        loads = []
        from_csv = Tabulated.from_csv
        monkeypatch.setattr(
            Tabulated, "from_csv", staticmethod(lambda p: loads.append(p) or from_csv(p))
        )
        cfg = ExperimentConfig.from_yaml(write_tabulated_config(tmp_path))
        assert cfg.potential(0.0) is cfg.potential(0.5)
        assert loads == [str(tmp_path / "well.csv")]

    @pytest.mark.parametrize("experiment", ["amplify", "delocalize"])
    def test_runners_needing_a_ground_state_reject_tables(self, tmp_path, experiment):
        path = write_tabulated_config(tmp_path)
        raw = yaml.safe_load(path.read_text())
        raw.update(experiment=experiment, params={"phi": 0.5, "v": 0.2})
        raw.pop("spectrum")
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_yaml(path)
        outdir = tmp_path / "out"
        assert cli_main([experiment, "--config", str(path), "--output", str(outdir)]) == 2
        assert not outdir.exists()

    def test_scatter_without_rt_sweep_runs_a_table_that_does_not_decay(self, tmp_path):
        # only stationary_rt needs decaying ends; the evolution and its report do not
        write_flat_table(tmp_path)
        raw = {**minimal_scatter_dict(), "potential": {"kind": "tabulated", "file": "flat.csv"}}
        path = tmp_path / "flat.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["scatter", "--config", str(path), "--output", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("file", ["missing.csv", "tabulated.yaml"], ids=["missing", "malformed"])
    def test_unreadable_file_exits_2(self, tmp_path, file):
        path = write_tabulated_config(tmp_path, file=file)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_yaml(path)
        assert cli_main(["spectrum", "--config", str(path), "--output", str(tmp_path / "o")]) == 2


class TestIOFormat:
    def test_fmt_12_significant_digits(self):
        assert fmt(math.pi) == "3.14159265359"
        assert fmt(True) == "true"
        assert fmt(7) == "7"

    def test_csv_and_ndjson_writers(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ("a", "b"), [(1.0 / 3.0, "x")])
        assert p.read_text() == "a,b\n0.333333333333,x\n"
        q = write_ndjson(tmp_path / "t.ndjson", [{"t": 0.25, "v": [1.0, 2.0]}])
        assert q.read_text() == '{"t":0.25,"v":[1.0,2.0]}\n'
        assert write_ndjson(tmp_path / "e.ndjson", iter(())).read_text() == "\n"
        # raw floats, in values and in lists, are rounded to 12 digits; other values pass
        raw = ({"t": t, "n": 7, "v": [np.float64(2.0 / 3.0), "x"]} for t in (1.0 / 3.0, 0.5))
        assert write_ndjson(tmp_path / "r.ndjson", raw).read_text() == (
            '{"t":0.333333333333,"n":7,"v":[0.666666666667,"x"]}\n'
            '{"t":0.5,"n":7,"v":[0.666666666667,"x"]}\n'
        )

    # every float64, plus the values where %.12g and the JSON float can differ:
    # nan, inf, zeros, subnormals of every scale, near-integers, and exponent form from 1e11 on.
    # Without its examples, each of _json_value's three redo terms still fails it.
    @settings(max_examples=300)
    @given(
        st.lists(
            st.floats(width=64)
            | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
            | st.integers(1, 52).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)).map(lambda n: n * 5e-324)
            | st.builds(lambda i, d: i + d, st.integers(-(10**12), 10**12).map(float), st.floats(-1e-9, 1e-9))
            | st.floats(min_value=1e10, max_value=1e18)
            | st.floats(min_value=-1e18, max_value=-1e10),
            max_size=40,
        )
    )
    @example([0.0, -0.0, 5e-324, 4.8e-321, 2.2250738585072014e-308, 2.225073858507201e-308])
    @example([math.inf, -math.inf, math.nan, 3.0, 2.9999999999996, -7.000000000004, 0.5, 1e-5])
    @example([99999999999.95, 999999999999.5, 1234567890123.0, 1e16, 12345678901234567.0])
    def test_array_rows_write_what_the_list_rule_writes(self, values):
        a = np.array(values, dtype=np.float64)
        assert _json_value(a) == json.dumps(_round(a.tolist()), separators=(",", ":"))

    def test_a_record_with_an_array_is_its_list_record(self, tmp_path):
        density = np.array([0.25, 1.0 / 3.0, 4.8e-321, 0.0, 2.0, 1e13, math.nan])
        record = {"t": 0.1, "norm": np.float64(2.0 / 3.0), "density": density}
        as_lists = {k: _round(v) for k, v in {**record, "density": density.tolist()}.items()}
        line = json.dumps(as_lists, separators=(",", ":")) + "\n"
        assert write_ndjson(tmp_path / "a.ndjson", [record]).read_text() == line

    def test_evolution_records_carry_12_digits(self, tmp_path):
        from anyonpt import EvolutionRecord

        last = WaveFunction(Grid(0.0, 1.0, 16), np.full(16, np.sqrt(1.0 / 3.0), dtype=complex))
        record = EvolutionRecord(np.array([1.0 / 3.0]), np.array([2.0 / 3.0]), (last.density()[::8],), last)
        _write_evolution(tmp_path, "000", record, record.densities)
        assert (tmp_path / "evolution_000.ndjson").read_text() == (
            '{"t":0.333333333333,"norm":0.666666666667,"density":[0.333333333333,0.333333333333]}\n'
        )


def evolving(name: str, snapshot_every: int) -> ExperimentConfig:
    """200 steps of two 1024-point fields, every 32nd density value written."""
    propagator = {"dt": 0.01, "t_final": 2.0, "snapshot_every": snapshot_every}
    if name == "scatter":
        raw = minimal_scatter_dict(
            params={"phi": [0.0, 0.2], "v": 0.0},
            packet={"center": -30.0, "width": 4.0, "carrier": 1.0},  # 24 from the barrier at t = 2
        )
    else:
        raw = {**minimal_amplify_dict(), "params": {"phi": math.pi / 3, "v_over_vc": [0.2, 0.5]}}
        raw["amplify"] = {"evolve": True}
    return ExperimentConfig.from_dict({**raw, "propagator": propagator, "density_stride": 32})


class TestEvolutionFiles:
    """The runners take each snapshot from the evolution loop as it comes."""

    @pytest.mark.parametrize("name", ["scatter", "amplify", "run_packet_scattering"])
    def test_held_memory_does_not_grow_with_the_snapshot_count(self, tmp_path, name):
        # 201 snapshots against 2: the 199 more, as complex fields, fill 6.5 MB,
        # and a path that held them grew by 101-103% of that.  Each keeps N(t)
        # and every 32nd density value of each stop (1/64 of that), and a
        # runner, while it writes a file, one line of its text: all three grow
        # by 1.6%.  The library call returns its records; the runners write them.
        def run(every):
            if name == "run_packet_scattering":
                cfg = evolving("scatter", every)
                cases = [(p.potential, p.params, cfg.packet(p.carrier)) for p in cfg.sweep_points()]
                return run_packet_scattering(cases, cfg.propagator, cfg.grid, cfg.separatrix, cfg.density_stride)
            return run_experiment(evolving(name, every), tmp_path / str(every))

        run(200)  # numpy's own first-call caches
        peaks = {}
        for every in (200, 1):
            tracemalloc.start()
            try:
                run(every)
                peaks[every] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        snapshot_bytes = 199 * 2 * 1024 * 16
        assert peaks[1] - peaks[200] < snapshot_bytes / 8, (peaks, snapshot_bytes)

    @pytest.mark.parametrize("name", ["scatter", "amplify"])
    @pytest.mark.parametrize("every", [1, 7, 200])
    def test_files_match_the_library_evolution(self, tmp_path, name, every):
        # the files that every full stop of the processed loop gives, written as
        # the runners wrote them when they held every snapshot; amplify divides by N(t)
        cfg = evolving(name, every)
        points, prop = cfg.sweep_points(), cfg.propagator
        if name == "scatter":
            starts = [gaussian_packet(cfg.grid, cfg.packet(p.carrier)) for p in points]
        else:
            e1 = cfg.ground_state_energy()
            starts = [
                moving_bound_state(analytic_bound_state_pt(cfg.grid, p.delta, 1.0), e1, p.params)
                for p in points
            ]
        fields = [(psi0, p.potential, p.params) for psi0, p in zip(starts, points)]
        stops = [psi.copy() for psi in _strang(fields, prop.dt, prop.snapshot_steps())]
        times = np.multiply(prop.snapshot_steps(), prop.dt)
        run_experiment(cfg, tmp_path / "runner")
        for row, point in enumerate(points):
            snaps = [WaveFunction(cfg.grid, psi[row]) for psi in stops]
            norms = np.asarray([s.norm_squared() for s in snaps])
            divisors = norms if name == "amplify" else np.ones(len(norms))
            tag = f"{point.index:03d}"
            ndjson = (
                {"t": t, "norm": n, "density": (s.density() / d)[:: cfg.density_stride].tolist()}
                for t, n, s, d in zip(times, norms, snaps, divisors)
            )
            expected = [
                write_ndjson(tmp_path / f"evolution_{tag}.ndjson", ndjson),
                write_csv(tmp_path / f"norm_{tag}.csv", ("t", "norm"), zip(times, norms)),
            ]
            for path in expected:
                assert (tmp_path / "runner" / path.name).read_bytes() == path.read_bytes(), path.name


class TestRunnersAndCLI:
    @pytest.mark.parametrize("name", FAST_CONFIGS)
    def test_deterministic_outputs(self, tmp_path, name):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / name)
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize(
        "raw",
        [
            yaml.safe_load((CONFIG_DIR / "regression_amplify.yaml").read_text()),
            minimal_scatter_dict(
                potential={"kind": "poschl_teller", "v0": 0.5, "delta": -0.3},
                params={"phi": 0.0, "v": [-0.1, -0.3, -0.6]},
                rt_sweep={"k_min": 0.5, "k_max": 2.0, "num": 4},
            ),
            {  # periodic; the 0.95 v_c point doubles its box to 512 points
                **spectrum_dict(256, phi=math.pi / 3, v_over_vc=[0.0, 0.5, 0.95]),
                "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 256},
            },
            {  # closed-form nu = 2 ground states, evolved at three drifts
                **amplify_on_grid(128, nu=2.0),
                "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 128},
                "params": {"phi": math.pi / 3, "v_over_vc": [0.2, 0.5, 0.8]},
                "amplify": {
                    "evolve": True,
                    "g_t_times": [0.5],
                    "g_t_grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 128},
                },
                "propagator": {"dt": 0.01, "t_final": 0.06, "snapshot_every": 4},
            },
        ],
        ids=["regression_amplify", "scatter-rt_sweep", "spectrum-doubled-box", "amplify-evolve"],
    )
    def test_jobs_do_not_change_results(self, tmp_path, raw):
        # three sweep points: jobs 2 splits a scatter or amplify batch unevenly
        # (2 + 1), and at jobs 3 each point evolves alone, so a batched row
        # must equal a lone evolution bit for bit; jobs 0 runs serially
        cfg = ExperimentConfig.from_dict(raw)
        a = run_experiment(cfg, tmp_path / "serial", jobs=1)
        for jobs in (0, 2, 3):
            b = run_experiment(cfg, tmp_path / f"jobs{jobs}", jobs=jobs)
            assert [p.name for p in a] == [p.name for p in b]
            for pa, pb in zip(a, b):
                assert pa.read_bytes() == pb.read_bytes()

    def test_rt_files_do_not_follow_the_evolution_grid(self, tmp_path):
        # stationary_rt steps at its own RT_SUBSTEP: scatter_barrier_k0 on its
        # 4096 points and on the 8192 it once ran writes the same r(k), t(k)
        rt_files = {}
        for n in (4096, 8192):
            cfg = ExperimentConfig.from_dict(shipped_with("scatter_barrier_k0", "grid", n_points=n))
            written = run_experiment(cfg, tmp_path / str(n))
            rt_files[n] = {p.name: p.read_bytes() for p in written if p.name.startswith("rt_")}
        assert sorted(rt_files[4096]) == ["rt_000.csv", "rt_001.csv"]
        assert rt_files[4096] == rt_files[8192]

    def test_jobs_start_at_most_one_thread_per_usable_cpu(self, tmp_path, monkeypatch):
        # a 6-point sweep at jobs 6, in a process that may use two CPUs
        import anyonpt.runners as runners

        threads = set()
        solve = runners.solve_spectrum
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(runners, "solve_spectrum", lambda h: threads.add(threading.get_ident()) or solve(h))
        raw = spectrum_dict(1024)
        raw["params"]["phi"] = [0.1 * i for i in range(6)]
        run_experiment(ExperimentConfig.from_dict(raw), tmp_path, jobs=6)
        assert 1 <= len(threads) <= 2 and threading.get_ident() not in threads

    def test_amplify_solves_each_ground_state_once(self, tmp_path, monkeypatch):
        import anyonpt.runners as runners

        solves = []
        solve = runners.point_states
        monkeypatch.setattr(runners, "point_states", lambda h, t: solves.append(h) or solve(h, t))
        raw = amplify_on_grid(128, nu=2.0)
        raw["grid"].update(x_min=-12.0, x_max=12.0)
        raw["params"]["v_over_vc"] = [0.2, 0.5]
        raw["amplify"] = {"evolve": True}
        raw["propagator"] = {"dt": 0.01, "t_final": 0.04, "snapshot_every": 4}
        run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert solves == []  # the nu = 2 ground state is the closed form; no g_t, no E_dom

    @pytest.mark.parametrize("experiment", ["amplify", "delocalize"])
    def test_well_given_as_v0_writes_the_same_bytes(self, tmp_path, experiment):
        # v0 = -2 is the nu = 1 well; both reach one closed form with nu = 1.0
        outputs = []
        for well in ({"nu": 1.0}, {"v0": -2.0}):
            raw = {
                **amplify_on_grid(1024, nu=1.0),
                "experiment": experiment,
                "potential": {"kind": "poschl_teller", "delta": 0.2, **well},
                "params": {"phi": math.pi / 3, "v_over_vc": [0.5, 0.9, 0.97]},
                "amplify": {"evolve": False},
            }
            written = run_experiment(ExperimentConfig.from_dict(raw), tmp_path / str(len(outputs)))
            outputs.append([(p.name, p.read_bytes()) for p in written])
        assert outputs[0] == outputs[1]

    def test_shallow_well_runs(self, tmp_path):
        # nu = 1e-3 at 0.5 v_c: a state about 1000 long sums on the same box as any other
        raw = {**amplify_on_grid(1024, nu=1e-3), "amplify": {"evolve": False}}
        raw["params"]["v_over_vc"] = [0.5]
        path = tmp_path / "shallow.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["amplify", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        with (tmp_path / "out" / "ginf.csv").open() as fh:
            (row,) = csv.DictReader(fh)
        assert (row["g_infinity"], row["self_orthogonality"]) == ("1.77777945072", "0.999999920158")

    def test_nu_2_gain_from_the_closed_form(self, tmp_path):
        # the weighted integrals of sech^2(x - 0.2i) at 0.9 v_c; a rest-frame
        # eigenvector on the 80-wide box gave 8.38e46 here
        raw = {**amplify_on_grid(1024, nu=2.0), "amplify": {"evolve": False}}
        raw["params"]["v_over_vc"] = [0.9]
        path = tmp_path / "nu2.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["amplify", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        with (tmp_path / "out" / "ginf.csv").open() as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["g_infinity"]) == pytest.approx(476.0, rel=1e-3)

    @pytest.mark.parametrize("gain", [math.inf, math.nan])
    def test_non_finite_gain_exits_3(self, tmp_path, monkeypatch, gain):
        import anyonpt.nonnormal as nonnormal
        import anyonpt.runners as runners

        # g_infinity checks its own forms, before the point's G_t is computed
        g_t_calls, g_t = [], runners.g_t
        monkeypatch.setattr(nonnormal, "g_infinity_forms", lambda *args, **kwargs: (gain, gain))
        monkeypatch.setattr(runners, "g_t", lambda *args: g_t_calls.append(args) or g_t(*args))
        path = tmp_path / "amplify.yaml"
        path.write_text(yaml.safe_dump(minimal_amplify_dict(g_t_times=[0.5])))
        outdir = tmp_path / "never"
        assert cli_main(["amplify", "--config", str(path), "--output", str(outdir)]) == 3
        assert not outdir.exists()
        assert g_t_calls == []

    @pytest.mark.parametrize(
        "raw, code",
        [
            # a quadrature grid widened for the margin would need 2^28 points; the gain box has 372
            (amplify_at(0.99999), 0),
            (amplify_at(0.5, g_t_times=[1e308], g_t_grid=SMALL_G_T_GRID), 3),
            (amplify_at(0.5, g_t_times=[1e20], g_t_grid=SMALL_G_T_GRID), 3),
            # P(1e-4) is close to I: sigma_max restarts its Arnoldi basis many times, and on
            # the default 1024-point g_t grid it gives up and takes the dense SVD
            (amplify_at(0.5, g_t_times=[1e-4], g_t_grid=SMALL_G_T_GRID), 0),
            (amplify_at(0.5, g_t_times=[1e-4]), 0),
        ],
        ids=[
            "amplify-quadrature-above-point-cap",
            "g_t-step-count-overflows",
            "g_t-chain-underflows",
            "g_t-clustered-time",
            "g_t-clustered-time-gives-up",
        ],
    )
    def test_extreme_amplify_configs_exit_0_or_3(self, tmp_path, raw, code):
        path = tmp_path / "extreme.yaml"
        path.write_text(yaml.safe_dump(raw))
        outdir = tmp_path / "out"
        assert cli_main(["amplify", "--config", str(path), "--output", str(outdir)]) == code
        assert (outdir / "ginf.csv").exists() == (code == 0)

    def test_lasermap_failure_writes_nothing(self, tmp_path, monkeypatch):
        import anyonpt.runners as runners

        calls = []
        threshold = runners.mode_locking_threshold

        def fail_second(cavity, e1):
            calls.append(cavity)
            if len(calls) == 2:
                raise DomainError("injected")
            return threshold(cavity, e1)

        monkeypatch.setattr(runners, "mode_locking_threshold", fail_second)
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "lasermap_detuning.yaml")
        with pytest.raises(DomainError):
            run_experiment(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        import anyonpt.runners as runners

        calls = []

        def fail_second(path, header, rows):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("injected")
            return write_csv(path, header, rows)

        monkeypatch.setattr(runners, "write_csv", fail_second)
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "null_spectrum.yaml")
        with pytest.raises(OSError, match="injected"):
            run_experiment(cfg, tmp_path / "a" / "out")
        assert list(tmp_path.iterdir()) == []  # nor the parent this run made

    def test_failed_run_keeps_files_others_wrote_in_new_parents(self, tmp_path, monkeypatch):
        import anyonpt.runners as runners

        results = tmp_path / "results"

        def sibling_then_fail(cfg, stage, jobs):
            (results / "b").mkdir()  # a second run publishes beside this one
            (results / "b" / "mapping.csv").write_text("sibling\n")
            (stage / "mapping.csv").write_text("partial\n")
            raise DomainError("injected")

        monkeypatch.setitem(runners._RUNNERS, "lasermap", sibling_then_fail)
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "null_lasermap.yaml")
        with pytest.raises(DomainError, match="injected"):
            run_experiment(cfg, results / "a")
        assert [p.name for p in results.iterdir()] == ["b"]  # stage and empty outdir gone
        assert [p.name for p in (results / "b").iterdir()] == ["mapping.csv"]
        assert (results / "b" / "mapping.csv").read_text() == "sibling\n"

    def test_stages_of_exited_processes_are_removed(self, tmp_path):
        host = socket.gethostname()
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its pid no longer runs
        outdir = tmp_path / "out"
        kept = [
            f".partial-{host}-{os.getpid()}-live",  # a running process's stage
            f".partial-elsewhere-{child.pid}-abc",  # another host's
            ".partial-k3j_x9q1",  # the older name without host and pid
        ]
        for name in [f".partial-{host}-{child.pid}-dead", *kept]:
            (outdir / name).mkdir(parents=True)
            (outdir / name / "mapping.csv").write_text("partial\n")
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "null_lasermap.yaml")
        run_experiment(cfg, outdir)
        assert sorted(p.name for p in outdir.iterdir()) == sorted([*kept, "mapping.csv"])

    def test_directory_in_the_way_moves_no_file(self, tmp_path):
        outdir = tmp_path / "out"
        (outdir / "threshold_table.csv").mkdir(parents=True)
        (outdir / "mapping.csv").write_text("old\n")
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "lasermap_detuning.yaml")
        with pytest.raises(IsADirectoryError):
            run_experiment(cfg, outdir)
        assert sorted(p.name for p in outdir.iterdir()) == ["mapping.csv", "threshold_table.csv"]
        assert (outdir / "mapping.csv").read_text() == "old\n"
        assert list((outdir / "threshold_table.csv").iterdir()) == []

    def test_failed_run_keeps_existing_files(self, tmp_path):
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "manifest.csv").write_text("kept\n")
        bad = minimal_scatter_dict()
        bad["propagator"]["t_final"] = 2.0  # inconclusive scattering window
        with pytest.raises(NumericalError):
            run_experiment(ExperimentConfig.from_dict(bad), outdir)
        assert [p.name for p in outdir.iterdir()] == ["manifest.csv"]
        assert (outdir / "manifest.csv").read_text() == "kept\n"

    def test_published_files_replace_existing_ones(self, tmp_path):
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "mapping.csv").write_text("old\n")
        (outdir / "notes.txt").write_text("kept\n")
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "null_lasermap.yaml")
        written = run_experiment(cfg, outdir)
        assert written == [outdir / "mapping.csv"]
        assert sorted(p.name for p in outdir.iterdir()) == ["mapping.csv", "notes.txt"]
        assert (outdir / "mapping.csv").read_text().startswith("phi,v,")

    @pytest.mark.parametrize("case", ["output-is-a-file", "output-under-a-file", "write-fails"])
    def test_cli_unusable_output_exits_2(self, tmp_path, monkeypatch, capsys, case):
        import anyonpt.runners as runners

        blocker = tmp_path / "blocker"
        blocker.write_text("")
        outdir = {"output-is-a-file": blocker, "output-under-a-file": blocker / "out"}.get(
            case, tmp_path / "out"
        )
        ran = []
        run = runners._RUNNERS["lasermap"]

        def counted(*args, **kwargs):
            ran.append(1)
            return run(*args, **kwargs)

        def full_disk(path, header, rows):
            raise OSError(28, "No space left on device")

        monkeypatch.setitem(runners._RUNNERS, "lasermap", counted)
        if case == "write-fails":
            monkeypatch.setattr(runners, "write_csv", full_disk)
        config = str(CONFIG_DIR / "null_lasermap.yaml")
        rc = cli_main(["lasermap", "--config", config, "--output", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("anyonpt: cannot write output: ") and "Traceback" not in err
        assert ran == ([1] if case == "write-fails" else [])  # path cases fail before computing
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
        assert blocker.read_text() == ""

    def test_cli_success_and_output_flag(self, tmp_path, capsys):
        rc = cli_main(
            [
                "lasermap",
                "--config",
                str(CONFIG_DIR / "null_lasermap.yaml"),
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        listed = capsys.readouterr().out.strip().splitlines()
        assert (tmp_path / "out" / "mapping.csv").exists()
        assert str(tmp_path / "out" / "mapping.csv") in listed

    def test_cli_env_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANYONPT_OUTPUT", str(tmp_path / "envdir"))
        rc = cli_main(["lasermap", "--config", str(CONFIG_DIR / "null_lasermap.yaml")])
        assert rc == 0
        assert (tmp_path / "envdir" / "mapping.csv").exists()

    def test_cli_missing_config_is_config_error(self):
        assert cli_main(["spectrum", "--config", "/nonexistent.yaml"]) == 2

    def test_cli_runner_mismatch(self):
        assert cli_main(["spectrum", "--config", str(CONFIG_DIR / "null_lasermap.yaml")]) == 2

    def test_cli_numerical_error_and_no_partial_output(self, tmp_path):
        # inconclusive scattering window: exit 3 and nothing written
        bad = minimal_scatter_dict()
        bad["propagator"]["t_final"] = 2.0
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(bad))
        outdir = tmp_path / "never"
        rc = cli_main(["scatter", "--config", str(path), "--output", str(outdir)])
        assert rc == 3
        assert not outdir.exists()

    def test_cli_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("experiment: [unterminated\n")
        assert cli_main(["spectrum", "--config", str(path)]) == 2

    def test_null_spectrum_outputs_are_free_continuum(self, tmp_path):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "null_spectrum.yaml")
        run_experiment(cfg, tmp_path)
        manifest = (tmp_path / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "index,phi,v,delta,numerical_point_count"
        rows = (tmp_path / "eigs_000.csv").read_text().splitlines()[1:]
        assert len(rows) == cfg.grid.n_points
        for row in rows:
            re_e, im_e, cls, _ = row.split(",")
            assert cls == "continuum"
            assert float(re_e) > -1e-9  # positive real axis
            assert abs(float(im_e)) < 1e-9
        bound = (tmp_path / "bound_000.csv").read_text().splitlines()
        assert len(bound) == 1  # header only: no bound states for V = 0

    def test_regression_spectrum_pinned_eigenvalue(self, tmp_path):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "regression_spectrum.yaml")
        run_experiment(cfg, tmp_path)
        target = complex(-0.5, math.sqrt(3.0) / 2.0)  # -exp(-i pi/3)
        best = None
        for row in (tmp_path / "eigs_000.csv").read_text().splitlines()[1:]:
            re_e, im_e, cls, _ = row.split(",")
            z = complex(float(re_e), float(im_e))
            if best is None or abs(z - target) < abs(best - target):
                best = z
        assert abs(best - target) < 1e-3

    def test_null_delocalize_metrics(self, tmp_path):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "null_delocalize.yaml")
        run_experiment(cfg, tmp_path)
        header, row = (tmp_path / "metrics.csv").read_text().splitlines()[:2]
        assert header == (
            "index,phi,v,delta,margin,analytic_localization_length,"
            "numerical_point_count,numerical_localization_length"
        )
        row = row.split(",")
        assert int(row[6]) == 1  # one numerical point state
        assert float(row[4]) == 1.0  # margin = sqrt(|E_1|)

    def test_scatter_runner_products(self, tmp_path):
        cfg = ExperimentConfig.from_dict(minimal_scatter_dict())
        written = run_experiment(cfg, tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["evolution_000.ndjson", "norm_000.csv", "report.csv"]
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0] == (
            "index,phi,v,delta,k,re_k_r,im_k_r,reflected_fraction,transmitted_fraction,evanescent"
        )
        fields = report[1].split(",")
        # narrow test packet leaks ~1% into the slow spectral tail; the shipped
        # null_scatter config (wide packet) holds the stricter 0.999 bound
        assert float(fields[8]) > 0.95

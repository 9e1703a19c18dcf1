import functools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anyonpt import (
    AnyonicParams,
    ContractError,
    DivergenceError,
    ExperimentConfig,
    Grid,
    PacketSpec,
    PoschlTeller,
    PropagatorConfig,
    Tabulated,
    WaveFunction,
    analytic_bound_state_pt,
    evolve,
    evolve_batch,
    gauge_transform_check,
    gaussian_packet,
    moving_bound_state,
    shifted_point_energy,
)
from anyonpt.model import trapz
from anyonpt.propagation import AMPLITUDE_GUARD, _guard, evolve_extrapolated
from anyonpt.spectra import continuous_dispersion

FREE = PoschlTeller(v0=0.0)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def single_mode(grid: Grid, j: int) -> WaveFunction:
    return WaveFunction(grid, np.exp(1j * grid.k[j] * grid.x)).normalized()


def strang_steps(psi, spec, params, dt, n_steps) -> WaveFunction:
    """The field after n_steps moving-frame steps of evolve."""
    cfg = PropagatorConfig(dt=dt, t_final=n_steps * dt, snapshot_every=10**9)
    assert cfg.n_steps() == n_steps
    return evolve(psi, spec, params, cfg).final()


class TestSplitStep:
    def test_free_mode_exact(self):
        grid = Grid(-20.0, 20.0, 256)
        params = AnyonicParams(phi=math.pi / 3, v=0.8)
        dt = 0.05
        for j in (1, 7, 40):
            psi = single_mode(grid, j)
            out = strang_steps(psi, FREE, params, dt, 1)
            expected = psi.values * np.exp(
                -1j * continuous_dispersion(grid.k[j], params) * dt
            )
            assert np.abs(out.values - expected).max() < 1e-12

    def test_hermitian_norm_conserved_per_step(self):
        grid = Grid(-30.0, 30.0, 512)
        well = PoschlTeller(nu=1.0, delta=0.0)
        psi = gaussian_packet(grid, PacketSpec(center=-5.0, width=3.0, carrier=1.0))
        params = AnyonicParams(phi=0.0, v=0.7)
        psi = strang_steps(psi, well, params, 0.01, 200)
        assert abs(psi.norm() - 1.0) < 1e-10

    def test_high_k_damping_matches_dispersion(self):
        # broadband packet under phi > 0: each mode damps as exp(-sin(phi) k^2 t)
        grid = Grid(-40.0, 40.0, 1024)
        phi = math.pi / 3
        params = AnyonicParams(phi=phi, v=0.0)
        psi = gaussian_packet(grid, PacketSpec(center=0.0, width=1.0, carrier=0.0))
        t, dt = 1.0, 0.01
        spec0 = np.fft.fft(psi.values)
        out = strang_steps(psi, FREE, params, dt, int(t / dt))
        spec1 = np.fft.fft(out.values)
        # restrict to modes whose damped value stays above the float noise floor
        sel = (np.abs(spec0) > 1e-6 * np.abs(spec0).max()) & (np.abs(grid.k) <= 3.0)
        assert sel.sum() > 20
        ratio = np.abs(spec1[sel] / spec0[sel])
        expected = np.exp(-math.sin(phi) * grid.k[sel] ** 2 * t)
        assert np.abs(ratio - expected).max() < 1e-9

    def test_divergence_guard(self):
        grid = Grid(-20.0, 20.0, 256)
        gain = Tabulated(grid, np.full(grid.n_points, 200.0j))  # Im V > 0: uniform gain
        psi = gaussian_packet(grid, PacketSpec(center=0.0, width=2.0))
        params = AnyonicParams(phi=0.0, v=0.0)
        with pytest.raises(DivergenceError):
            strang_steps(psi, gain, params, 0.01, 2000)


class TestEvolve:
    def test_eigenstate_density_stationary(self):
        grid = Grid(-30.0, 30.0, 1024)
        well = PoschlTeller(nu=1.0, delta=0.0)
        u = analytic_bound_state_pt(grid, 0.0)
        cfg = PropagatorConfig(dt=0.001, t_final=20.0, snapshot_every=4000)
        rec = evolve(u, well, AnyonicParams(phi=0.0, v=0.0), cfg)
        for snap in rec.snapshots:
            assert np.abs(snap.density() - u.density()).max() < 1e-6

    def test_norm_conservation_iff_hermitian(self):
        grid = Grid(-80.0, 80.0, 2048)
        params = AnyonicParams(phi=0.0, v=-2.0)
        psi0 = gaussian_packet(grid, PacketSpec(center=-32.0, width=10.0, carrier=0.0))
        cfg = PropagatorConfig(dt=0.005, t_final=20.0, snapshot_every=400)
        hermitian = evolve(psi0, PoschlTeller(delta=0.0, v0=3.0), params, cfg)
        assert np.abs(hermitian.norm / hermitian.norm[0] - 1.0).max() < 1e-8
        pt_barrier = evolve(psi0, PoschlTeller(delta=-0.5, v0=3.0), params, cfg)
        assert np.abs(pt_barrier.norm / pt_barrier.norm[0] - 1.0).max() > 1e-3

    def test_order_two_convergence(self):
        grid = Grid(-80.0, 80.0, 2048)
        barrier = PoschlTeller(delta=-0.5, v0=3.0)
        params = AnyonicParams(phi=0.0, v=-2.0)
        psi0 = gaussian_packet(grid, PacketSpec(center=-20.0, width=8.0, carrier=0.5))

        def final(dt):
            cfg = PropagatorConfig(dt=dt, t_final=5.0, snapshot_every=10**9)
            return evolve(psi0, barrier, params, cfg).final().values

        ref = final(0.0025)
        err_coarse = np.abs(final(0.02) - ref).max()
        err_fine = np.abs(final(0.01) - ref).max()
        assert err_coarse / err_fine >= 3.5

    def test_frame_consistency(self):
        # a lab-frame Strang run under V(x - v t), shifted onto the moving frame, agrees to 1e-4
        grid = Grid(-80.0, 80.0, 2048)
        well = PoschlTeller(nu=1.0, delta=0.2)
        phi, v, t = math.pi / 8, -1.0, 10.0
        params = AnyonicParams(phi=phi, v=v)
        psi0 = gaussian_packet(grid, PacketSpec(center=-30.0, width=5.0, carrier=0.8))
        cfg = PropagatorConfig(dt=0.001, t_final=t, snapshot_every=10**9)
        moving = evolve(psi0, well, params, cfg).final()
        lab = reference_evolve(psi0, well, params, cfg, frame="lab")[0][-1]
        # sample the lab field at X = x + v t via spectral shift
        shifted = np.fft.ifft(np.fft.fft(lab) * np.exp(1j * grid.k * v * t))
        rho_m = moving.density() / moving.norm_squared()
        rho_l = np.abs(shifted) ** 2 / moving.norm_squared()
        assert np.abs(rho_m - rho_l).max() < 1e-4

    def test_snapshot_striding(self):
        grid = Grid(-20.0, 20.0, 256)
        psi = gaussian_packet(grid, PacketSpec(center=0.0, width=2.0))
        cfg = PropagatorConfig(dt=0.01, t_final=1.0, snapshot_every=25)
        rec = evolve(psi, FREE, AnyonicParams(phi=0.0, v=0.0), cfg)
        assert len(rec.times) == 5  # t = 0 plus four strides
        assert rec.times[-1] == pytest.approx(1.0)
        assert len(rec.norm) == len(rec.snapshots) == 5

    def test_config_validation(self):
        with pytest.raises(ContractError):
            PropagatorConfig(dt=-0.1)


def reference_evolve(psi0, spec, params, cfg, frame="moving"):
    """One field through the Strang loop, fresh arrays and both half factors every step.

    ``frame="lab"`` drops the drift from the Fourier multiplier and moves the
    potential instead, evaluating V(x - v t) at both ends of every step
    (frozen-coefficient Strang); its field at X is the moving-frame field at
    X - v t up to splitting error.
    """
    grid, dt, moving = psi0.grid, cfg.dt, frame == "moving"
    rot = complex(math.cos(params.phi), -math.sin(params.phi))
    symbol = rot * grid.k * grid.k
    if moving:
        symbol = symbol - params.v * grid.k
    mult_k = np.exp(-1j * symbol * dt)

    def half_v(t):
        x = grid.x if moving else grid.x - params.v * t
        return np.exp(-0.5j * rot * np.asarray(spec(x), dtype=complex) * dt)

    psi = psi0.values
    snaps, norms = [psi], [trapz(np.abs(psi) ** 2, grid.dx)]
    n_steps = cfg.n_steps()
    for step in range(n_steps):
        psi = half_v(step * dt) * psi
        psi = np.fft.ifft(mult_k * np.fft.fft(psi))
        psi = half_v((step + 1) * dt) * psi
        if (step + 1) % cfg.snapshot_every == 0 or step + 1 == n_steps:
            snaps.append(psi)
            norms.append(trapz(np.abs(psi) ** 2, grid.dx))
    return snaps, norms


class TestEvolveBatch:
    def test_rows_bitwise_equal_single_field_loops(self):
        grid = Grid(-30.0, 30.0, 512)
        fields = [
            (
                gaussian_packet(grid, PacketSpec(center=-5.0, width=2.0, carrier=0.8)),
                PoschlTeller(nu=1.0, delta=0.2),
                AnyonicParams(phi=math.pi / 8, v=-1.0),
            ),
            (
                gaussian_packet(grid, PacketSpec(center=-8.0, width=3.0, carrier=0.0)),
                PoschlTeller(delta=-0.5, v0=3.0),
                AnyonicParams(phi=0.0, v=-2.0),
            ),
            (
                gaussian_packet(grid, PacketSpec(center=4.0, width=2.5, carrier=-1.0)),
                PoschlTeller(nu=1.6, delta=0.0),
                AnyonicParams(phi=math.pi / 3, v=0.5),
            ),
        ]
        # the last snapshot falls off the stride
        cfg = PropagatorConfig(dt=0.01, t_final=1.0, snapshot_every=30)
        records = evolve_batch(fields, cfg)
        assert len(records) == 3
        for record, field in zip(records, fields):
            snaps, norms = reference_evolve(*field, cfg)
            assert len(record.snapshots) == len(snaps) == 5
            assert np.array_equal(record.norm, np.asarray(norms))
            for snap, ref in zip(record.snapshots, snaps):
                assert np.array_equal(snap.values, ref)
        single = evolve(*fields[2], cfg)
        assert np.array_equal(single.final().values, records[2].final().values)

    def test_fields_must_share_a_grid(self):
        psi_a = gaussian_packet(Grid(-20.0, 20.0, 256), PacketSpec(center=0.0, width=2.0))
        psi_b = gaussian_packet(Grid(-25.0, 25.0, 256), PacketSpec(center=0.0, width=2.0))
        params = AnyonicParams(phi=0.0, v=0.0)
        with pytest.raises(ContractError):
            evolve_batch([(psi_a, FREE, params), (psi_b, FREE, params)], PropagatorConfig())

    def test_guard_matches_exact_modulus_test(self):
        base = np.full((2, 64), 0.3 + 0.4j)
        edge = AMPLITUDE_GUARD / math.sqrt(2.0)  # |Re| = |Im| puts |z| at the guard
        cases = {
            "nan-re": complex(math.nan, 0.0),
            "nan-im": complex(0.0, math.nan),
            "inf-re": complex(math.inf, 0.0),
            "-inf-im": complex(0.0, -math.inf),
            "just-above": complex(edge * (1 + 1e-12), -edge * (1 + 1e-12)),
            "just-below": complex(-edge * (1 - 1e-12), edge * (1 - 1e-12)),
            "real-just-below": complex(AMPLITUDE_GUARD * (1 - 1e-12), 0.0),
            "real-just-above": complex(-AMPLITUDE_GUARD * (1 + 1e-12), 0.0),
            "tame": 0.5 - 0.5j,
        }
        verdicts = {}
        for name, z in cases.items():
            values = base.copy()
            values[1, 17] = z
            m = float(np.abs(values).max())
            exact = not math.isfinite(m) or m > AMPLITUDE_GUARD
            try:
                _guard(values)
                raised = False
            except DivergenceError:
                raised = True
            assert raised == exact, name
            verdicts[name] = raised
        assert verdicts["just-above"] and not verdicts["just-below"]
        assert verdicts["real-just-above"] and not verdicts["real-just-below"]
        assert not verdicts["tame"]

    @pytest.mark.skipif(sys.platform != "linux", reason="glibc's malloc thresholds")
    def test_fft_scratch_is_not_remapped_every_step(self):
        # two 8192-point rows in a process without scipy: the FFT scratch must
        # stay mapped, where remapping it faults about 100 pages per step
        code = (
            "import resource, sys, numpy as np\n"
            "from anyonpt import AnyonicParams, Grid, PoschlTeller, PropagatorConfig, "
            "WaveFunction, evolve_batch\n"
            "grid = Grid(-160.0, 160.0, 8192)\n"
            "psi = WaveFunction(grid, np.exp(-grid.x**2 / 100.0) + 0j)\n"
            "well = PoschlTeller(v0=1.0)\n"
            "fields = [(psi, well, AnyonicParams(phi=p, v=-2.0)) for p in (0.0, 0.4)]\n"
            "cfg = PropagatorConfig(dt=0.05, t_final=25.0, snapshot_every=10**9)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "evolve_batch(fields, cfg)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(after - before, 'scipy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        faults, scipy_loaded = out.stdout.split()
        assert scipy_loaded == "False"
        assert int(faults) < 10 * 500  # 500 steps


# The step at which the Strang loop's splitting error is pinned: the shipped
# configs' dt before the runners took the extrapolated field.
STRANG_DT = 0.005


@functools.cache
def shipped_finals(name: str, dt: float) -> list:
    """A shipped evolution config's Strang records at step dt, one per sweep point.

    The fields are built as the scatter and amplify runners build them: a Gaussian
    packet per point, or the dressed closed-form bound state on the config box.
    """
    cfg = ExperimentConfig.from_yaml(CONFIG_DIR / f"{name}.yaml")
    points = cfg.sweep_points()
    if cfg.experiment == "scatter":
        starts = [gaussian_packet(cfg.grid, cfg.packet(p.carrier)) for p in points]
    else:
        e1 = cfg.ground_state_energy()
        starts = [
            moving_bound_state(
                analytic_bound_state_pt(cfg.grid, p.delta, p.potential.well_nu), e1, p.params
            )
            for p in points
        ]
    run = PropagatorConfig(dt=dt, t_final=cfg.propagator.t_final, snapshot_every=10**9)
    assert run.n_steps() * dt == pytest.approx(cfg.propagator.t_final, abs=1e-12)
    fields = [(psi0, p.potential, p.params) for psi0, p in zip(starts, points)]
    return evolve_batch(fields, run)


def extrapolated_finals(name: str, dt: float) -> list:
    """(4 psi_dt - psi_2dt) / 3 of each final field, as evolve_extrapolated combines them."""
    pairs = zip(shipped_finals(name, dt), shipped_finals(name, 2.0 * dt))
    return [(4.0 * fine.final().values - coarse.final().values) / 3.0 for fine, coarse in pairs]


def richardson_errors(name: str) -> list:
    """Richardson's relative L2 estimate |psi_dt - psi_2dt| / (3 |psi_dt|) of each final field."""
    pairs = zip(shipped_finals(name, STRANG_DT), shipped_finals(name, 2.0 * STRANG_DT))
    return [
        float(np.linalg.norm(fine.final().values - coarse.final().values))
        / (3.0 * float(np.linalg.norm(fine.final().values)))
        for fine, coarse in pairs
    ]


def norm_gaps(name: str, finals) -> list:
    """N(t_f) / N(0) over e^{2 Im E t_f}, minus 1, for the first two points of ``name``.

    Both start in an eigenstate that fits the box, so N(t) = N(0) e^{2 Im E t}.
    """
    cfg = ExperimentConfig.from_yaml(CONFIG_DIR / f"{name}.yaml")
    t, dx = cfg.propagator.t_final, cfg.grid.dx
    gaps = []
    for point, final in zip(cfg.sweep_points()[:2], finals):
        energy = shifted_point_energy(cfg.ground_state_energy(), point.params)
        start = shipped_finals(name, STRANG_DT)[point.index].norm[0]  # N(0) of every run
        norm = trapz(np.abs(final) ** 2, dx)
        gaps.append(norm / start / math.exp(2.0 * energy.imag * t) - 1.0)
    return gaps


SHIPPED_ERRORS = {  # name: the pinned Strang error at STRANG_DT of each sweep point
    "scatter_barrier_k0": [5.42e-6, 8.68e-6],  # phi = 0, pi/8
    "scatter_barrier_k1": [8.21e-6, 7.70e-6],
    "amplify_breakup": [7.62e-5, 2.11e-4, 1.29e-4],  # 0.2, 0.8, 0.95 v_c
}


class TestSplittingError:
    """The Strang splitting error of each shipped evolution, at STRANG_DT.

    The kinetic-plus-drift step is exact in Fourier space, so the only time
    error is the second-order splitting error, and halving dt quarters it.
    """

    @pytest.mark.parametrize("name, errors", list(SHIPPED_ERRORS.items()))
    def test_shipped_final_field_error(self, name, errors):
        assert richardson_errors(name) == pytest.approx(errors, rel=0.01)

    def test_free_flight_is_exact(self):
        # V = 0: the split step is the exact propagator, so only rounding is left
        assert richardson_errors("null_scatter")[0] < 1e-12

    def test_bound_state_norm_against_its_eigenvalue(self):
        finals = [r.final().values for r in shipped_finals("amplify_breakup", STRANG_DT)]
        assert norm_gaps("amplify_breakup", finals) == pytest.approx([-1.07e-4, -1.06e-4], rel=0.01)


class TestExtrapolation:
    """evolve_extrapolated: two Strang runs, at dt and 2 dt, combined at every snapshot."""

    def test_is_the_combination_of_two_strang_runs(self):
        grid = Grid(-30.0, 30.0, 512)
        fields = [
            (
                gaussian_packet(grid, PacketSpec(center=-5.0, width=2.0, carrier=0.8)),
                PoschlTeller(nu=1.0, delta=0.2),
                AnyonicParams(phi=math.pi / 8, v=-1.0),
            ),
            (
                gaussian_packet(grid, PacketSpec(center=4.0, width=2.5, carrier=-1.0)),
                PoschlTeller(delta=-0.5, v0=3.0),
                AnyonicParams(phi=0.0, v=-2.0),
            ),
        ]
        # 100 steps, snapshots at 0, 40, 80 and 100: the last falls off the stride
        cfg = PropagatorConfig(dt=0.01, t_final=1.0, snapshot_every=40)
        half = PropagatorConfig(dt=0.02, t_final=1.0, snapshot_every=20)
        records = evolve_extrapolated(fields, cfg)
        pairs = zip(evolve_batch(fields, cfg), evolve_batch(fields, half))
        for record, (fine, coarse) in zip(records, pairs):
            assert np.array_equal(record.times, fine.times)
            assert len(record.snapshots) == len(coarse.snapshots) == 4
            for snap, f, c in zip(record.snapshots, fine.snapshots, coarse.snapshots):
                assert np.array_equal(snap.values, (4.0 * f.values - c.values) / 3.0)
            assert np.array_equal(record.norm, [s.norm_squared() for s in record.snapshots])

    @pytest.mark.parametrize(
        "cfg",
        [
            PropagatorConfig(dt=0.01, t_final=1.0, snapshot_every=25),
            PropagatorConfig(dt=0.01, t_final=0.99, snapshot_every=10**9),
        ],
        ids=["snapshot_every-odd", "step-count-odd"],
    )
    def test_refuses_what_the_coarse_run_cannot_land_on(self, cfg):
        grid = Grid(-20.0, 20.0, 256)
        psi = gaussian_packet(grid, PacketSpec(center=0.0, width=2.0))
        with pytest.raises(ContractError, match="must both be even"):
            evolve_extrapolated([(psi, FREE, AnyonicParams(phi=0.0, v=0.0))], cfg)

    @pytest.mark.parametrize(
        "name, errors",
        [
            ("scatter_barrier_k0", [1.82e-8, 9.69e-9]),  # phi = 0, pi/8
            ("scatter_barrier_k1", [4.02e-8, 9.33e-9]),
            ("amplify_breakup", [1.40e-7, 1.83e-7, 6.80e-8]),  # 0.2, 0.8, 0.95 v_c
        ],
    )
    def test_shipped_final_field_error(self, name, errors):
        # against (4 psi_{dt/2} - psi_dt) / 3 at the shipped dt: 200 to 1900 times
        # below the Strang field's error at STRANG_DT, where the gate asks for 10
        dt = ExperimentConfig.from_yaml(CONFIG_DIR / f"{name}.yaml").propagator.dt
        measured = [
            float(np.linalg.norm(field - ref)) / float(np.linalg.norm(ref))
            for field, ref in zip(extrapolated_finals(name, dt), extrapolated_finals(name, dt / 2))
        ]
        assert measured == pytest.approx(errors, rel=0.01)
        assert all(10.0 * e <= strang for e, strang in zip(measured, SHIPPED_ERRORS[name]))

    def test_bound_state_norm_gap_shrinks(self):
        # the Strang field at STRANG_DT misses e^{2 Im E t} by -1.07e-4 and -1.06e-4
        # (test_bound_state_norm_against_its_eigenvalue).  At 0.8 v_c the gap stays
        # near +8e-7 when dt halves, so what is left there is not time error.
        dt = ExperimentConfig.from_yaml(CONFIG_DIR / "amplify_breakup.yaml").propagator.dt
        gaps = norm_gaps("amplify_breakup", extrapolated_finals("amplify_breakup", dt))
        assert gaps == pytest.approx([-1.40e-7, 6.55e-7], rel=0.01)
        assert all(100.0 * abs(g) < 1.06e-4 for g in gaps)


class TestGauge:
    @pytest.mark.parametrize("v", [1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_galilean_invariance_at_phi_zero(self, v, delta):
        # half-width 16 pi makes v/2 an exact multiple of the mode spacing
        grid = Grid(-16.0 * math.pi, 16.0 * math.pi, 2048)
        well = PoschlTeller(nu=1.0, delta=delta)
        psi0 = gaussian_packet(grid, PacketSpec(center=-10.0, width=3.0, carrier=0.7))
        disc = gauge_transform_check(well, AnyonicParams(phi=0.0, v=v), psi0, t=10.0)
        assert disc < 1e-6

    def test_v_zero_is_identity(self):
        grid = Grid(-20.0, 20.0, 512)
        psi0 = gaussian_packet(grid, PacketSpec(center=0.0, width=2.0))
        disc = gauge_transform_check(
            PoschlTeller(nu=1.0), AnyonicParams(phi=0.0, v=0.0), psi0, t=2.0
        )
        assert disc < 1e-12

    def test_rejects_nonzero_phi(self):
        grid = Grid(-20.0, 20.0, 256)
        psi0 = gaussian_packet(grid, PacketSpec(center=0.0, width=2.0))
        with pytest.raises(ContractError):
            gauge_transform_check(FREE, AnyonicParams(phi=0.1, v=1.0), psi0, t=1.0)

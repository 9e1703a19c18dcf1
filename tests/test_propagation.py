import math
import subprocess
import sys

import numpy as np
import pytest

from anyonpt import (
    AnyonicParams,
    ContractError,
    DivergenceError,
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
    shifted_point_energy,
)
from anyonpt.model import trapz
from anyonpt.propagation import AMPLITUDE_GUARD, _commutator, _guard, _strang
from anyonpt.spectra import continuous_dispersion
from converged import converged_records, shipped_config, shipped_records

FREE = PoschlTeller(v0=0.0)


def single_mode(grid: Grid, j: int) -> WaveFunction:
    return WaveFunction(grid, np.exp(1j * grid.k[j] * grid.x)).normalized()


def strang_stops(fields, cfg: PropagatorConfig) -> list:
    """Copies of the stacked complex fields the processed loop yields at each of cfg's stops."""
    return [psi.copy() for psi in _strang(fields, cfg.dt, cfg.snapshot_steps())]


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
        for density in rec.densities:
            assert np.abs(density - u.density()).max() < 1e-6

    def test_norm_conservation_iff_hermitian(self):
        grid = Grid(-80.0, 80.0, 2048)
        params = AnyonicParams(phi=0.0, v=-2.0)
        psi0 = gaussian_packet(grid, PacketSpec(center=-32.0, width=10.0, carrier=0.0))
        cfg = PropagatorConfig(dt=0.005, t_final=20.0, snapshot_every=400)
        hermitian = evolve(psi0, PoschlTeller(delta=0.0, v0=3.0), params, cfg)
        assert np.abs(hermitian.norm / hermitian.norm[0] - 1.0).max() < 1e-8
        pt_barrier = evolve(psi0, PoschlTeller(delta=-0.5, v0=3.0), params, cfg)
        assert np.abs(pt_barrier.norm / pt_barrier.norm[0] - 1.0).max() > 1e-3

    @pytest.mark.parametrize("phi", [0.0, math.pi / 8])
    def test_order_four_convergence(self, phi):
        # the processed loop's error falls 16-fold per halving of dt on this row
        grid = Grid(-80.0, 80.0, 2048)
        barrier = PoschlTeller(delta=-0.5, v0=3.0)
        params = AnyonicParams(phi=phi, v=-2.0)
        psi0 = gaussian_packet(grid, PacketSpec(center=-20.0, width=8.0, carrier=0.5))

        def final(dt):
            cfg = PropagatorConfig(dt=dt, t_final=5.0, snapshot_every=10**9)
            return evolve(psi0, barrier, params, cfg).final().values

        ref = final(0.0025)
        err_coarse = np.abs(final(0.02) - ref).max()
        err_fine = np.abs(final(0.01) - ref).max()
        assert err_coarse / err_fine >= 12.0

    def test_frame_consistency(self):
        # a lab-frame Strang run under V(x - v t), shifted onto the moving frame, agrees to 1e-4
        grid = Grid(-80.0, 80.0, 2048)
        well = PoschlTeller(nu=1.0, delta=0.2)
        phi, v, t = math.pi / 8, -1.0, 10.0
        params = AnyonicParams(phi=phi, v=v)
        psi0 = gaussian_packet(grid, PacketSpec(center=-30.0, width=5.0, carrier=0.8))
        cfg = PropagatorConfig(dt=0.001, t_final=t, snapshot_every=10**9)
        moving = evolve(psi0, well, params, cfg).final()
        lab = lab_frame_strang(psi0, well, params, cfg)
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
        assert len(rec.norm) == len(rec.densities) == 5

    def test_config_validation(self):
        with pytest.raises(ContractError):
            PropagatorConfig(dt=-0.1)


def reference_evolve(psi0, spec, params, cfg):
    """One field through the processed Strang loop, with fresh arrays at every operation."""
    grid, dt = psi0.grid, cfg.dt
    c = dt * dt / 12.0
    rot = complex(math.cos(params.phi), -math.sin(params.phi))
    energy = rot * grid.k * grid.k - params.v * grid.k
    mult_k = np.exp(energy * (-1j * dt))
    potential = rot * np.asarray(spec(grid.x), dtype=complex)
    slope = np.fft.ifft(1j * grid.k * np.fft.fft(potential))
    half_v = np.exp((potential + (-c * rot) * (slope * slope)) * (-0.5j * dt))

    def commutator(b):  # [T, W] b
        return np.fft.ifft(energy * np.fft.fft(potential * b)) - potential * np.fft.ifft(
            energy * np.fft.fft(b)
        )

    def processed(psi, sign):  # psi +- c C(psi +- (c/2) C psi)
        return psi + commutator(psi + commutator(psi) * (sign * c / 2.0)) * (sign * c)

    psi = psi0.values
    snaps, norms = [psi], [trapz(np.abs(psi) ** 2, grid.dx)]
    psi = processed(psi, 1.0)
    n_steps = cfg.n_steps()
    for step in range(n_steps):
        psi = half_v * psi
        psi = np.fft.ifft(mult_k * np.fft.fft(psi))
        psi = half_v * psi
        if (step + 1) % cfg.snapshot_every == 0 or step + 1 == n_steps:
            snaps.append(processed(psi, -1.0))
            norms.append(trapz(np.abs(snaps[-1]) ** 2, grid.dx))
    return snaps, norms


def lab_frame_strang(psi0, spec, params, cfg):
    """The final field of plain Strang in the lab frame, under the moving V(x - v t).

    The drift leaves the Fourier multiplier, and V is evaluated at both ends of
    every step (frozen-coefficient Strang), so the field at X is the
    moving-frame field at X - v t up to O(dt^2) splitting error.
    """
    grid, dt = psi0.grid, cfg.dt
    mult_k = np.exp(-1j * params.rotation * grid.k * grid.k * dt)

    def half_v(t):
        potential = np.asarray(spec(grid.x - params.v * t), dtype=complex)
        return np.exp(-0.5j * params.rotation * potential * dt)

    psi = psi0.values
    for step in range(cfg.n_steps()):
        psi = half_v(step * dt) * psi
        psi = np.fft.ifft(mult_k * np.fft.fft(psi))
        psi = half_v((step + 1) * dt) * psi
    return psi


class TestProcessor:
    """The pieces of the processed loop: the commutator and where the processor applies."""

    def test_commutator_matches_dense_matrices(self):
        grid = Grid(-6.0, 6.0, 32)
        params = AnyonicParams(phi=math.pi / 5, v=0.7)
        energy = continuous_dispersion(grid.k, params)
        well = np.asarray(PoschlTeller(nu=1.0, delta=0.3)(grid.x), dtype=complex)
        potential = params.rotation * well
        kinetic = np.fft.ifft(energy[:, None] * np.fft.fft(np.eye(grid.n_points), axis=0), axis=0)
        dense = kinetic @ np.diag(potential) - np.diag(potential) @ kinetic  # [T, W]
        rng = np.random.default_rng(0)
        b = rng.standard_normal((2, grid.n_points)) + 1j * rng.standard_normal((2, grid.n_points))
        expected = (dense @ b.T).T
        _commutator(b, potential[None, :], energy[None, :], np.empty_like(b))
        assert np.abs(b - expected).max() < 1e-12 * np.abs(expected).max()

    def test_first_snapshot_is_psi0_itself(self):
        grid = Grid(-30.0, 30.0, 512)
        psi0 = gaussian_packet(grid, PacketSpec(center=-5.0, width=2.0, carrier=0.8))
        cfg = PropagatorConfig(dt=0.01, t_final=0.5, snapshot_every=10)
        record = evolve(psi0, PoschlTeller(nu=1.0, delta=0.2), AnyonicParams(phi=0.3, v=-1.0), cfg)
        assert np.array_equal(record.densities[0], psi0.density())
        assert record.norm[0] == psi0.norm_squared()
        assert not np.array_equal(record.densities[1], psi0.density())

    def test_final_field_does_not_depend_on_the_snapshot_stride(self):
        # P_- writes each snapshot aside; the loop carries the processed field on
        grid = Grid(-30.0, 30.0, 512)
        psi0 = gaussian_packet(grid, PacketSpec(center=-5.0, width=2.0, carrier=0.8))
        args = (psi0, PoschlTeller(delta=-0.5, v0=3.0), AnyonicParams(phi=math.pi / 8, v=-2.0))
        strided = evolve(*args, PropagatorConfig(dt=0.01, t_final=1.0, snapshot_every=7))
        bare = evolve(*args, PropagatorConfig(dt=0.01, t_final=1.0, snapshot_every=10**9))
        assert len(strided.densities) == 16 and len(bare.densities) == 2
        assert np.array_equal(strided.final().values, bare.final().values)

    def test_free_flight_is_exact_at_any_dt(self):
        # V = 0: the processor is the identity and each step the exact propagator
        grid = Grid(-60.0, 60.0, 1024)
        params = AnyonicParams(phi=math.pi / 6, v=0.5)
        psi0 = gaussian_packet(grid, PacketSpec(center=-10.0, width=4.0, carrier=1.0))
        cfg = PropagatorConfig(dt=2.0, t_final=10.0, snapshot_every=1)
        stops = strang_stops([(psi0, FREE, params)], cfg)
        assert len(stops) == 6
        for t, (psi,) in zip(np.multiply(cfg.snapshot_steps(), cfg.dt), stops):
            multiplier = np.exp(-1j * continuous_dispersion(grid.k, params) * t)
            exact = np.fft.ifft(multiplier * np.fft.fft(psi0.values))
            assert np.abs(psi - exact).max() < 1e-12
        record = evolve(psi0, FREE, params, cfg)
        assert np.array_equal(record.final().values, stops[-1][0])


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
        stops = strang_stops(fields, cfg)
        assert len(records) == 3
        for row, (record, field) in enumerate(zip(records, fields)):
            snaps, norms = reference_evolve(*field, cfg)
            assert len(stops) == len(record.densities) == len(snaps) == 5
            assert np.array_equal(record.norm, np.asarray(norms))
            for stop, density, ref in zip(stops, record.densities, snaps):
                assert np.array_equal(stop[row], ref)
                assert np.array_equal(density, np.abs(ref) ** 2)
            assert np.array_equal(record.final().values, snaps[-1])
        single = evolve(*fields[2], cfg)
        assert np.array_equal(single.final().values, records[2].final().values)

    def test_tabulated_barrier_evolves_as_the_closed_form(self):
        # the k0 barrier sampled on the config grid: W' is spectral for both,
        # so the table gets the same fourth-order step, bit for bit
        cfg = shipped_config("scatter_barrier_k0")
        point = cfg.sweep_points()[1]  # phi = pi/8
        table = Tabulated(cfg.grid, point.potential(cfg.grid.x))
        psi0 = gaussian_packet(cfg.grid, cfg.packet(point.carrier))
        prop = cfg.propagator
        run = PropagatorConfig(dt=prop.dt, t_final=2.0, snapshot_every=prop.snapshot_every)
        fields = [(psi0, point.potential, point.params), (psi0, table, point.params)]
        stops = strang_stops(fields, run)
        assert len(stops) == 3
        for closed, tabulated in stops:
            assert np.array_equal(closed, tabulated)

    def test_densities_keep_every_density_stride_th_point(self):
        grid = Grid(-30.0, 30.0, 512)
        psi0 = gaussian_packet(grid, PacketSpec(center=-5.0, width=2.0, carrier=0.8))
        fields = [(psi0, PoschlTeller(nu=1.0, delta=0.2), AnyonicParams(phi=math.pi / 8, v=-1.0))]
        cfg = PropagatorConfig(dt=0.01, t_final=0.5, snapshot_every=10)
        (full,), (strided,) = evolve_batch(fields, cfg), evolve_batch(fields, cfg, density_stride=3)
        assert np.array_equal(strided.norm, full.norm)
        assert np.array_equal(strided.final().values, full.final().values)
        assert len(strided.densities) == len(full.densities) == 6
        for every, kept in zip(full.densities, strided.densities):
            assert np.array_equal(kept, every[::3])
            assert kept.base is None  # a copy, which does not hold the whole density
        with pytest.raises(ContractError, match="density_stride"):
            evolve_batch(fields, cfg, density_stride=0)

    def test_fields_must_share_a_grid(self):
        psi_a = gaussian_packet(Grid(-20.0, 20.0, 256), PacketSpec(center=0.0, width=2.0))
        psi_b = gaussian_packet(Grid(-25.0, 25.0, 256), PacketSpec(center=0.0, width=2.0))
        params = AnyonicParams(phi=0.0, v=0.0)
        with pytest.raises(ContractError):
            evolve_batch([(psi_a, FREE, params), (psi_b, FREE, params)], PropagatorConfig())

    def test_empty_batch_is_contract_error(self):
        with pytest.raises(ContractError, match="no fields"):
            evolve_batch([], PropagatorConfig())

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


def time_errors(name: str) -> list:
    """Relative L2 distance of each shipped final field from the converged one."""
    dt = shipped_config(name).propagator.dt
    pairs = zip(shipped_records(name, dt), converged_records(name))
    return [
        float(np.linalg.norm(field.final().values - ref.final().values))
        / float(np.linalg.norm(ref.final().values))
        for field, ref in pairs
    ]


def fourier_refine(psi: WaveFunction, fine: Grid) -> np.ndarray:
    """psi's trigonometric interpolant sampled on ``fine``, the same box at twice the points.

    Each fine point lies dx/4 to one side of a coarse one, so the coarse spectrum
    takes the phase of that shift and is zero-padded; the Nyquist mode keeps its
    negative wavenumber.
    """
    n = psi.grid.n_points
    assert fine.n_points == 2 * n and (fine.x_min, fine.x_max) == (psi.grid.x_min, psi.grid.x_max)
    coarse = np.fft.fft(psi.values) * np.exp(1j * psi.grid.k * (fine.x[0] - psi.grid.x[0]))
    padded = np.zeros(2 * n, dtype=complex)
    padded[: n // 2], padded[-(n - n // 2) :] = coarse[: n // 2], coarse[n // 2 :]
    return 2.0 * np.fft.ifft(padded)


def space_errors(name: str) -> list:
    """Relative L2 distance of each shipped final field, interpolated, from the run at twice the points."""
    cfg = shipped_config(name)
    dt = cfg.propagator.dt
    pairs = zip(shipped_records(name, dt), shipped_records(name, dt, 2 * cfg.grid.n_points))
    gaps = []
    for field, ref in pairs:
        fine = ref.final()
        gap = fourier_refine(field.final(), fine.grid) - fine.values
        gaps.append(float(np.linalg.norm(gap)) / float(np.linalg.norm(fine.values)))
    return gaps


def norm_gaps(records) -> list:
    """N(t_f) / N(0) over e^{2 Im E t_f}, minus 1, for the first two amplify_breakup points.

    Both start in an eigenstate that fits the box, so N(t) = N(0) e^{2 Im E t}.
    """
    cfg = shipped_config("amplify_breakup")
    gaps = []
    for point, record in zip(cfg.sweep_points()[:2], records):
        energy = shifted_point_energy(cfg.ground_state_energy(), point.params)
        growth = math.exp(2.0 * energy.imag * cfg.propagator.t_final)
        gaps.append(record.norm[-1] / record.norm[0] / growth - 1.0)
    return gaps


# The final-field error of the field the runners wrote before, (4 psi_dt -
# psi_2dt) / 3 at dt = 0.01, against (4 psi_{dt/2} - psi_dt) / 3.
EXTRAPOLATED_ERRORS = {
    "scatter_barrier_k0": [1.82e-8, 9.69e-9],  # phi = 0, pi/8
    "scatter_barrier_k1": [4.02e-8, 9.33e-9],
    "amplify_breakup": [1.40e-7, 1.83e-7, 6.80e-8],  # 0.2, 0.8, 0.95 v_c
}


class TestTimeError:
    """The time error of each shipped evolution at its dt, against ``converged_records``."""

    @pytest.mark.parametrize(
        "name, errors",
        [
            ("scatter_barrier_k0", [6.11e-10, 5.84e-9]),  # phi = 0, pi/8
            ("scatter_barrier_k1", [1.08e-8, 6.74e-9]),
            ("amplify_breakup", [5.94e-8, 9.70e-8, 3.46e-8]),  # 0.2, 0.8, 0.95 v_c
        ],
    )
    def test_shipped_final_field_error(self, name, errors):
        measured = time_errors(name)
        assert measured == pytest.approx(errors, rel=0.01)
        assert all(e <= old for e, old in zip(measured, EXTRAPOLATED_ERRORS[name]))

    def test_free_flight_is_exact(self):
        # V = 0: the split step is the exact propagator and the processor is 1,
        # so 21 steps of 2.0 leave only rounding
        assert time_errors("null_scatter")[0] < 1e-12

    def test_bound_state_norm_against_its_eigenvalue(self):
        # At 0.8 v_c the converged field misses e^{2 Im E t} by +8.08e-7, which is
        # not time error.  What the shipped dt adds is below the 1.40e-7 and
        # 1.53e-7 the extrapolated field added (its gaps: -1.40e-7, +6.55e-7).
        dt = shipped_config("amplify_breakup").propagator.dt
        shipped = norm_gaps(shipped_records("amplify_breakup", dt))
        floor = norm_gaps(converged_records("amplify_breakup"))
        assert shipped == pytest.approx([6.82e-8, 8.71e-7], rel=0.01)
        assert abs(floor[0]) < 1e-9 and floor[1] == pytest.approx(8.08e-7, rel=0.01)
        time_error = [abs(g - f) for g, f in zip(shipped, floor)]
        assert all(e < old for e, old in zip(time_error, [1.40e-7, 1.53e-7]))


class TestSpaceError:
    """The spatial error of each shipped evolution: its final field against the run at twice the points.

    Each bound is twice the measured gap, and at least 1e-12, below which the
    gap is the round-off of the transforms rather than resolution.  The bounds
    catch half the points: at n/2 the phi = 0 scatter rows read 4.0e-10 and
    7.6e-10, and the 0.8 and 0.95 v_c rows 1.0e-9 and 1.8e-4.
    """

    @pytest.mark.parametrize(
        "name, bounds",
        [
            ("scatter_barrier_k0", [1e-12, 1.1e-12]),  # 1.99e-13 / 5.05e-13 at phi = 0 / pi/8
            ("scatter_barrier_k1", [1e-12, 4.1e-12]),  # 1.24e-13 / 2.03e-12
            # 3.36e-14 / 2.56e-10 / 4.52e-5 at 0.2 / 0.8 / 0.95 v_c
            ("amplify_breakup", [1e-12, 5.2e-10, 9.1e-5]),
            ("null_scatter", [1e-12]),  # 3.02e-15
        ],
    )
    def test_shipped_final_field_error(self, name, bounds):
        measured = space_errors(name)
        assert len(measured) == len(bounds)
        assert all(e < bound for e, bound in zip(measured, bounds))


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

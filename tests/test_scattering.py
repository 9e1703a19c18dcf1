import functools
import math
from pathlib import Path

import numpy as np
import pytest

from anyonpt import (
    AnyonicParams,
    ContractError,
    ExperimentConfig,
    Grid,
    InconclusiveError,
    NumericalError,
    PacketSpec,
    PoschlTeller,
    PropagatorConfig,
    Tabulated,
    group_velocity,
    reflected_wavenumber,
    run_packet_scattering,
    stationary_rt,
)
from anyonpt.model import trapz
from anyonpt.scattering import RT_SUBSTEP, _auto_range, gaussian_packet, report_from_final
from anyonpt.spectra import continuous_dispersion
from converged import converged_records


class TestReflectedWavenumber:
    def test_specular_at_rest(self):
        assert reflected_wavenumber(1.3, AnyonicParams(phi=0.7, v=0.0)) == -1.3

    def test_doppler_real(self):
        assert reflected_wavenumber(1.0, AnyonicParams(phi=0.0, v=-2.0)) == pytest.approx(-3.0)

    def test_complex_value(self):
        got = reflected_wavenumber(1.0, AnyonicParams(phi=math.pi / 8, v=-2.0))
        expected = -1.0 - 2.0 * math.cos(math.pi / 8) - 2.0j * math.sin(math.pi / 8)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_elastic_identity_random(self, rng):
        # 100 random triples: E(k_r) = E(k) to 1e-12 and Im k_r = v sin phi exactly
        for _ in range(100):
            k = rng.uniform(-5, 5)
            phi = rng.uniform(0, math.pi / 2)
            v = rng.uniform(-4, 4)
            p = AnyonicParams(phi=phi, v=v)
            kr = reflected_wavenumber(k, p)
            scale = max(1.0, abs(k) ** 2, v**2)
            e_in = continuous_dispersion(k, p)
            rot = complex(math.cos(phi), -math.sin(phi))
            e_out = rot * kr * kr - kr * v  # dispersion continued to complex k
            assert abs(e_out - e_in) < 1e-12 * scale
            assert kr.imag == v * math.sin(phi)


class TestGroupVelocity:
    def test_backward_drift(self):
        assert group_velocity(0.0, AnyonicParams(phi=0.3, v=-2.0)) == pytest.approx(2.0)

    def test_anti_pt_stalls(self):
        assert group_velocity(1.7, AnyonicParams(phi=math.pi / 2, v=0.0)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_drifting_value(self):
        got = group_velocity(1.0, AnyonicParams(phi=math.pi / 8, v=-2.0))
        assert got == pytest.approx(2.0 * math.cos(math.pi / 8) + 2.0, rel=1e-14)


class TestStationaryRT:
    def test_free_passthrough(self):
        r, t = stationary_rt(PoschlTeller(v0=0.0), AnyonicParams(phi=0.0, v=0.0), 1.0)
        assert abs(r) < 1e-8
        assert abs(t - 1.0) < 1e-8

    @pytest.mark.parametrize("k", [0.3, 1.0, 2.5])
    def test_integer_nu_reflectionless(self, k):
        r, t = stationary_rt(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0, v=0.0), k)
        assert abs(r) < 1e-8

    def test_hermitian_unitarity_sweep(self):
        spec = PoschlTeller(nu=1.6)
        p = AnyonicParams(phi=0.0, v=0.0)
        r, t = stationary_rt(spec, p, np.linspace(0.2, 3.0, 8))
        assert np.all(np.abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0) < 1e-6)

    def test_evanescent_reflection_channel(self):
        barrier = PoschlTeller(delta=-0.5, v0=3.0)
        p = AnyonicParams(phi=math.pi / 8, v=-2.0)
        kr = reflected_wavenumber(0.5, p)
        assert abs(kr.imag) > 1e-3
        r, t = stationary_rt(barrier, p, 0.5)
        # finite amplitudes on the evanescent basis; the channel carries no flux
        assert np.isfinite(abs(r)) and np.isfinite(abs(t))
        assert abs(r) > 0

    def test_wrong_direction_rejected(self):
        with pytest.raises(ContractError):
            stationary_rt(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0, v=2.0), 0.5)

    def test_degenerate_basis_rejected(self):
        p = AnyonicParams(phi=0.0, v=2.0)
        k = 1.0 + 2.5e-7  # v_g > 0 but k_r within 1e-6 of k
        with pytest.raises(NumericalError):
            stationary_rt(PoschlTeller(nu=1.0), p, k)

    def test_nondecaying_tail_rejected(self):
        grid = Grid(-30.0, 30.0, 600)
        flat = Tabulated(grid, np.full(grid.n_points, 0.5 + 0.0j))
        with pytest.raises(ContractError):
            stationary_rt(flat, AnyonicParams(phi=0.0, v=0.0), 1.0)


def scalar_rt(spec, params, k):
    """One k at a time: RK4 from +L0 to -L0 at RT_SUBSTEP, then the two-mode split."""
    l0 = _auto_range(spec)
    kr = reflected_wavenumber(k, params)
    eip = complex(math.cos(params.phi), math.sin(params.phi))
    drift = 1j * params.v * eip
    n_steps = int(math.ceil(2.0 * l0 / RT_SUBSTEP))
    h = -2.0 * l0 / n_steps
    xs = l0 + np.arange(2 * n_steps + 1) * (h / 2.0)
    coeff = spec(xs) - eip * continuous_dispersion(k, params)
    u = complex(np.exp(1j * k * l0))
    up = 1j * k * u
    for i in range(n_steps):
        c0, cm, c1 = coeff[2 * i], coeff[2 * i + 1], coeff[2 * i + 2]
        k1u, k1p = up, c0 * u + drift * up
        k2u, k2p = up + h / 2 * k1p, cm * (u + h / 2 * k1u) + drift * (up + h / 2 * k1p)
        k3u, k3p = up + h / 2 * k2p, cm * (u + h / 2 * k2u) + drift * (up + h / 2 * k2p)
        k4u, k4p = up + h * k3p, c1 * (u + h * k3u) + drift * (up + h * k3p)
        u = u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        up = up + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    det = 1j * (kr - k)
    a_inc = (1j * kr * u - up) / det * np.exp(1j * k * l0)
    b_ref = (up - 1j * k * u) / det * np.exp(1j * kr * l0)
    return b_ref / a_inc, 1.0 / a_inc


class TestStationaryRTVector:
    @pytest.mark.parametrize("phi", [0.0, math.pi / 8])
    def test_matches_scalar_rk4_per_k(self, phi):
        barrier = PoschlTeller(delta=-0.5, v0=3.0)
        params = AnyonicParams(phi=phi, v=-2.0)
        ks = np.linspace(0.0, 2.0, 6)
        r, t = stationary_rt(barrier, params, ks)
        assert r.shape == t.shape == ks.shape
        for j, k in enumerate(ks):
            r_ref, t_ref = scalar_rt(barrier, params, float(k))
            assert abs(r[j] - r_ref) <= 1e-10 * abs(r_ref)
            assert abs(t[j] - t_ref) <= 1e-10 * abs(t_ref)

    def test_scalar_k_gives_scalar_shaped_arrays(self):
        r, t = stationary_rt(PoschlTeller(nu=1.6), AnyonicParams(phi=0.0, v=0.0), 1.0)
        assert r.shape == t.shape == ()
        rs, ts = stationary_rt(PoschlTeller(nu=1.6), AnyonicParams(phi=0.0, v=0.0), [0.5, 1.0])
        assert abs(rs[1] - r) <= 1e-13 * abs(r) and abs(ts[1] - t) <= 1e-13 * abs(t)

    def test_one_backward_k_rejects_the_sweep(self):
        with pytest.raises(ContractError):
            stationary_rt(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0, v=2.0), [2.0, 0.5])


class TestPacketFit:
    """A packet's support, center -+ 3 width, must lie inside the grid on both sides."""

    def test_crossing_the_left_edge_of_an_asymmetric_grid_is_refused(self):
        # at the edge x = -10 the packet is exp(-1) = 37% of its peak
        with pytest.raises(ContractError, match="must fit inside the grid"):
            gaussian_packet(Grid(-10.0, 100.0, 1100), PacketSpec(center=-9.0, width=1.0))

    def test_fitting_inside_an_asymmetric_grid_is_accepted(self):
        psi = gaussian_packet(Grid(-100.0, 10.0, 1100), PacketSpec(center=-50.0, width=1.0))
        assert psi.norm() == pytest.approx(1.0)
        assert np.abs(psi.values[[0, -1]]).max() < 1e-300


class TestPacketRuns:
    def test_free_packet_fully_transmitted(self):
        grid = Grid(-120.0, 120.0, 3072)
        [(_, report)] = run_packet_scattering(
            [
                (
                    PoschlTeller(v0=0.0),
                    AnyonicParams(phi=0.0, v=0.0),
                    PacketSpec(center=-32.0, width=10.0, carrier=1.0),
                )
            ],
            PropagatorConfig(dt=0.005, t_final=42.0, snapshot_every=10**9),
            grid,
        )
        assert report.transmitted_power_fraction > 0.999
        assert not report.reflected_is_evanescent

    def test_packet_matches_stationary_reflectance(self):
        # Hermitian drifting barrier: narrowband packet fraction ~ |r(k)|^2.
        # Strong-reflection carrier so the split centroid can clear 5 widths.
        # The fraction misses |r|^2 by -1.504e-2 relative, the packet's
        # spread in k, at 4096 points and dt = 0.0125 as at 8192 and 0.005.
        barrier = PoschlTeller(delta=0.0, v0=3.0)
        params = AnyonicParams(phi=0.0, v=-2.0)
        k = 0.3
        r, t = stationary_rt(barrier, params, k)
        grid = Grid(-160.0, 160.0, 4096)
        [(_, report)] = run_packet_scattering(
            [(barrier, params, PacketSpec(center=-40.0, width=10.0, carrier=k))],
            PropagatorConfig(dt=0.0125, t_final=44.0, snapshot_every=10**9),
            grid,
        )
        assert report.reflected_power_fraction == pytest.approx(abs(r) ** 2, rel=0.10)

    def test_inconclusive_when_measured_early(self):
        grid = Grid(-120.0, 120.0, 2048)
        with pytest.raises(InconclusiveError):
            run_packet_scattering(
                [
                    (
                        PoschlTeller(v0=0.0),
                        AnyonicParams(phi=0.0, v=0.0),
                        PacketSpec(center=-32.0, width=10.0, carrier=1.0),
                    )
                ],
                PropagatorConfig(dt=0.005, t_final=5.0, snapshot_every=10**9),
                grid,
            )

    def test_wrong_direction_rejected(self):
        grid = Grid(-120.0, 120.0, 2048)
        with pytest.raises(ContractError):
            run_packet_scattering(
                [
                    (
                        PoschlTeller(v0=0.0),
                        AnyonicParams(phi=0.0, v=0.0),
                        PacketSpec(center=32.0, width=10.0, carrier=1.0),  # moving away
                    )
                ],
                PropagatorConfig(dt=0.005, t_final=5.0),
                grid,
            )

    @pytest.mark.parametrize(
        "cfg, n_snapshots",
        [
            (PropagatorConfig(dt=0.05, t_final=50.0, snapshot_every=25), 41),
            (PropagatorConfig(dt=0.05, t_final=50.05, snapshot_every=10**9), 2),  # 1001 steps
        ],
        ids=["snapshot_every-odd", "step-count-odd"],
    )
    def test_odd_counts_run(self, cfg, n_snapshots):
        case = (PoschlTeller(v0=0.0), AnyonicParams(phi=0.0, v=0.0), PacketSpec(-32.0, 10.0, 1.0))
        ((record, report),) = run_packet_scattering([case], cfg, Grid(-120.0, 120.0, 2048))
        assert len(record.times) == len(record.densities) == n_snapshots
        assert record.times[-1] == pytest.approx(cfg.t_final)
        assert report.transmitted_power_fraction > 0.999

    def test_report_sides_follow_incidence(self):
        # synthetic final state: all mass on the far side of the separatrix
        grid = Grid(-60.0, 60.0, 1024)
        packet = PacketSpec(center=-30.0, width=4.0, carrier=1.0)
        final = gaussian_packet(grid, PacketSpec(center=40.0, width=4.0, carrier=1.0))
        report = report_from_final(final, packet, AnyonicParams(phi=0.0, v=0.0))
        assert report.transmitted_power_fraction > 0.999999
        assert report.reflected_power_fraction < 1e-6

    def test_packet_validation(self):
        with pytest.raises(ContractError):
            PacketSpec(center=0.0, width=-1.0)
        grid = Grid(-20.0, 20.0, 256)
        with pytest.raises(ContractError):
            gaussian_packet(grid, PacketSpec(center=-15.0, width=3.0))

    def test_no_cases_is_contract_error(self):
        with pytest.raises(ContractError, match="no fields"):
            run_packet_scattering([], PropagatorConfig(), Grid(-10.0, 10.0, 64))


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def stationary_oracle(spec, params, packet, t_final):
    """N(t_final) / N(0) of a scattered Gaussian packet, and its reflected fraction, from stationary_rt.

    Once the waves have left the barrier, the packet is int A(k) u_k(x)
    e^{-i E(k) t} dk over the scattering states u_k of stationary_rt, with
    |A(k)|^2 ~ exp(-w^2 (k - k0)^2 / 2).  At phi = 0 both channels keep their
    power, |t|^2 + |r|^2, since k_r is real with |dk_r / dk| = 1.  At phi > 0
    the reflected channel is evanescent and carries nothing away, and the
    transmitted one decays as e^{2 Im E t} = e^{-2 sin(phi) k^2 t}.  The
    trapezoid rule sums 321 k on k0 -+ 0.8.  The reflected fraction,
    int |A r|^2 / int |A|^2 (|r|^2 + |t|^2), is None at phi > 0.
    """
    k = np.linspace(packet.carrier - 0.8, packet.carrier + 0.8, 321)
    dk = k[1] - k[0]
    r, t = stationary_rt(spec, params, k)
    weight = np.exp(-(packet.width**2) * (k - packet.carrier) ** 2 / 2.0)
    kept = np.abs(t) ** 2 * np.exp(-2.0 * math.sin(params.phi) * k**2 * t_final)
    if params.phi != 0.0:
        return trapz(weight * kept, dk) / trapz(weight, dk), None
    kept = kept + np.abs(r) ** 2
    reflected = trapz(weight * np.abs(r) ** 2, dk) / trapz(weight * kept, dk)
    return trapz(weight * kept, dk) / trapz(weight, dk), reflected


# Two rows off the shipped configs, with delta and v inside perfbench's
# scatter-barrier draws, (-0.6, -0.4) and (-2.1, -2.0), and another carrier.
# They run on the shipped scatter box and its 4096 points.
OFF_CONFIG = [
    (PoschlTeller(delta=-0.45, v0=3.0), AnyonicParams(phi=0.0, v=-2.05), PacketSpec(-32.0, 10.0, 0.5)),
    (PoschlTeller(delta=-0.55, v0=3.0), AnyonicParams(phi=math.pi / 8, v=-2.08), PacketSpec(-32.0, 10.0, 0.5)),
]


@functools.cache
def packet_runs(source: str) -> list:
    """One (case, t_final, record, report) per row of a shipped scatter config or OFF_CONFIG."""
    if source == "off-config":
        cases, grid = OFF_CONFIG, Grid(-160.0, 160.0, 4096)
        prop = PropagatorConfig(dt=0.0125, t_final=32.0, snapshot_every=10**9)
    else:
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / f"{source}.yaml")
        cases = [(p.potential, p.params, cfg.packet(p.carrier)) for p in cfg.sweep_points()]
        grid, prop = cfg.grid, cfg.propagator
    runs = run_packet_scattering(cases, prop, grid)
    return [(case, prop.t_final, *run) for case, run in zip(cases, runs)]


# The gap of the converged scatter_barrier_k0, phi = 0 field's reflected
# fraction from the oracle's.  A field without time error misses the oracle by
# this much, so that row's bound gates the distance from it.
K0_REFLECTED_FLOOR = -7.01e-11


class TestStationaryOracle:
    """Each packet run's final norm and phi = 0 reflected fraction against stationary_rt.

    Each comment gives the gap at the shipped dt = 0.0125 and the floor: the
    gap of the converged field (``converged_records``, or OFF_CONFIG at dt / 4),
    which is the oracle's own error.  Every row runs on 4096 points.  On the
    8192 they ran before, the OFF_CONFIG gaps and floors read the same to four
    digits, and the scatter configs' to three but the k0 reflected gap and
    floor, -8.925e-11 and -7.005e-11 against -8.919e-11 and -7.000e-11 now.  The floors follow the time left
    after the packet reaches the barrier, as the oracle assumes every component
    has scattered by t_final, which the slow tail of the packet's k-distribution
    has not.  Each bound is the one set at twice the gap of the field at
    dt = 0.01 that the runners once wrote.  The bounds gate the gap itself,
    except on the k0, phi = 0 reflected row: there the floor, -7.0e-11, lies
    beyond the 5e-11 bound, so that bound gates the gap minus the floor, the
    program's own time error.  At the old Strang step 0.005 the first three
    rows missed by 3.8e-7, 1.6e-5 and 2.2e-6 in the norm, and 5.3e-8 and
    3.4e-7 in the reflected fraction.  On the k1, phi = pi/8 row the oracle
    itself is off: its final norm is damped to 4.8e-8, and the packet's
    3.6e-5 amplitude at the barrier at t = 0 lies outside the incoming-wave
    picture.
    """

    @pytest.mark.parametrize(
        "source, row, norm_bound, reflected_bound, reflected_floor",
        [
            # gaps -1.02e-8 and -8.92e-11; floors -1.00e-8 and -7.00e-11
            ("scatter_barrier_k0", 0, 2e-8, 5e-11, K0_REFLECTED_FLOOR),
            ("scatter_barrier_k0", 1, 9e-7, None, None),  # +4.17e-7; floor +4.21e-7
            # gaps +3.66e-8 and +5.01e-9; floors +2.59e-8 and +3.43e-9
            ("scatter_barrier_k1", 0, 6e-8, 7e-9, None),
            ("scatter_barrier_k1", 1, 4e-5, None, None),  # +1.68e-5; floor +1.68e-5
            # gaps +1.099e-8 and +2.408e-10; floors +1.036e-8 and +1.893e-10
            ("off-config", 0, 4e-8, 7e-10, None),
            ("off-config", 1, 5e-7, None, None),  # -2.551e-7; floor -2.474e-7
        ],
    )
    def test_packet_matches_the_oracle(self, source, row, norm_bound, reflected_bound, reflected_floor):
        (spec, params, packet), t_final, record, report = packet_runs(source)[row]
        norm, reflected = stationary_oracle(spec, params, packet, t_final)
        assert abs(record.norm[-1] / record.norm[0] / norm - 1.0) < norm_bound
        assert (reflected is None) == (reflected_bound is None)
        if reflected is not None:
            floor = reflected_floor or 0.0
            assert abs(report.reflected_power_fraction - reflected - floor) < reflected_bound

    def test_k0_reflected_floor_is_the_converged_gap(self):
        (spec, params, packet), t_final, _, _ = packet_runs("scatter_barrier_k0")[0]
        converged = converged_records("scatter_barrier_k0")[0].final()
        _, reflected = stationary_oracle(spec, params, packet, t_final)
        gap = report_from_final(converged, packet, params).reflected_power_fraction - reflected
        assert gap == pytest.approx(K0_REFLECTED_FLOOR, rel=0.01)

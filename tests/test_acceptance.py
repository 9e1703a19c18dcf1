"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each criterion is also a separate test so -v alone shows the verdicts.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from anyonpt import (
    AnyonicParams,
    ExperimentConfig,
    Grid,
    PacketSpec,
    PoschlTeller,
    analytic_bound_state_pt,
    build_h_eff,
    continuous_dispersion,
    critical_velocity,
    evolve_batch,
    g_infinity_poschl_teller,
    g_t,
    gauge_transform_check,
    gaussian_packet,
    map_to_anyonic,
    moving_bound_state,
    reflected_wavenumber,
    run_packet_scattering,
    point_states,
    shifted_point_energy,
    solve_spectrum,
)
from anyonpt.nonnormal import g_infinity_forms

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
PHI3 = math.pi / 3
VC3 = critical_velocity(-1.0, PHI3)


def report(n: int, text: str):
    print(f"\nACCEPTANCE {n:2d} PASS - {text}")


def test_criterion_01_poschl_teller_point_spectrum():
    grid = Grid(-40.0, 40.0, 2000)  # dx = 0.04
    h = build_h_eff(PoschlTeller(nu=1.0, delta=0.0), AnyonicParams(phi=0.0, v=0.0), grid)
    res = solve_spectrum(h)
    err = abs(res.eigenvalues[res.nearest(-1.0)] + 1.0)
    assert err < 1e-3
    assert res.point_count == 1
    report(1, f"one bound eigenvalue at E = -1 (|error| = {err:.2e} < 1e-3)")


def test_criterion_02_spectrum_rotation():
    grid = Grid(-40.0, 40.0, 800)
    well = PoschlTeller(nu=1.0, delta=0.2)
    w0 = np.linalg.eigvals(build_h_eff(well, AnyonicParams(phi=0.0), grid).dense())
    w1 = np.linalg.eigvals(build_h_eff(well, AnyonicParams(phi=PHI3), grid).dense())
    rotated = w1 * complex(math.cos(PHI3), math.sin(PHI3))
    dist = np.abs(rotated[:, None] - w0[None, :])
    hausdorff = max(dist.min(axis=0).max(), dist.min(axis=1).max())
    assert hausdorff < 1e-8
    report(2, f"phi = pi/3 spectrum is the rotated phi = 0 spectrum (max dev {hausdorff:.2e})")


def test_criterion_03_coalescence_identity():
    params = AnyonicParams(phi=PHI3, v=4.0 / math.sqrt(3.0))
    lhs = shifted_point_energy(-1.0, params)
    rhs = continuous_dispersion(1.0 / math.sqrt(3.0), params)
    assert abs(lhs - rhs) < 1e-12
    report(3, f"shifted bound energy meets the band at k_c (|diff| = {abs(lhs - rhs):.2e})")


def test_criterion_04_delocalization_transition():
    well = PoschlTeller(nu=1.0, delta=0.2)

    def solve(v_frac, half, n):
        params = AnyonicParams(phi=PHI3, v=v_frac * VC3)
        grid = Grid(-half, half, n)
        target = shifted_point_energy(-1.0, params)
        res = point_states(build_h_eff(well, params, grid, boundary="periodic"), [target])
        loc = math.inf
        pts = res.point_indices()
        if len(pts):
            best = pts[np.argmin(np.abs(res.eigenvalues[pts] - target))]
            loc = float(res.localization_length[best])
        return res.point_count, loc

    count_half, loc_half = solve(0.5, 40.0, 1280)
    count_near, loc_near = solve(0.9, 80.0, 2560)  # near-threshold box doubling
    count_above, _ = solve(1.1, 80.0, 2560)
    assert count_half == 1 and count_near == 1 and count_above == 0
    assert loc_near >= 3.0 * loc_half
    report(
        4,
        f"point count 1 -> 1 -> 0 across v_c; localization {loc_half:.2f} -> {loc_near:.2f} "
        f"(ratio {loc_near / loc_half:.1f} >= 3)",
    )


def test_criterion_05_galilean_invariance_control():
    grid = Grid(-16.0 * math.pi, 16.0 * math.pi, 2048)
    psi0 = gaussian_packet(grid, PacketSpec(center=-10.0, width=3.0, carrier=0.7))
    worst = 0.0
    for v in (1.0, 2.0):
        for delta in (0.0, 0.2):
            disc = gauge_transform_check(
                PoschlTeller(nu=1.0, delta=delta), AnyonicParams(phi=0.0, v=v), psi0, t=10.0
            )
            worst = max(worst, disc)
    assert worst < 1e-6
    report(5, f"gauge-boosted and drifting evolutions agree at phi = 0 (max dev {worst:.2e})")


def test_criterion_06_non_hermitian_transparency():
    fractions = {}
    for name in ("scatter_barrier_k0.yaml", "scatter_barrier_k1.yaml"):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / name)
        points = cfg.sweep_points()
        cases = [
            (cfg.potential(p.delta), p.params, cfg.packet(p.carrier))
            for p in points
        ]
        results = run_packet_scattering(cases, cfg.propagator, cfg.grid, cfg.separatrix)
        for point, (_, rep) in zip(points, results):
            fractions[(round(point.params.phi, 6), point.carrier)] = rep.reflected_power_fraction
    phi8 = round(math.pi / 8, 6)
    assert fractions[(0.0, 0.0)] > 0.5
    assert fractions[(phi8, 0.0)] < 0.01
    assert fractions[(phi8, 1.0)] < 0.01
    report(
        6,
        "barrier reflects {:.1%} at phi = 0 and < 1% at phi = pi/8 ({:.2e}, {:.2e})".format(
            fractions[(0.0, 0.0)], fractions[(phi8, 0.0)], fractions[(phi8, 1.0)]
        ),
    )


def test_criterion_07_evanescence_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = rng.uniform(-5, 5)
        phi = rng.uniform(0, math.pi / 2)
        v = rng.uniform(-4, 4)
        kr = reflected_wavenumber(k, AnyonicParams(phi=phi, v=v))
        assert kr.imag == v * math.sin(phi)
    report(7, "Im k_r = v sin(phi) exactly for 100 random (k, phi, v) triples")


def test_criterion_08_petermann_factor():
    # exact unity in the normal limit
    g0 = g_infinity_poschl_teller(0.0, AnyonicParams(phi=0.0, v=0.0))
    assert abs(g0 - 1.0) < 1e-10

    # the two algebraic forms across a 5 x 5 x 5 grid with positive margin
    deltas = (0.0, 0.1, 0.2, math.pi / 4, 0.4 * math.pi)
    phis = (math.pi / 12, math.pi / 6, math.pi / 4, PHI3, 0.45 * math.pi)
    fracs = (0.0, 0.3, 0.6, 0.8, 0.9)
    worst = 0.0
    for delta in deltas:
        for phi in phis:
            for f in fracs:
                params = AnyonicParams(phi=phi, v=f * critical_velocity(-1.0, phi))
                a, b = g_infinity_forms(delta, params)
                worst = max(worst, abs(a - b) / max(a, b))
    assert worst < 1e-8

    # quoted gain values at 0.2, 0.8, 0.95 of critical drift (delta = 0.2)
    quoted = {0.2: 1.2, 0.8: 19.0, 0.95: 366.0}
    got = {}
    for f, target in quoted.items():
        g = g_infinity_poschl_teller(0.2, AnyonicParams(phi=PHI3, v=f * VC3))
        got[f] = g
        assert g == pytest.approx(target, rel=0.15)
    report(
        8,
        "gain = 1 in the normal limit; forms agree to {:.1e}; values {:.3g}/{:.3g}/{:.3g} "
        "match 1.2/19/366 within 15%".format(worst, got[0.2], got[0.8], got[0.95]),
    )


def test_criterion_09_normal_operator_bound():
    grid = Grid(-40.0, 40.0, 1024)
    h = build_h_eff(PoschlTeller(nu=1.0, delta=0.0), AnyonicParams(phi=0.0, v=0.0), grid)
    res = solve_spectrum(h)
    e1 = res.eigenvalues[res.nearest(-1.0)]
    worst = max(g_t(h, e1, (0.5, 1.0, 2.0, 5.0)))
    assert worst <= 1.0 + 1e-6
    report(9, f"Hermitian G_t stays <= 1 + 1e-6 at dimension 1024 (max {worst:.12f})")


def test_criterion_10_bound_state_breakup():
    # the fields run_amplify writes: one batch through the processed Strang loop
    cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "amplify_breakup.yaml")
    grid = cfg.grid
    e1 = cfg.ground_state_energy()
    fracs, fields = [], []
    for frac, point in zip(cfg.v_over_vc, cfg.sweep_points()):  # v/v_c is the only list axis
        if frac in (0.2, 0.95):
            u1 = analytic_bound_state_pt(grid, point.delta, point.potential.well_nu)
            fracs.append(frac)
            fields.append((moving_bound_state(u1, e1, point.params), point.potential, point.params))
    outcomes = {}
    for frac, record in zip(fracs, evolve_batch(fields, cfg.propagator)):
        peaks = [grid.x[int(np.argmax(density))] for density in record.densities]
        disp = [abs(x - peaks[0]) for x in peaks]
        peak_pos = [abs(x) for x in peaks]
        outcomes[frac] = (max(disp), max(peak_pos))
    assert outcomes[0.2][0] < 0.5  # survives
    assert outcomes[0.95][1] > 5.0  # destroyed: peak leaves |x| < 5
    report(
        10,
        "bound state survives at 0.2 v_c (max displacement {:.2f}) and is destroyed at "
        "0.95 v_c (peak reaches |x| = {:.0f})".format(outcomes[0.2][0], outcomes[0.95][1]),
    )


def test_criterion_11_laser_map():
    from anyonpt import CavityParams

    mapping = map_to_anyonic(
        CavityParams(D=1.0, Dg=1.0, delta1=0.3, delta2=0.3, g=0.05, l=0.05, Tm=1.0, TR=1.0)
    )
    assert mapping.params.phi == pytest.approx(math.pi / 4, rel=1e-14)
    assert mapping.params.v == 0.0
    assert mapping.gain_balanced and mapping.modulators_tuned
    report(11, "matched cavity maps to phi = pi/4, v = 0 with both validity flags set")

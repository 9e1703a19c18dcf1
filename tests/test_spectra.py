import cmath
import csv
import dataclasses
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import yaml
from conftest import dense_spectrum
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonpt import (
    AnyonicParams,
    ContractError,
    DomainError,
    ExperimentConfig,
    Grid,
    HamiltonianMatrix,
    NumericalError,
    PoschlTeller,
    Tabulated,
    analytic_bound_state_pt,
    build_h_eff,
    continuous_dispersion,
    critical_velocity,
    delocalization_margin,
    fit_localization_length,
    moving_bound_state,
    point_states,
    poschl_teller_energies,
    shifted_point_energy,
    solve_spectrum,
)
from anyonpt import model, spectra
from anyonpt.spectra import PR_BOX_FRACTION, ROOT_SCREEN_FRACTION, _root_lengths

VC3 = critical_velocity(-1.0, math.pi / 3)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# The six drifts of test_verdicts_match_dense, as (nu, v, grid).
VERDICT_CASES = [
    (1.0, 0.5 * VC3, Grid(-40.0, 40.0, 1280)),
    (1.0, 0.9 * VC3, Grid(-40.0, 40.0, 1280)),
    (1.0, 1.1 * VC3, Grid(-40.0, 40.0, 1280)),
    (2.0, 1.15, Grid(-20.0, 20.0, 640)),
    (2.0, 3.46, Grid(-20.0, 20.0, 640)),
    (2.0, 5.54, Grid(-20.0, 20.0, 640)),
]
VERDICT_IDS = ["0.5vc", "0.9vc", "1.1vc", "nu2-v1.15", "nu2-v3.46", "nu2-v5.54"]


def _verdict_operator(nu, v, grid):
    params = AnyonicParams(phi=math.pi / 3, v=v)
    h = build_h_eff(PoschlTeller(nu=nu, delta=0.2), params, grid, "periodic")
    return h, params


def _free_periodic():
    grid = Grid(-20.0, 20.0, 256)
    return build_h_eff(PoschlTeller(v0=0.0), AnyonicParams(phi=0.3), grid, "periodic")


def _dirichlet_drift():
    # 0.2 v_c in a Dirichlet box: every band state piles up against a wall
    grid = Grid(-30.0, 30.0, 600)
    params = AnyonicParams(phi=math.pi / 3, v=0.2 * VC3)
    return build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, grid, "dirichlet")


def _hausdorff(a, b):
    """The Hausdorff distance between two sets of eigenvalues."""
    dist = np.abs(a[:, None] - b[None, :])
    return max(dist.min(axis=0).max(), dist.min(axis=1).max())


def _well(phi, v=0.0, delta=0.2, grid=Grid(-20.0, 20.0, 400), boundary="periodic", nu=1.0):
    params = AnyonicParams(phi=phi, v=v)
    return build_h_eff(PoschlTeller(nu=nu, delta=delta), params, grid, boundary)


def _pt_broken():
    # a PT-symmetric well, but for 1e-10 added to its first sample
    grid = Grid(-20.0, 20.0, 400)
    values = PoschlTeller(nu=1.0, delta=0.2)(grid.x)
    values[0] += 1e-10
    return build_h_eff(Tabulated(grid, values), AnyonicParams(phi=math.pi / 3), grid, "periodic")


OFF_CENTRE = Grid(-19.0, 21.0, 400)
# dx = 0.1 and edges 24 from the well: the twin's exponents are 43.1 and 44.9 at delta = 0.2
TWIN_GRID = Grid(-24.0, 24.0, 480)
# (id, operator as run_spectrum builds it, the eigensolve solve_spectrum picks): the
# delta = 0 twin's banded solve at rest and at phi = 0 under drift; the real form
# where the twin's aliasing exponent is below TWIN_MIN_EXPONENT (delta = 0.4: 36.8);
# the banded solve of a Hermitian well on open, off-centre and odd-n periodic grids;
# the root iteration under drift (at odd n the sign of its corner term hangs on a
# square root's branch); and the complex dense solve when a 1e-10 defect or an
# off-centre grid breaks PT symmetry, where two roots nearly coincide and the root
# iteration falls back
SOLVER_CASES = [
    ("periodic-rest", lambda: _well(math.pi / 3, grid=TWIN_GRID), "hermitian-twin"),
    ("periodic-phi0-drift", lambda: _well(0.0, v=0.5 * VC3, grid=TWIN_GRID),
     "hermitian-twin"),
    ("periodic-rest-below-twin-threshold",
     lambda: _well(math.pi / 3, delta=0.4, grid=TWIN_GRID), "real-general"),
    ("dirichlet-hermitian", lambda: _well(math.pi / 3, delta=0.0, boundary="dirichlet"),
     "real-symmetric"),
    ("off-centre-hermitian", lambda: _well(math.pi / 3, delta=0.0, grid=OFF_CENTRE),
     "real-symmetric"),
    ("hermitian-ring-odd-n",
     lambda: _well(0.0, v=0.5 * VC3, delta=0.0, grid=Grid(-20.0, 20.0, 401)),
     "complex-hermitian"),
    ("drift-phi-pi/3", lambda: _well(math.pi / 3, v=0.5 * VC3), "complex-aberth"),
    ("drift-odd-n", lambda: _well(math.pi / 3, v=0.5 * VC3, grid=Grid(-20.0, 20.0, 401)),
     "complex-aberth"),
    ("pt-broken-1e-10", _pt_broken, "complex-general"),
    ("off-centre-grid", lambda: _well(0.0, grid=OFF_CENTRE), "complex-general"),
]
SOLVER_PARAMS = [pytest.param(make_h, solver, id=name) for name, make_h, solver in SOLVER_CASES]


def _shipped_point(index=0, name="spectrum_drift_sweep"):
    # a shipped spectrum config's operator at one sweep point, as the runner builds it:
    # spectrum_drift_sweep.yaml's are at 0 (at rest), 0.5 and 0.9 v_c
    cfg = ExperimentConfig.from_yaml(CONFIG_DIR / f"{name}.yaml")
    p = cfg.sweep_points()[index]
    return build_h_eff(p.potential, p.params, p.grid, cfg.boundary)


def _shipped_spectrum_operators():
    """One param per sweep point of each shipped spectrum config, as the runner builds
    its operator, plus a free periodic band, a Dirichlet box under drift and the
    SOLVER_CASES."""
    for name in ("spectrum_drift_sweep", "regression_spectrum", "null_spectrum"):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / f"{name}.yaml")
        for p in cfg.sweep_points():
            yield pytest.param(
                lambda p=p, b=cfg.boundary: build_h_eff(p.potential, p.params, p.grid, b),
                id=f"{name}-{p.index}",
            )
    yield pytest.param(_free_periodic, id="free-periodic")
    yield pytest.param(_dirichlet_drift, id="dirichlet-drift")
    for name, make_h, _ in SOLVER_CASES:
        yield pytest.param(make_h, id=name)


class TestDispersion:
    def test_zero_k(self):
        assert continuous_dispersion(0.0, AnyonicParams(phi=1.0, v=3.0)) == 0.0

    def test_hermitian_parabola(self):
        assert continuous_dispersion(2.0, AnyonicParams(phi=0.0, v=1.0)) == pytest.approx(2.0)

    def test_rotated_value(self):
        got = continuous_dispersion(1.0, AnyonicParams(phi=math.pi / 3, v=1.0))
        assert got == pytest.approx(-0.5 - 0.8660254037844386j, abs=1e-12)

    def test_curve_sampling(self):
        p = AnyonicParams(phi=0.4, v=0.5)
        k = np.linspace(-3.0, 3.0, 301)
        energy = continuous_dispersion(k, p)
        assert energy.shape == (301,)
        assert np.allclose(energy, [continuous_dispersion(float(q), p) for q in k])


class TestBoundFamily:
    def test_single_state(self):
        assert poschl_teller_energies(1.0) == (-1.0,)

    def test_fractional_nu(self):
        assert poschl_teller_energies(2.5) == pytest.approx((-6.25, -2.25, -0.25))

    def test_integer_nu_drops_zero_mode(self):
        assert poschl_teller_energies(2.0) == pytest.approx((-4.0, -1.0))

    def test_against_finite_difference_solve(self):
        # independent oracle: eigensolve of the stationary nu = 2.5 well
        grid = Grid(-30.0, 30.0, 1200)
        h = build_h_eff(PoschlTeller(nu=2.5), AnyonicParams(phi=0.0), grid)
        res = solve_spectrum(h)
        negative = np.sort(res.eigenvalues.real[res.eigenvalues.real < -0.05])
        assert len(negative) == 3
        assert np.abs(negative - np.array([-6.25, -2.25, -0.25])).max() < 2e-3

    def test_requires_positive_nu(self):
        with pytest.raises(DomainError):
            poschl_teller_energies(0.0)


class TestShiftsAndThresholds:
    def test_identity_at_rest(self):
        assert shifted_point_energy(-1.0, AnyonicParams(phi=0.0, v=0.0)) == -1.0

    def test_pure_rotation(self):
        got = shifted_point_energy(-1.0, AnyonicParams(phi=math.pi / 3, v=0.0))
        assert got == pytest.approx(-cmath.exp(-1j * math.pi / 3), abs=1e-14)

    def test_coalescence_with_band(self):
        phi = math.pi / 3
        vc = critical_velocity(-1.0, phi)
        assert vc == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-14)
        kc = vc * math.cos(phi) / 2.0  # sqrt(-E)/tan(phi), where the band meets E
        assert kc == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
        p = AnyonicParams(phi=phi, v=vc)
        assert abs(shifted_point_energy(-1.0, p) - continuous_dispersion(kc, p)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(e=st.floats(-9.0, -0.05), phi=st.floats(0.05, math.pi / 2))
    def test_coalescence_property(self, e, phi):
        vc = critical_velocity(e, phi)
        kc = vc * math.cos(phi) / 2.0
        p = AnyonicParams(phi=phi, v=vc)
        scale = max(1.0, abs(e), vc**2)
        assert abs(shifted_point_energy(e, p) - continuous_dispersion(kc, p)) < 1e-12 * scale

    def test_critical_velocity_values(self):
        assert critical_velocity(-1.0, math.pi / 2) == pytest.approx(2.0)
        assert critical_velocity(-4.0, math.pi / 2) == pytest.approx(4.0)
        assert critical_velocity(-1.0, 0.0) == math.inf
        with pytest.raises(DomainError):
            critical_velocity(1.0, 0.3)

    def test_critical_velocity_monotone_in_phi(self):
        phis = np.linspace(0.1, math.pi / 2, 30)
        vals = [critical_velocity(-1.0, p) for p in phis]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMovingBoundState:
    def test_rest_is_identity(self):
        grid = Grid(-30.0, 30.0, 600)
        u = analytic_bound_state_pt(grid, 0.2)
        dressed = moving_bound_state(u, -1.0, AnyonicParams(phi=0.5, v=0.0))
        assert np.allclose(dressed.values, u.values)

    def test_none_above_threshold(self):
        grid = Grid(-30.0, 30.0, 600)
        u = analytic_bound_state_pt(grid, 0.2)
        phi = math.pi / 3
        vc = critical_velocity(-1.0, phi)
        assert moving_bound_state(u, -1.0, AnyonicParams(phi=phi, v=1.01 * vc)) is None
        assert moving_bound_state(u, -1.0, AnyonicParams(phi=phi, v=vc)) is None

    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    def test_tail_law(self, sign):
        # slow-side outward decay rate is sqrt(|E|) - (|v|/2) sin phi; the slow
        # side is downstream of the drift (left for v > 0, right for v < 0)
        phi = math.pi / 3
        vc = critical_velocity(-1.0, phi)
        v = sign * 0.9 * vc
        grid = Grid(-60.0, 60.0, 2400)
        u = analytic_bound_state_pt(grid, 0.2)
        dressed = moving_bound_state(u, -1.0, AnyonicParams(phi=phi, v=v))
        x = grid.x
        a = np.abs(dressed.values)
        window = (sign * x <= -10.0) & (sign * x >= -25.0)
        slope = np.polyfit(x[window], np.log(a[window]), 1)[0]
        outward_rate = abs(slope)
        expected = 1.0 - 0.9
        assert outward_rate == pytest.approx(expected, rel=0.02)

    def test_fast_side_rate(self):
        phi = math.pi / 3
        vc = critical_velocity(-1.0, phi)
        v = 0.5 * vc
        grid = Grid(-60.0, 60.0, 2400)
        u = analytic_bound_state_pt(grid, 0.2)
        dressed = moving_bound_state(u, -1.0, AnyonicParams(phi=phi, v=v))
        x = grid.x
        a = np.abs(dressed.values)
        window = (x >= 10.0) & (x <= 25.0)
        slope = np.polyfit(x[window], np.log(a[window]), 1)[0]
        assert -slope == pytest.approx(1.0 + 0.5, rel=0.02)


class TestSolveSpectrum:
    def test_hermitian_well_ground_state(self):
        grid = Grid(-25.0, 25.0, 625)
        h = build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0), grid)
        res = solve_spectrum(h)
        assert res.solver == "real-symmetric"
        i = res.nearest(-1.0)
        assert abs(res.eigenvalues[i] + 1.0) < 1e-3
        assert res.classification[i] == "point"
        assert res.point_count == 1

    def test_rotated_well(self):
        grid = Grid(-25.0, 25.0, 625)
        phi = math.pi / 3
        h = build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=phi), grid)
        res = solve_spectrum(h)
        assert res.solver == "real-symmetric"  # e^{i phi} H is the real Hermitian well
        target = -cmath.exp(-1j * phi)
        assert np.abs(res.eigenvalues - target).min() < 1e-3

    def test_rotation_invariance(self):
        grid = Grid(-15.0, 15.0, 300)
        well = PoschlTeller(nu=1.0, delta=0.2)
        phi = math.pi / 3
        h0 = build_h_eff(well, AnyonicParams(phi=0.0), grid)
        h1 = build_h_eff(well, AnyonicParams(phi=phi), grid)
        w0 = np.linalg.eigvals(h0.dense())
        w1 = np.linalg.eigvals(h1.dense()) * cmath.exp(1j * phi)
        # multiset equality within tolerance (sorting is unstable for
        # conjugate pairs with machine-equal real parts)
        assert _hausdorff(w1, w0) < 1e-10

    def test_free_periodic_all_continuum(self):
        res = solve_spectrum(_free_periodic())
        assert res.point_count == 0

    def test_eigenvectors_normalized(self):
        # a whole spectrum carries its point states' vectors only; a band
        # state's vector comes from a targeted solve
        grid = Grid(-15.0, 15.0, 200)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.1), AnyonicParams(phi=0.2), grid)
        res = solve_spectrum(h)
        assert res.point_count == 1
        for i in res.point_indices():
            assert res.eigenvector(i).norm() == pytest.approx(1.0, rel=1e-10)
        assert res.classification[57] == "continuum"
        with pytest.raises(ContractError, match="57"):
            res.eigenvector(57)
        with pytest.raises(ContractError):
            res.eigenvector(len(res.eigenvalues))
        band = point_states(h, [res.eigenvalues[57]])
        assert band.classification[0] == "continuum"
        assert band.eigenvector(0).norm() == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("make_h", _shipped_spectrum_operators())
    def test_matches_dense_oracle(self, make_h):
        # the classification array is the dense participation-ratio verdict,
        # the eigenvalues those of the dense solve with vectors
        h = make_h()
        got, dense = solve_spectrum(h), dense_spectrum(h)
        assert np.array_equal(got.classification, dense.classification)
        scale = np.maximum(np.abs(dense.eigenvalues), 1.0)
        assert (np.abs(got.eigenvalues - dense.eigenvalues) <= 1e-9 * scale).all()
        assert np.array_equal(got.vector_indices, got.point_indices())

    @pytest.mark.parametrize("make_h", [
        pytest.param(_dirichlet_drift, id="0.2vc"),
        pytest.param(lambda: _well(math.pi / 3, v=0.9 * VC3, grid=Grid(-40.0, 40.0, 1280),
                                   boundary="dirichlet"), id="0.9vc"),
    ])
    def test_drifting_dirichlet_chain_takes_the_imaginary_gauge(self, make_h):
        # a dense solve of H itself lies up to 15.6 (1.5% of the 1-norm) off at 0.9 v_c,
        # points of its pseudospectrum; the oracle solves the gauged chain
        h = make_h()
        got, dense = solve_spectrum(h), dense_spectrum(h)
        norm1 = np.abs(h.diagonal).max() + abs(h.upper) + abs(h.lower)
        assert _hausdorff(got.eigenvalues, dense.eigenvalues) <= 1e-10 * norm1
        assert got.point_count == dense.point_count == 1

    def test_wall_piled_states_are_continuum(self):
        # short participation ratios, but tails that grow toward the wall: only
        # the well's state decays on both sides, and point_states agrees
        h = _dirichlet_drift()
        res = solve_spectrum(h)
        (i,) = res.point_indices()
        margin = delocalization_margin(-1.0, AnyonicParams(phi=math.pi / 3, v=0.2 * VC3))
        assert res.localization_length[i] == pytest.approx(1.0 / margin, rel=0.01)
        vecs = np.linalg.eig(h.dense())[1]
        vecs = vecs / np.sqrt(np.trapezoid(np.abs(vecs) ** 2, dx=h.grid.dx, axis=0))
        pr = 1.0 / np.trapezoid(np.abs(vecs) ** 4, dx=h.grid.dx, axis=0)
        assert (pr < PR_BOX_FRACTION * h.grid.length).sum() > 500
        found = point_states(h, [*res.eigenvalues[::20], res.eigenvalues[i]])
        for e, label in zip(found.eigenvalues, found.classification):
            assert label == res.classification[res.nearest(e)]
        assert found.point_count == 1

    def test_no_eigenvector_array(self):
        # eigenvalues only, from one Fortran-ordered copy that LAPACK overwrites:
        # about one dense copy (25 MiB), where eig with vectors held three
        h, _ = _verdict_operator(*VERDICT_CASES[0])
        tracemalloc.start()
        try:
            res = solve_spectrum(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.point_count == 1
        assert peak <= 1.5 * 16 * h.dim**2

    @pytest.mark.parametrize("make_h, solver", SOLVER_PARAMS)
    def test_eigensolver_failure_names_the_operator(self, monkeypatch, make_h, solver):
        h = make_h()

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eig algorithm (geev) did not converge")

        # no sweep: the drifting operator falls back to eigvals too
        monkeypatch.setattr(spectra, "ABERTH_MAX_SWEEPS", 0)
        monkeypatch.setattr(scipy.linalg, "eigvals", fail)
        monkeypatch.setattr(scipy.linalg, "eig_banded", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)  # the parity split's solve
        norm1 = np.abs(h.dense()).sum(axis=0).max()
        with pytest.raises(NumericalError) as info:
            solve_spectrum(h)
        msg = str(info.value)
        assert f"dim={h.dim}" in msg and f"boundary={h.boundary}" in msg
        assert f"matrix 1-norm={norm1:.3e}" in msg

    def test_vector_off_the_dense_eigenvalue_is_numerical_error(self, monkeypatch):
        # a targeted solve that lands elsewhere must not lend its vector to a dense eigenvalue
        def drifted(h, targets):
            res = point_states(h, targets)
            return dataclasses.replace(res, eigenvalues=res.eigenvalues * (1 + 1e-7))

        monkeypatch.setattr(spectra, "point_states", drifted)
        grid = Grid(-15.0, 15.0, 200)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.1), AnyonicParams(phi=0.2), grid)
        with pytest.raises(NumericalError, match="converged to"):
            solve_spectrum(h)

    def test_csv_rows_shape(self):
        grid = Grid(-15.0, 15.0, 64)
        with pytest.warns(UserWarning):
            h = build_h_eff(PoschlTeller(v0=0.0), AnyonicParams(phi=0.0), grid, "periodic")
        rows = list(solve_spectrum(h).csv_rows())
        assert len(rows) == 64
        assert len(rows[0]) == 4

    def test_oversized_grid_capped_before_dense_allocation(self):
        n = 10_000
        tracemalloc.start()
        try:
            h = build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=0.3, v=0.5), Grid(-40, 40, n))
            held = sum(a.nbytes for a in vars(h).values() if isinstance(a, np.ndarray))
            assert held <= 16 * n
            with pytest.raises(ContractError, match="8192"):
                solve_spectrum(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 16 * n  # one n x n complex matrix is 1.6 GB

    def test_hermitian_grid_above_the_dense_cap_solves_on_its_bands(self):
        # no n x n copy on the band path, so the 8192 cap of dense() does not apply
        h = _well(0.0, delta=0.0, grid=Grid(-40.0, 40.0, 8200), boundary="dirichlet")
        tracemalloc.start()
        try:
            res = solve_spectrum(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.solver == "real-symmetric" and res.point_count == 1
        assert abs(res.eigenvalues[res.point_indices()[0]] + 1.0) < 1e-3
        assert peak <= 0.05 * 8 * h.dim**2  # 6.6 MB, against 538 MB for one real n x n copy

    def test_fallback_above_the_dense_cap_refused_before_allocation(self, monkeypatch):
        # the root iteration gives up at once; its dense fallback is refused by dense()
        monkeypatch.setattr(spectra, "ABERTH_MAX_SWEEPS", 0)
        h = _well(math.pi / 3, v=0.5 * VC3, grid=Grid(-40.0, 40.0, 8200))
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match="8192"):
                solve_spectrum(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 16 * h.dim


class TestRealForm:
    """PT-symmetric operators are solved in real arithmetic."""

    @pytest.mark.parametrize("make_h, solver", SOLVER_PARAMS)
    def test_solver_path(self, monkeypatch, make_h, solver):
        # the eigenvalues against the dense oracle: test_matches_dense_oracle.  Whichever
        # path gave the cloud, a point state's eigenvalue and root length are bitwise
        # those of its point_states solve on H
        solves = []

        def recorded(h, targets):
            solves.append(point_states(h, targets))
            return solves[-1]

        monkeypatch.setattr(spectra, "point_states", recorded)
        res = solve_spectrum(make_h())
        assert res.solver == solver
        (found,) = solves
        assert res.point_count >= 1
        for i in res.point_indices():
            (j,) = np.flatnonzero(found.eigenvalues == res.eigenvalues[i])
            assert res.localization_length[i] == found.localization_length[j]

    @pytest.mark.parametrize("broken", [False, True], ids=["unbroken", "broken"])
    def test_phase_only_rotates(self, broken):
        # at rest e^{i phi} H is PT-symmetric, so its eigenvalues are real or come
        # in conjugate pairs: the phase only rotates the spectrum.  The sech^2
        # well is in the unbroken phase; the Scarf II gain 3 tanh sech is not.
        phi = math.pi / 3
        h = _well(phi)
        if broken:
            x = h.grid.x
            well = Tabulated(h.grid, -2.0 / np.cosh(x) ** 2 + 3j * np.tanh(x) / np.cosh(x))
            h = build_h_eff(well, AnyonicParams(phi=phi), h.grid, "periodic")
        unrotated = solve_spectrum(h).eigenvalues * cmath.exp(1j * phi)
        scale = np.maximum(np.abs(unrotated), 1.0)
        gap = np.abs(unrotated.conj()[:, None] - unrotated[None, :]).min(axis=1)
        assert (gap <= 1e-12 * scale).all()
        assert (np.abs(unrotated.imag) > 0.1).any() == broken

    def test_no_complex_dense_copy(self):
        # the real form is one n x n float64 array: 8 n^2 bytes, half a complex copy.  A
        # shifted well at rest on a Dirichlet grid has no delta = 0 twin
        h = _well(math.pi / 3, grid=Grid(-40.0, 40.0, 1280), boundary="dirichlet")
        tracemalloc.start()
        try:
            res = solve_spectrum(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.solver == "real-general" and res.point_count == 1
        assert peak <= 1.5 * 8 * h.dim**2


class TestTwin:
    """An at-rest periodic well takes the banded solve of its delta = 0 twin."""

    @staticmethod
    def _twin_error(h):
        """Largest distance, relative to the 1-norm, between the twin's and H's dense eigenvalues."""
        res = solve_spectrum(h)
        assert res.solver == "hermitian-twin"
        got = res.eigenvalues
        dense = scipy.linalg.eigvals(h.dense())
        gap = np.abs(got[:, None] - dense[None, :])
        return max(gap.min(axis=0).max(), gap.min(axis=1).max()) / np.abs(h.dense()).sum(axis=0).max()

    def test_just_above_the_threshold_matches_dense(self):
        # dx = 48/452: the aliasing exponent is 40.55, the box-edge one 44.9
        h = _well(math.pi / 3, grid=Grid(-24.0, 24.0, 452))
        assert (math.pi / 2 - 0.2) * math.pi / h.grid.dx < model.TWIN_MIN_EXPONENT + 1.0
        assert self._twin_error(h) <= 1e-12

    @pytest.mark.parametrize(
        "grid, exponent, error",
        [(Grid(-12.0, 12.0, 96), 17.2, 2e-9), (Grid(-6.0, 6.0, 240), 11.2, 6e-10)],
        ids=["aliasing", "box-edges"],
    )
    def test_below_the_threshold_keeps_the_real_form(self, monkeypatch, grid, exponent, error):
        # the exponent each grid fails on, and the twin's error there if it were taken:
        # about 0.07 e^{-E} for aliasing and 5e-5 e^{-E} at the box edges (delta = 0.2)
        h = _well(math.pi / 3, grid=grid)
        assert model.build_twin(h) is None
        assert solve_spectrum(h).solver == "real-general"
        monkeypatch.setattr(model, "TWIN_MIN_EXPONENT", exponent - 0.1)
        assert self._twin_error(h) == pytest.approx(error, rel=0.3)

    @pytest.mark.parametrize(
        "make_h, solver",
        [
            (_shipped_point, "hermitian-twin"),
            (lambda: build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=math.pi / 3),
                                 Grid(-40.0, 40.0, 1280), "dirichlet"), "real-symmetric"),
        ],
        ids=["shipped-rest-point", "dirichlet-hermitian"],
    )
    @pytest.mark.parametrize("split", [False, True], ids=["eig_banded", "parity-split"])
    def test_no_dense_array(self, monkeypatch, make_h, solver, split):
        # eig_banded holds bands only: far below one n x n float64 array (13 MB at
        # n = 1280), which the real form holds.  The parity split holds an (n/2)^2
        # half and LAPACK's copy of it, 6.6 MB at n = 1280; tracemalloc sees the half.
        # scipy allocates about 0.25 MB on a process's first eig_banded call, so that
        # path is measured on a warm call: the bound then holds whatever ran before
        h = make_h()
        if not split:
            monkeypatch.setattr(spectra, "SPLIT_MAX_DIM", 0)
            solve_spectrum(h)
        tracemalloc.start()
        try:
            res = solve_spectrum(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.solver == solver and res.point_count == 1
        assert peak <= (1.2 * 8 * (h.dim // 2) ** 2 if split else 0.1 * 8 * h.dim**2)

    def test_library_call_takes_the_twin(self):
        # the operator build_h_eff gives carries its potential, so solve_spectrum finds
        # the twin without the runner's help
        h = _shipped_point()
        assert isinstance(h.potential, PoschlTeller) and h.potential.delta == 0.2
        assert solve_spectrum(h).solver == "hermitian-twin"

    def test_replaced_operator_takes_no_twin(self):
        # replace drops the potential, so changed bands never take the twin of the old
        # ones; with the same bands, both paths give one cloud
        h = _well(math.pi / 3, grid=TWIN_GRID)
        same = dataclasses.replace(h, diagonal=h.diagonal)
        assert same.potential is None and model.build_twin(same) is None
        twin, real = solve_spectrum(h), solve_spectrum(same)
        assert (twin.solver, real.solver) == ("hermitian-twin", "real-general")
        gap = np.abs(twin.eigenvalues[:, None] - real.eigenvalues[None, :])
        hausdorff = max(gap.min(axis=0).max(), gap.min(axis=1).max())
        assert hausdorff <= 1e-12 * np.abs(h.dense()).sum(axis=0).max()

    def test_potential_is_not_a_constructor_argument(self):
        (potential,) = (f for f in dataclasses.fields(HamiltonianMatrix) if f.name == "potential")
        assert not potential.init

    def test_twin_must_be_hermitian(self, monkeypatch):
        # a twin whose e^{i phi} H is not Hermitian: the drifting well at phi = pi/3
        monkeypatch.setattr(spectra, "build_twin", lambda h: _well(math.pi / 3, v=0.5 * VC3))
        with pytest.raises(ContractError, match="Hermitian"):
            solve_spectrum(_well(math.pi / 3))


def _solved_k(h):
    """The Hermitian K that solve_spectrum hands to _banded_eigenvalues for ``h``."""
    seen, solve = [], spectra._banded_eigenvalues
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectra, "_banded_eigenvalues", lambda k: seen.append(k) or solve(k))
        solve_spectrum(h)
    (k,) = seen
    return k


def _hermitian_well(grid, boundary="periodic", v=0.0):
    # at phi = 0, K = H: real couplings at rest, complex ones under drift
    return build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0, v=v), grid, boundary)


class TestParitySplit:
    """A real K whose diagonal mirrors itself splits by parity into two halves for numpy."""

    @pytest.fixture
    def eig_banded_calls(self, monkeypatch):
        calls, band = [], scipy.linalg.eig_banded
        monkeypatch.setattr(scipy.linalg, "eig_banded", lambda *a, **kw: calls.append(1) or band(*a, **kw))
        return calls

    @pytest.mark.parametrize(
        "make_k",
        [
            *(lambda name=name: _solved_k(_shipped_point(0, name))
              for name in ("spectrum_drift_sweep", "regression_spectrum", "null_spectrum")),
            lambda: _hermitian_well(Grid(-20.0, 20.0, 257)),
            lambda: _hermitian_well(Grid(-20.0, 20.0, 257), "dirichlet"),
        ],
        ids=["spectrum_drift_sweep-0", "regression_spectrum-0", "null_spectrum-0",
             "odd-n-periodic", "odd-n-dirichlet"],
    )
    def test_matches_eig_banded(self, monkeypatch, eig_banded_calls, make_k):
        # measured: 8.7e-15, 1.1e-15 and 8.7e-16 of max|lam| on the shipped operators
        # (n = 1280, 600, 256), 6.2e-15 and 1.0e-15 at n = 257
        k = make_k()
        split, real = spectra._banded_eigenvalues(k)
        assert real and not eig_banded_calls
        monkeypatch.setattr(spectra, "SPLIT_MAX_DIM", k.dim - 1)
        banded, _ = spectra._banded_eigenvalues(k)
        assert eig_banded_calls == [1]
        assert np.abs(np.sort(split) - np.sort(banded)).max() <= 2e-14 * np.abs(banded).max()

    @pytest.mark.parametrize(
        "make_k, real",
        [
            (lambda: _hermitian_well(OFF_CENTRE), True),
            (lambda: _hermitian_well(Grid(-20.0, 20.0, 401), v=0.5 * VC3), False),
            (lambda: _hermitian_well(Grid(-40.0, 40.0, spectra.SPLIT_MAX_DIM + 2)), True),
        ],
        ids=["off-centre-grid", "complex-hermitian", "above-the-ceiling"],
    )
    def test_other_operators_take_eig_banded(self, eig_banded_calls, make_k, real):
        assert spectra._banded_eigenvalues(make_k())[1] == real
        assert eig_banded_calls == [1]


def reference_newton_ratios(h, z):
    """f/f' at each z from the plain recurrence: every transfer matrix T_j, in order.

    f(lam) = tr M - 1 - (lower/upper)^n in the gauge of ``spectra._newton_ratios``,
    with M and g dM/dlam stepped together through all n sites and rescaled by powers
    of two every ABERTH_RESCALE steps.
    """
    g = np.sqrt(h.upper * h.lower)
    dg, zg = h.diagonal / g, z / g
    # [previous, current, next step] x [both columns of M, g d/dlam of each]
    bufs = np.zeros((3, 4, len(z)), dtype=complex)
    prev, cur, nxt = bufs
    cur[0] = prev[1] = 1.0
    exponent = np.zeros(len(z))
    for j in range(0, h.dim, spectra.ABERTH_RESCALE):
        for a in zg - dg[j:j + spectra.ABERTH_RESCALE, None]:
            np.multiply(a, cur, out=nxt)
            nxt -= prev
            nxt[2:] += cur[:2]
            prev, cur, nxt = cur, nxt, prev
        e = np.frexp(np.abs(bufs[:, :2]).max(axis=(0, 1)))[1]
        bufs *= np.ldexp(1.0, -e)
        exponent += e
    log_sn, log_scale = h.dim * np.log(g / h.upper), exponent * math.log(2.0)
    rest = np.exp(log_sn - log_scale) + np.exp(-log_sn - log_scale)
    return g * (cur[0] + prev[1] - rest) / (cur[2] + prev[3])


def reference_pull(z, active):
    """sum_{j != k} 1/(z_k - z_j) for each active k, every row over all n roots."""
    diff = z[active, None] - z
    diff[np.arange(len(active)), active] = np.inf
    return (1.0 / diff).sum(axis=1)


def _rolled(h, shift):
    # the same ring read from another site: its longest run no longer wraps through 0
    return dataclasses.replace(h, diagonal=np.roll(h.diagonal, shift))


def _run_kind(h):
    """Where the ring's equal neighbouring diagonal entries lie."""
    equal = h.diagonal == np.roll(h.diagonal, 1)  # entry j equals entry j - 1
    if equal.all() or not equal.any():
        return "whole ring" if equal.all() else "none"
    return "wraps" if equal[0] else "inside"


# (id, drifting periodic operator, where its runs of equal diagonal entries lie)
NEWTON_CASES = [
    ("shipped-0.5vc", lambda: _shipped_point(1), "wraps"),
    ("shipped-0.9vc", lambda: _shipped_point(2), "wraps"),
    ("free-ring", lambda: build_h_eff(PoschlTeller(v0=0.0), AnyonicParams(math.pi / 3, 0.5 * VC3),
                                      Grid(-20.0, 20.0, 400), "periodic"), "whole ring"),
    ("well-near-x-min", lambda: _well(math.pi / 3, v=0.5 * VC3, grid=Grid(-3.0, 37.0, 640)),
     "inside"),
    ("shipped-0.5vc-rolled", lambda: _rolled(_shipped_point(1), 640), "inside"),
    ("odd-n", lambda: _well(math.pi / 3, v=0.5 * VC3, grid=Grid(-20.0, 20.0, 401)), "wraps"),
    ("no-run", lambda: _well(math.pi / 3, v=0.5 * VC3, grid=Grid(-5.0, 5.0, 200)), "none"),
]


GRID_640 = Grid(-20.0, 20.0, 640)


def _bumped_ring(phi):
    # a ring at rest, upper = lower, so the free ring's +-theta eigenvalues coincide; a gain
    # on one site off the centre breaks PT symmetry, and replace() leaves it no twin
    h = _well(phi, grid=GRID_640)
    bump = np.zeros(h.dim, dtype=complex)
    bump[400] = 1j * h.params.rotation
    return dataclasses.replace(h, diagonal=h.diagonal + bump)


def _drift(phi, fraction, delta, nu):
    # a drift of fraction times v_c of the ground state, E_1 = -nu^2
    v = fraction * critical_velocity(-nu * nu, phi)
    return _well(phi, v=v, delta=delta, grid=GRID_640, nu=nu)


# (id, operator that starts the root iteration far from its roots or from coinciding pairs,
# most roots handed to f/f' in all, in units of n).  Measured: 6.42, 6.58 (13 and 12 sweeps),
# 3.42 (15), 3.02 and 3.00; from the ring's edge value d_0 instead of the mean 9.46, 9.73,
# 4.53, 3.33 and 4.09
START_CASES = [
    ("bumped-ring-phi-pi/3", lambda: _bumped_ring(math.pi / 3), 8),
    ("bumped-ring-phi-0", lambda: _bumped_ring(0.0), 8),
    ("phi-pi/2-0.05vc-nu2", lambda: _drift(math.pi / 2, 0.05, 0.2, 2.0), 4),
    ("phi-pi/6-0.9vc", lambda: _drift(math.pi / 6, 0.9, 0.2, 1.0), 4),
    ("phi-pi/3-1.5vc-nu2-hermitian-well", lambda: _drift(math.pi / 3, 1.5, 0.0, 2.0), 4),
]


def _counted_newton_roots(monkeypatch) -> list:
    """The number of roots of each ``_newton_ratios`` call from here on."""
    given, ratios = [], spectra._newton_ratios

    def counted(h, z):
        given.append(len(z))
        return ratios(h, z)

    monkeypatch.setattr(spectra, "_newton_ratios", counted)
    return given


class TestAberth:
    """Drifting periodic operators take the root iteration, with the dense solve as fallback."""

    @pytest.mark.parametrize("make_h, runs", [pytest.param(m, r, id=i) for i, m, r in NEWTON_CASES])
    def test_folded_newton_ratios_match_the_plain_recurrence(self, make_h, runs):
        h = make_h()
        assert _run_kind(h) == runs
        # 50 points drawn across the bands' disc: off the spectrum's curves
        rng = np.random.default_rng(7)
        norm1 = np.abs(h.diagonal).max() + abs(h.upper) + abs(h.lower)
        z = norm1 * (rng.uniform(-1.0, 1.0, 50) + 1j * rng.uniform(-1.0, 1.0, 50))
        want = reference_newton_ratios(h, z)
        got = spectra._newton_ratios(h, z)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("index", [1, 2], ids=["0.5vc", "0.9vc"])
    def test_shipped_drifting_points_take_the_root_iteration(self, monkeypatch, index):
        # a fallback to eigvals would pass every oracle at about 4 s a point.  From the free
        # ring's first-order eigenvalues the sweeps hand f/f' 3.07n and 3.03n roots in all,
        # against 8.0n and 7.9n from a start half a mode spacing off the ring
        given = _counted_newton_roots(monkeypatch)
        h = _shipped_point(index)
        res = solve_spectrum(h)
        assert res.solver == "complex-aberth" and res.point_count == 1
        assert sum(given) <= 4 * h.dim

    @pytest.mark.parametrize("make_h, work", [pytest.param(m, w, id=i) for i, m, w in START_CASES])
    def test_start_converges_to_the_dense_spectrum(self, monkeypatch, make_h, work):
        # roots matched as sets: near-equal Re lam reorder under a (Re, Im) sort
        given = _counted_newton_roots(monkeypatch)
        h = make_h()
        res = solve_spectrum(h)
        assert res.solver == "complex-aberth" and sum(given) <= work * h.dim
        norm1 = np.abs(h.diagonal).max() + abs(h.upper) + abs(h.lower)
        assert _hausdorff(res.eigenvalues, dense_spectrum(h).eigenvalues) <= 1e-12 * norm1

    def test_pair_sum_takes_each_pair_once(self):
        # three blocks of active rows, the last one partial, among converged roots
        rng = np.random.default_rng(3)
        z = rng.normal(size=300) + 1j * rng.normal(size=300)
        active = np.sort(rng.choice(300, 150, replace=False))
        want = reference_pull(z, active)
        got = spectra._aberth_pull(z, active)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("converged", [False, True], ids=["active", "converged"])
    def test_pair_sum_refuses_near_roots(self, converged):
        z = np.array([1.0 + 1.0j, -2.0, 3.0j, 1.0 + 1.0j + 5e-10])
        active = np.arange(3) if converged else np.arange(4)
        assert spectra._aberth_pull(z, active) is None
        z[3] = 1.0 + 1.0j + 5e-9
        assert spectra._aberth_pull(z, active) is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.nan)])
    def test_pair_sum_refuses_non_finite_roots(self, bad):
        z = np.array([1.0 + 1.0j, -2.0, 3.0j, bad])
        with np.errstate(invalid="ignore"):
            assert spectra._aberth_pull(z, np.arange(4)) is None
            assert spectra._aberth_pull(z, np.array([3])) is None

    def test_no_dense_array(self):
        # the pair sum is taken ABERTH_BLOCK rows at a time: no n x n array at all
        h, _ = _verdict_operator(*VERDICT_CASES[1])
        tracemalloc.start()
        try:
            res = solve_spectrum(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.solver == "complex-aberth" and res.point_count == 1
        assert peak <= 0.25 * 16 * h.dim**2

    def test_repeatable_bitwise(self):
        h = _well(math.pi / 3, v=0.5 * VC3)
        assert np.array_equal(solve_spectrum(h).eigenvalues, solve_spectrum(h).eigenvalues)

    def test_forced_fallback_is_the_dense_solve(self, monkeypatch):
        # no sweep allowed: the eigvals eigenvalues, bitwise, from one dense copy, but
        # for each point state, which is its shift-invert value from that eigenvalue
        monkeypatch.setattr(spectra, "ABERTH_MAX_SWEEPS", 0)
        h = _well(math.pi / 3, v=0.5 * VC3)
        tracemalloc.start()
        try:
            res = solve_spectrum(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        w = scipy.linalg.eigvals(h.dense().T)
        w = w[np.lexsort((w.imag, w.real))]
        point = res.classification == "point"
        assert res.solver == "complex-general" and point.sum() == 1
        assert np.array_equal(res.eigenvalues[~point], w[~point])
        for i in np.flatnonzero(point):
            assert res.eigenvalues[i] == point_states(h, [w[i]]).eigenvalues[0]
        assert peak <= 1.5 * 16 * h.dim**2


class TestPointStates:
    """Shift-invert solves for targeted eigenpairs, against the dense oracle."""

    @pytest.mark.parametrize("fraction", [0.2, 0.8, 0.95])
    def test_matches_dense_on_g_t_grid(self, fraction):
        # the amplify runner's default G_t grid, Dirichlet ends
        grid = Grid(-30.0, 30.0, 1024)
        phi = math.pi / 3
        params = AnyonicParams(phi=phi, v=fraction * critical_velocity(-1.0, phi))
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, grid, "dirichlet")
        target = shifted_point_energy(-1.0, params)
        dense = dense_spectrum(h)
        expected = dense.eigenvalues[dense.nearest(target)]
        (got,) = point_states(h, [target]).eigenvalues
        assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_periodic_corners(self):
        # a target on the drift-bent band, which only the periodic corners produce
        grid = Grid(-20.0, 20.0, 512)
        params = AnyonicParams(phi=math.pi / 3, v=1.0)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, grid, "periodic")
        target = continuous_dispersion(1.0, params)
        dense = dense_spectrum(h)
        expected = dense.eigenvalues[dense.nearest(target)]
        (got,) = point_states(h, [target]).eigenvalues
        assert abs(got - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("nu, v, grid", VERDICT_CASES, ids=VERDICT_IDS)
    def test_verdicts_match_dense(self, nu, v, grid):
        # the delocalize runner's question: which bound energies still carry a point state
        h, params = _verdict_operator(nu, v, grid)
        targets = [shifted_point_energy(e, params) for e in poschl_teller_energies(nu)]
        got = point_states(h, targets)
        dense = dense_spectrum(h)
        assert got.point_count == dense.point_count
        for i, e in enumerate(got.eigenvalues):
            j = dense.nearest(e)
            assert abs(e - dense.eigenvalues[j]) <= 1e-10 * abs(e)
            assert got.classification[i] == dense.classification[j]
            if got.classification[i] == "point":
                loc = dense.localization_length[j]
                assert abs(got.localization_length[i] - loc) <= 1e-6 * loc
        expected = {1.15: 2, 3.46: 1, 5.54: 0}.get(v, int(v < VC3))
        assert got.point_count == expected  # nu = 2 loses its states one by one

    def test_gives_up_after_its_restarts(self, monkeypatch):
        # without restarts a target gets one basis of ARNOLDI_VECTORS = 20 solves; the nu = 2
        # targets at v = 3.46 need 7 (E = -4, still bound) and 42 (E = -1, delocalized)
        monkeypatch.setattr(spectra, "ARNOLDI_MAX_RESTARTS", 0)
        h, params = _verdict_operator(2.0, 3.46, Grid(-20.0, 20.0, 640))
        assert point_states(h, [shifted_point_energy(-4.0, params)]).point_count == 1
        with pytest.raises(NumericalError, match="no convergence after 0 restarts"):
            point_states(h, [shifted_point_energy(-1.0, params)])

    def test_state_reached_twice_counts_once(self):
        # beyond both critical drifts the two nu = 2 targets meet the same band state
        params = AnyonicParams(phi=math.pi / 3, v=5.54)
        h = build_h_eff(PoschlTeller(nu=2.0, delta=0.2), params, Grid(-20.0, 20.0, 640), "periodic")
        targets = [shifted_point_energy(e, params) for e in (-4.0, -1.0)]
        assert len(point_states(h, targets).eigenvalues) == 1

    def test_repeatable_bitwise(self):
        grid = Grid(-30.0, 30.0, 1024)
        params = AnyonicParams(phi=math.pi / 3, v=0.8 * critical_velocity(-1.0, math.pi / 3))
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, grid, "dirichlet")
        target = shifted_point_energy(-1.0, params)
        a, b = point_states(h, [target]), point_states(h, [target])
        assert a.eigenvalues[0] == b.eigenvalues[0]
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_no_targets_is_contract_error(self):
        h = build_h_eff(PoschlTeller(), AnyonicParams(phi=0.0), Grid(-10.0, 10.0, 200))
        for targets in ([], np.empty(0), iter(())):
            with pytest.raises(ContractError, match="no target energies"):
                point_states(h, targets)

    def test_singular_shift_is_numerical_error(self):
        grid = Grid(-10.0, 10.0, 200)
        h = HamiltonianMatrix(grid, np.zeros(200), 0.0, 0.0, "dirichlet", AnyonicParams(0.0))
        with pytest.raises(NumericalError):
            point_states(h, [0.0])

    @staticmethod
    def _arpack_value(h, target):
        """ARPACK's shift-invert eigenvalue nearest ``target``, on a sparse matrix built from
        the bands and, for a periodic grid, the corners (0, n-1) = lower and (n-1, 0) = upper."""
        import scipy.sparse
        import scipy.sparse.linalg

        n = h.dim
        corners = {1 - n: h.upper, n - 1: h.lower} if h.boundary == "periodic" else {}
        bands = {-1: h.lower, 0: h.diagonal, 1: h.upper, **corners}
        band = scipy.sparse.diags(list(bands.values()), list(bands), shape=(n, n), format="csc")
        (value,), _ = scipy.sparse.linalg.eigs(
            band, k=1, sigma=target, v0=np.ones(n, dtype=complex)
        )
        return value

    @staticmethod
    def _oracle_cases():
        """(id, operator, targets): the point-state candidates of each spectrum_drift_sweep
        point, gain-transient's e_dom target, and the delocalize_sweep targets."""
        for index in range(3):
            h = _shipped_point(index)
            w = solve_spectrum(h).eigenvalues
            yield f"spectrum-{index}", h, w[_root_lengths(h, w) < ROOT_SCREEN_FRACTION * h.grid.length]
        params = AnyonicParams(phi=math.pi / 3, v=0.8 * VC3)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, Grid(-30.0, 30.0, 1024))
        yield "gain-transient", h, [shifted_point_energy(-1.0, params)]
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "delocalize_sweep.yaml")
        for p in cfg.sweep_points():
            h = build_h_eff(p.potential, p.params, p.grid, cfg.boundary)
            yield f"delocalize-{p.index}", h, [
                shifted_point_energy(e, p.params) for e in cfg.bound_energies()
            ]

    def test_matches_arpack_shift_invert(self):
        # the solve that point_states replaced: the same eigenvalue to 1e-12
        count = 0
        for name, h, targets in self._oracle_cases():
            for target in targets:
                (got,) = point_states(h, [target]).eigenvalues
                expected = self._arpack_value(h, target)
                assert abs(got - expected) <= 1e-12 * abs(expected), (name, target)
                count += 1
        assert count == 13  # 1, 1 and 7 spectrum candidates, e_dom, three delocalize targets

    def test_band_lu_solves_the_ring(self, rng):
        # the factored ring, corners and all, against a dense solve, at a shift next to
        # an eigenvalue (a pivoting column) and one inside the bent band
        for h in (_shipped_point(1), _dirichlet_drift()):
            for shift in (shifted_point_energy(-1.0, h.params) + 1e-3, 2.0 - 0.5j):
                b = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
                x = spectra._band_solve(spectra._band_lu(h, shift), b)
                a = h.dense() - shift * np.eye(h.dim)
                assert np.abs(a @ x - b).max() <= 1e-12 * np.abs(a).max() * np.abs(x).max()

    def test_amplify_and_delocalize_never_import_scipy(self, tmp_path):
        root = CONFIG_DIR.parent
        # the two evolving runners: amplify_breakup's three fields, for 1.0 of its 30.0
        breakup = yaml.safe_load((CONFIG_DIR / "amplify_breakup.yaml").read_text())
        breakup["propagator"]["t_final"] = 1.0
        (tmp_path / "breakup.yaml").write_text(yaml.safe_dump(breakup))
        runs = [
            ("amplify", root / "perfbench" / "gain_transient.yaml"),
            ("delocalize", CONFIG_DIR / "delocalize_sweep.yaml"),
            # as shipped: the points at rest take the parity split, the drifting ones the
            # root iteration
            ("spectrum", CONFIG_DIR / "spectrum_drift_sweep.yaml"),
            ("spectrum", CONFIG_DIR / "regression_spectrum.yaml"),
            ("spectrum", CONFIG_DIR / "null_spectrum.yaml"),
            ("scatter", CONFIG_DIR / "null_scatter.yaml"),
            # its rt_sweep reaches stationary_rt's closed form and its Lanczos log Gamma
            ("scatter", CONFIG_DIR / "scatter_barrier_k0.yaml"),
            ("amplify", tmp_path / "breakup.yaml"),
        ]
        for i, (runner, config) in enumerate(runs):
            code = (
                "import sys; from anyonpt.cli import main; "
                "code = main(sys.argv[1:]); print(code, 'scipy' in sys.modules)"
            )
            argv = [runner, "--config", str(config), "--output", str(tmp_path / f"{i}-{runner}")]
            out = subprocess.run(
                [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
            )
            assert out.stdout.split()[-2:] == ["0", "False"], (runner, out.stdout, out.stderr)
            if runner != "spectrum":
                continue
            # each point counts as many point states as bound states survive
            with open(tmp_path / f"{i}-{runner}" / "manifest.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert rows, config
            for row in rows:
                tag = f"{int(row['index']):03d}"
                with open(tmp_path / f"{i}-{runner}" / f"bound_{tag}.csv") as fh:
                    surviving = sum(b["survives"] == "true" for b in csv.DictReader(fh))
                assert int(row["numerical_point_count"]) == surviving, (config.stem, tag)
        # the three spectrum runs above are every shipped spectrum config
        kinds = {c: yaml.safe_load(c.read_text())["experiment"] for c in CONFIG_DIR.glob("*.yaml")}
        assert sorted(c for c, kind in kinds.items() if kind == "spectrum") == sorted(
            config for runner, config in runs if runner == "spectrum"
        )
        # the shipped G_t bytes: the benchmark checks them only to 1e-6
        gt = (tmp_path / "0-amplify" / "gt_000.csv").read_text().splitlines()
        assert gt == ["t,g_t", "0.5,2.07630202277", "2,8.55931235798", "5,20.0615653228"]

    def test_sparse_solver_not_imported_at_startup(self):
        # the solvers import scipy on first use, so a config parse loads none of it
        code = (
            "import sys, anyonpt, anyonpt.cli, anyonpt.nonnormal, anyonpt.spectra; "
            "from anyonpt.config import ExperimentConfig; "
            "ExperimentConfig.from_yaml(sys.argv[1]).validate(); "
            "print('scipy' in sys.modules)"
        )
        config = CONFIG_DIR / "spectrum_drift_sweep.yaml"
        out = subprocess.run(
            [sys.executable, "-c", code, str(config)], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestRootLengths:
    """Localization lengths read off the eigenvalue, against 1/margin."""

    @pytest.mark.parametrize("nu, v, grid", VERDICT_CASES, ids=VERDICT_IDS)
    def test_matches_inverse_margin(self, nu, v, grid):
        h, params = _verdict_operator(nu, v, grid)
        for e in poschl_teller_energies(nu):
            margin = delocalization_margin(e, params)
            if margin <= 0.0:
                continue
            res = point_states(h, [shifted_point_energy(e, params)])
            assert res.classification[0] == "point"
            assert res.localization_length[0] == pytest.approx(1.0 / margin, rel=0.01)

    def test_fast_tail_beyond_the_fit_floor(self):
        # nu = 2, E = -4 at v = 1.15: the tail falls below 1e-13 inside the old
        # fit window, which read 2.41 off roundoff; the root gives 1/margin
        h, params = _verdict_operator(2.0, 1.15, Grid(-20.0, 20.0, 640))
        res = point_states(h, [shifted_point_energy(-4.0, params)])
        assert 1.0 / delocalization_margin(-4.0, params) == pytest.approx(0.66576, rel=1e-4)
        assert res.localization_length[0] == pytest.approx(0.66609, rel=1e-4)

    def test_free_band_screens_out(self):
        with pytest.warns(UserWarning):
            h = _free_periodic()
        lengths = _root_lengths(h, scipy.linalg.eigvals(h.dense()))
        assert (lengths > h.grid.length).all()  # inf, or longer than the box
        assert not (lengths < ROOT_SCREEN_FRACTION * h.grid.length).any()

    def test_hermitian_well_both_sides(self):
        # at rest the two tails decay alike, at the bound state's sqrt(|E|) = 1
        grid = Grid(-30.0, 30.0, 1200)
        h = build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0), grid, "dirichlet")
        (length,) = _root_lengths(h, [-1.0])
        assert length == pytest.approx(1.0, rel=1e-3)


class TestLocalizationFit:
    def test_known_exponential(self):
        grid = Grid(-40.0, 40.0, 1600)
        vals = np.exp(-0.25 * np.abs(grid.x)).astype(complex)
        from anyonpt import WaveFunction

        u = WaveFunction(grid, vals).normalized()
        assert fit_localization_length(u) == pytest.approx(4.0, rel=0.01)

    def test_rising_sides_rejected(self):
        grid = Grid(-40.0, 40.0, 1600)
        vals = np.exp(+0.05 * grid.x).astype(complex)  # rising to the right
        from anyonpt import WaveFunction

        u = WaveFunction(grid, vals).normalized()
        # peak at the right edge; left side falls away at rate 0.05
        assert fit_localization_length(u) == pytest.approx(20.0, rel=0.05)

    def test_margin_helper(self):
        p = AnyonicParams(phi=math.pi / 3, v=1.0)
        m = delocalization_margin(-1.0, p)
        assert m == pytest.approx(1.0 - 0.5 * math.sin(math.pi / 3), rel=1e-12)

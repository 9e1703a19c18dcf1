import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import yaml
from scipy.integrate import quad

from anyonpt import (
    AnyonicParams,
    ContractError,
    DivergenceError,
    DomainError,
    Grid,
    HamiltonianMatrix,
    NumericalError,
    PoschlTeller,
    analytic_bound_state_pt,
    build_h_eff,
    critical_velocity,
    g_infinity,
    g_infinity_poschl_teller,
    g_t,
    point_states,
    self_orthogonality,
    shifted_point_energy,
    solve_spectrum,
)
from anyonpt import nonnormal, spectra
from anyonpt.cli import main as cli_main
from anyonpt.nonnormal import (
    BAND_BLOCK,
    THETA_13,
    _band_matmul,
    _expm_taylor,
    _flush_tiny,
    _sigma_max,
    gain_grid,
)

PHI3 = math.pi / 3
VC = 2.0 / math.sin(PHI3)


def tridiag_apply(u, dx, vvals, conjugate=False):
    """Central-difference H0 (or its adjoint) applied to samples, Dirichlet ends."""
    upad = np.concatenate(([0.0 + 0.0j], u, [0.0 + 0.0j]))
    lap = (upad[2:] - 2.0 * upad[1:-1] + upad[:-2]) / dx**2
    v = np.conj(vvals) if conjugate else vvals
    return -lap + v * u


class TestAnalyticBoundState:
    def test_peak_and_shape(self):
        grid = Grid(-30.0, 30.0, 1200)
        u = analytic_bound_state_pt(grid, 0.0)
        assert abs(grid.x[np.argmax(np.abs(u.values))]) < grid.dx
        # proportional to sech
        ratio = u.values / (1.0 / np.cosh(grid.x))
        sel = np.abs(u.values) > 1e-8
        assert np.abs(ratio[sel] - ratio[sel][0]).max() < 1e-9

    def test_discretized_eigen_residual(self):
        # substitute into the central-difference stationary problem
        grid = Grid(-20.0, 20.0, 32768)
        delta = 0.2
        u = analytic_bound_state_pt(grid, delta)
        vvals = PoschlTeller(nu=1.0, delta=delta)(grid.x)
        resid = tridiag_apply(u.values, grid.dx, vvals) - (-1.0) * u.values
        interior = np.abs(grid.x) < 18.0
        norm = math.sqrt(float(np.trapezoid(np.abs(resid[interior]) ** 2, dx=grid.dx)))
        assert norm < 1e-6

    @pytest.mark.parametrize("delta", [0.0, 0.2])
    @pytest.mark.parametrize("nu", [1.0, 2.0, 2.5])
    def test_closed_form_solves_the_rest_frame_bands(self, nu, delta):
        # max|(H - E_1) u| / max|u| at the interior rows of the Dirichlet bands
        # falls as dx^2: about 4x from dx = 0.02 to 0.01
        def residual(n_points):
            grid = Grid(-20.0, 20.0, n_points)
            h = build_h_eff(PoschlTeller(nu=nu, delta=delta), AnyonicParams(phi=0.0), grid)
            u = analytic_bound_state_pt(grid, delta, nu).values
            hu = h.lower * u[:-2] + (h.diagonal[1:-1] + nu * nu) * u[1:-1] + h.upper * u[2:]
            return np.abs(hu).max() / np.abs(u).max()

        coarse, fine = residual(2000), residual(4000)
        assert fine < 4e-4  # 2.7e-4 at nu = 2.5, delta = 0.2
        assert 3.9 < coarse / fine < 4.1

    def test_nu_must_be_positive(self):
        with pytest.raises(DomainError):
            analytic_bound_state_pt(Grid(-10.0, 10.0, 64), 0.2, 0.0)

    def test_near_exceptional_point_profile(self):
        # as delta -> pi/2 the state approaches 1/(x + i eps) near the origin
        eps = 0.05
        grid = Grid(-30.0, 30.0, 6000)
        u = analytic_bound_state_pt(grid, math.pi / 2 - eps)
        sel = (np.abs(grid.x) < 0.5) & (np.abs(grid.x) > 2 * grid.dx)
        model = 1.0 / (grid.x[sel] + 1j * eps)
        ratio = u.values[sel] / model
        assert np.abs(ratio / ratio[0] - 1.0).max() < 0.05

    def test_domain_checks(self):
        grid = Grid(-10.0, 10.0, 64)
        with pytest.raises(DomainError):
            analytic_bound_state_pt(grid, math.pi / 2)


class TestSelfOrthogonality:
    def test_real_state_is_one(self):
        assert self_orthogonality(0.0) == pytest.approx(1.0, abs=1e-10)

    def test_closed_form_sinc(self):
        # |integral u^2| / integral |u|^2 = sin(2 delta) / (2 delta)
        for delta in (0.2, 0.7, 1.3):
            expected = math.sin(2 * delta) / (2 * delta)
            assert self_orthogonality(delta, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_pinned_regression_value(self):
        assert self_orthogonality(0.2, 1.0) == pytest.approx(0.9735458557716262, abs=1e-12)

    def test_decreasing_toward_exceptional_point(self):
        vals = [self_orthogonality(d, 1.0) for d in (0.0, math.pi / 4, 0.9 * math.pi / 2)]
        assert vals[0] > vals[1] > vals[2]


def closed_form_gain(params: AnyonicParams, delta: float) -> float:
    """G of the nu = 1 well: (pi sin(s delta) / (sin(2 delta) sin(pi s / 2)))^2, s = v sin(phi).

    From integral |u|^2 e^{s x} dx = 2 pi sin(s delta) / (sin(2 delta) sin(pi s / 2))
    and integral u^2 dx = 2; sin(s delta) / sin(2 delta) is s / 2 at delta = 0.
    sin(pi s / 2) is taken as sin(pi (1 - s / 2)), exact near v_c.
    """
    s = params.v * math.sin(params.phi)
    ratio = math.sin(s * delta) / math.sin(2.0 * delta) if delta else s / 2.0
    return (math.pi * ratio / math.sin(math.pi * (1.0 - s / 2.0))) ** 2


def log_space_quad_gain(params: AnyonicParams, delta: float, nu: float) -> float:
    """G of sech^nu(x - i delta) by adaptive quadrature, its integrands taken in log space.

    log cosh(x - i delta) = |x| - log 2 + log(e^{-+i delta} + e^{-2|x|} e^{+-i delta}) for
    x >< 0, finite at every x; the slow side of the weighted integrands decays like
    e^{-2 margin |x|}, that of u^2 like e^{-2 nu |x|}.
    """
    s = params.v * math.sin(params.phi)

    def log_cosh(x):
        turn = cmath.exp(1j * math.copysign(delta, x))
        return abs(x) - math.log(2.0) + cmath.log(1.0 / turn + math.exp(-2.0 * abs(x)) * turn)

    far = 100.0 / (nu - abs(s) / 2.0)  # e^{-200} beyond it
    cuts = [-far, -40.0, -10.0, 0.0, 10.0, 40.0, far]

    def integral(f):
        return sum(quad(f, a, b, limit=400, epsabs=0.0, epsrel=1e-13)[0] for a, b in zip(cuts, cuts[1:]))

    weighted = [integral(lambda x: math.exp(w * x - 2.0 * nu * log_cosh(x).real)) for w in (-s, s)]
    square = integral(lambda x: cmath.exp(-2.0 * nu * log_cosh(x)).real)  # the odd Im part is 0
    return weighted[0] * weighted[1] / square**2


def quad_gain_oracle(f: float, delta: float) -> float:
    """Independent adaptive-quadrature gain factor for the unit well."""
    s = 2.0 * f
    a2 = math.sin(delta) ** 2
    big = min(16.2 / max(2.0 - s, 1e-6) * 2 + 20, 1500)
    ip = quad(lambda x: math.exp(s * x) / (math.cosh(x) ** 2 - a2), -big, big, limit=400)[0]
    im = quad(lambda x: math.exp(-s * x) / (math.cosh(x) ** 2 - a2), -big, big, limit=400)[0]
    return ip * im / 4.0


class TestGInfinity:
    def test_unity_for_normal_case(self):
        p = AnyonicParams(phi=0.0, v=0.0)
        assert g_infinity_poschl_teller(0.0, p) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("f,delta", [(0.2, 0.2), (0.8, 0.2), (0.5, 0.0), (0.9, 0.7)])
    def test_matches_adaptive_quadrature(self, f, delta):
        p = AnyonicParams(phi=PHI3, v=f * VC)
        assert g_infinity_poschl_teller(delta, p) == pytest.approx(
            quad_gain_oracle(f, delta), rel=1e-8
        )

    def test_phi_independence_at_fixed_fraction(self):
        # v sin(phi) = 2 f regardless of phi, so the gain only sees f
        for phi in (math.pi / 4, PHI3, 0.45 * math.pi):
            vc = 2.0 / math.sin(phi)
            got = g_infinity_poschl_teller(0.2, AnyonicParams(phi=phi, v=0.8 * vc))
            assert got == pytest.approx(18.6403762922, rel=1e-8)

    def test_geq_one_on_random_samples(self, rng):
        for _ in range(20):
            delta = rng.uniform(0.0, 1.3)
            phi = rng.uniform(0.1, math.pi / 2)
            f = rng.uniform(0.0, 0.9)
            p = AnyonicParams(phi=phi, v=f * 2.0 / math.sin(phi))
            assert g_infinity_poschl_teller(delta, p) >= 1.0 - 1e-12

    def test_monotone_in_drift(self):
        vals = [
            g_infinity_poschl_teller(0.2, AnyonicParams(phi=PHI3, v=f * VC))
            for f in (0.0, 0.2, 0.5, 0.8, 0.95)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_threshold_divergence(self):
        assert g_infinity_poschl_teller(0.2, AnyonicParams(phi=PHI3, v=0.97 * VC)) > 1e3

    def test_exceptional_point_channel(self):
        at_rest = AnyonicParams(phi=PHI3, v=0.0)
        g_far = g_infinity_poschl_teller(math.pi / 4, at_rest)
        g_near = g_infinity_poschl_teller(0.9 * math.pi / 2, at_rest)
        assert g_near > 10.0 * g_far

    def test_margin_guard(self):
        with pytest.raises(DomainError):
            g_infinity_poschl_teller(0.2, AnyonicParams(phi=PHI3, v=1.01 * VC))

    @pytest.mark.parametrize("delta", [0.0, 0.2, math.pi / 4, 0.9 * math.pi / 2])
    @pytest.mark.parametrize("f", [0.97, 0.98, 0.99, 0.995, 0.999])
    def test_closed_form_near_threshold(self, f, delta):
        params = AnyonicParams(phi=PHI3, v=f * VC)
        assert g_infinity(delta, params) == pytest.approx(closed_form_gain(params, delta), rel=1e-12)

    @pytest.mark.parametrize("nu,f", [(2.0, 0.99), (10.0, 0.9)])
    def test_deeper_wells_match_log_space_quadrature(self, nu, f):
        params = AnyonicParams(phi=PHI3, v=f * critical_velocity(-nu * nu, PHI3))
        got = g_infinity(0.2, params, nu)
        assert got == pytest.approx(log_space_quad_gain(params, 0.2, nu), rel=1e-11)

    @pytest.mark.parametrize("nu", [4.0, 10.0, 50.0])
    def test_deep_well_at_rest_is_normal(self, nu):
        # a box spaced for delta alone aliases the narrow core: 3.5e-6 off at nu = 10
        assert g_infinity(0.0, AnyonicParams(phi=0.0), nu) == pytest.approx(1.0, abs=1e-12)
        assert self_orthogonality(0.0, nu) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nu,f,expected", [(0.04, 0.5, 1.78030582202), (0.2, 0.9, 30.1153605059)])
    def test_shallow_wells_keep_their_slow_tails(self, nu, f, expected):
        # log-space quad of the same integrals; a state flushed to zero at |x| = 350 lost them
        params = AnyonicParams(phi=PHI3, v=f * critical_velocity(-nu * nu, PHI3))
        assert g_infinity(0.2, params, nu) == pytest.approx(expected, rel=1e-11)

    def test_exceptional_point_closed_forms(self):
        # at rest, G = 1 / self-orthogonality^2 = (2 delta / sin 2 delta)^2, 24382 here
        delta, at_rest = 1.5608, AnyonicParams(phi=0.0)
        assert g_infinity(delta, at_rest) == pytest.approx(
            (2 * delta / math.sin(2 * delta)) ** 2, rel=1e-10
        )
        assert self_orthogonality(delta) == pytest.approx(math.sin(2 * delta) / (2 * delta), rel=1e-10)

    @pytest.mark.parametrize("delta", [0.0, -0.2, 0.9 * math.pi / 2, 1.5608])
    @pytest.mark.parametrize("nu", [1e-3, 1.0, 2.0, 50.0])
    def test_box_spacing_follows_delta_and_nu(self, delta, nu):
        # the fewest points with 2 pi (pi/2 - |delta|) / dx >= 40 and (pi cos(delta) / dx)^2 / nu >= 160
        def exponents(n):
            dx = 80.0 / n
            return 2 * math.pi * (math.pi / 2 - abs(delta)) / dx, (math.pi * math.cos(delta) / dx) ** 2 / nu

        grid = gain_grid(delta, nu)
        assert (grid.x_min, grid.x_max) == (-40.0, 40.0)
        strip, core = exponents(grid.n_points)
        assert strip >= 40.0 and core >= 160.0
        strip, core = exponents(grid.n_points - 1)
        assert strip < 40.0 or core < 160.0

    def test_box_of_the_unit_well(self):
        assert [gain_grid(d).n_points for d in (0.0, 0.2, math.pi / 4, 0.9 * math.pi / 2)] == [
            325, 372, 649, 3243
        ]

    @pytest.mark.parametrize("delta", [math.pi / 2 - 1e-4, math.pi / 2, 2.0, math.nan])
    def test_box_near_or_past_the_pole_is_refused(self, delta):
        with pytest.raises(DomainError):
            gain_grid(delta)
        with pytest.raises(DomainError):
            g_infinity(delta, AnyonicParams(phi=0.0))

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan])
    def test_nu_must_be_positive(self, nu):
        with pytest.raises(DomainError):
            self_orthogonality(0.2, nu)

    def test_two_forms_agree_to_1e_6_at_nu_10_and_not_at_nu_11(self):
        # at rest, delta = 1.2: the lattice sum of u^2 cancels as nu log(1/cos^2 delta) nears
        # 22, and the forms' gap grows from 4.3e-7 at nu = 10 to 2.68e-6 at nu = 11
        at_rest = AnyonicParams(phi=PHI3, v=0.0)
        assert g_infinity(1.2, at_rest, 10.0) == pytest.approx(5.920013e16, rel=1e-6)
        message = r"gain formulas disagree: weighted 3\.41932e\+18 vs biorthogonal 3\.41931e\+18"
        with pytest.raises(NumericalError, match=message):
            g_infinity(1.2, at_rest, 11.0)

    @pytest.mark.parametrize("nu, code", [(10.0, 0), (11.0, 3)])
    def test_two_form_check_exits_3_through_the_cli(self, tmp_path, capsys, nu, code):
        raw = {
            "experiment": "amplify",
            "potential": {"kind": "poschl_teller", "nu": nu, "delta": 1.2},
            "params": {"phi": PHI3, "v_over_vc": [0.0]},
        }
        path = tmp_path / "deep_well.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["amplify", "--config", str(path), "--output", str(tmp_path / "out")]) == code
        disagree = "gain formulas disagree: weighted 3.41932e+18 vs biorthogonal 3.41931e+18"
        assert (disagree in capsys.readouterr().err) == (code == 3)
        assert (tmp_path / "out" / "ginf.csv").exists() == (code == 0)

    @pytest.mark.parametrize(
        "forms",
        [(0.5, 0.5), (math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0), (2.0, math.nan)],
        ids=["below-one", "weighted-inf", "biorthogonal-inf", "weighted-nan", "biorthogonal-nan"],
    )
    def test_gain_not_finite_or_below_one_is_a_numerical_error(self, monkeypatch, forms):
        # inf and NaN pass the two-form comparison, so g_infinity checks them first
        monkeypatch.setattr(nonnormal, "g_infinity_forms", lambda *args, **kwargs: forms)
        with pytest.raises(NumericalError, match="not a finite value >= 1"):
            g_infinity(0.2, AnyonicParams(phi=PHI3, v=0.5 * VC))


BAND_N = 400  # three full column blocks and a partial one


def band_structure(kind, rng):
    """A complex BAND_N x BAND_N matrix with the nonzero pattern ``kind``."""
    n = BAND_N
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    offset = np.subtract.outer(np.arange(n), np.arange(n))  # i - j
    if kind == "narrow":
        a[np.abs(offset) > 3] = 0.0
    elif kind == "skewed":  # j - i in [-153, 251]: the [-392, 643] of B^1024 at n = 1024, scaled
        a[(offset > 153) | (offset < -251)] = 0.0
    elif kind == "zero-columns":
        a[:, 100:300] = 0.0
        a[:50, :] = 0.0
    elif kind == "zero":
        a[:] = 0.0
    elif kind == "periodic":
        a[(np.abs(offset) > 1) & (np.abs(offset) != n - 1)] = 0.0
    return a


BAND_KINDS = ["narrow", "skewed", "zero-columns", "zero", "periodic", "dense"]


def band(a):
    """The dense square ``a`` as a band with full spans: each column block a slab of all rows."""
    return [(0, a[:, c : c + BAND_BLOCK]) for c in range(0, a.shape[1], BAND_BLOCK)]


def dense(band):
    """The n x n array that ``band`` holds."""
    return nonnormal._multiplied_out([band])


def spans(band):
    """The row span (lo, hi) of each column block of ``band``."""
    return [(lo, lo + len(slab)) for lo, slab in band]


class TestBandMatmul:
    @pytest.mark.parametrize("kind_a", BAND_KINDS)
    @pytest.mark.parametrize("kind_b", BAND_KINDS)
    def test_matches_dense_product(self, kind_a, kind_b, rng):
        a, b = band_structure(kind_a, rng), band_structure(kind_b, rng)
        a_band, b_band = _flush_tiny(band(a.copy())), _flush_tiny(band(b.copy()))
        assert np.array_equal(dense(a_band), a) and np.array_equal(dense(b_band), b)
        got = dense(_band_matmul(a_band, b_band))
        bound = 4 * BAND_N * np.finfo(float).eps * (np.abs(a) @ np.abs(b)).max()
        assert np.abs(got - a @ b).max() <= bound

    def test_spans_of_a_band(self):
        a = np.zeros((BAND_N, BAND_N), dtype=complex)
        a[np.arange(BAND_N), np.arange(BAND_N)] = 1.0
        a[BAND_N - 1, 0] = 1e-30  # below the flush floor: zeroed, not a span
        got = _flush_tiny(band(a))
        assert dense(got)[BAND_N - 1, 0] == 0.0
        assert spans(got) == [(0, 128), (128, 256), (256, 384), (384, 400)]
        # each slab holds only its span, not the whole height
        assert [slab.shape for _, slab in got] == [(128, 128)] * 3 + [(16, 16)]

    def test_zero_factor_keeps_no_rows(self, rng):
        # every block of an all-zero factor is empty, and so is every block of its products
        zero = _flush_tiny(band(np.zeros((BAND_N, BAND_N), dtype=complex)))
        full = _flush_tiny(band(band_structure("dense", rng)))
        assert all(len(slab) == 0 for _, slab in zero)
        for product in (_band_matmul(zero, full), _band_matmul(full, zero)):
            assert all(len(slab) == 0 for _, slab in product)
            assert not dense(product).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.nan)])
    def test_non_finite_entry_is_divergence(self, bad, rng):
        # a non-finite entry in any block, or a finite product that overflows
        a = band_structure("narrow", rng)
        a[300, 301] = bad
        with pytest.raises(DivergenceError, match="propagator overflowed"):
            _flush_tiny(band(a))
        huge = _flush_tiny(band(1e200 * band_structure("dense", rng)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="propagator overflowed"):
                _band_matmul(huge, huge)

    def test_periodic_factor_has_full_spans(self, rng):
        # the ring's corners put row n - 1 in the first block and row 0 in the last,
        # so those blocks span every row; the blocks between stay narrow
        a = band_structure("periodic", rng)
        got = _flush_tiny(band(a.copy()))
        assert spans(got) == [(0, 400), (127, 257), (255, 385), (0, 400)]
        product = _band_matmul(got, got)
        bound = 4 * BAND_N * np.finfo(float).eps * (np.abs(a) @ np.abs(a)).max()
        assert np.abs(dense(product) - a @ a).max() <= bound
        assert spans(product) == [(0, 400), (126, 258), (254, 386), (0, 400)]


class TestGT:
    def test_t_zero_is_one(self):
        grid = Grid(-20.0, 20.0, 128)
        with pytest.warns(UserWarning):
            h = build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0), grid)
        assert g_t(h, -1.0, [0.0]) == [1.0]

    def test_normal_operator_bound(self):
        grid = Grid(-30.0, 30.0, 600)
        h = build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0), grid)
        res = solve_spectrum(h)
        e1 = res.eigenvalues[res.nearest(-1.0)]
        for g in g_t(h, e1, [0.5, 2.0]):
            assert g <= 1.0 + 1e-6

    def test_saturates_to_asymptotic_gain(self):
        # small drift: G_t at large t approaches the asymptotic gain ~ 1.2
        phi = math.pi / 4
        vc = 2.0 / math.sin(phi)
        params = AnyonicParams(phi=phi, v=0.2 * vc)
        grid = Grid(-30.0, 30.0, 600)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, grid)
        res = solve_spectrum(h)
        e1 = res.eigenvalues[res.nearest(shifted_point_energy(-1.0, params))]
        ginf = g_infinity_poschl_teller(0.2, params)
        (got,) = g_t(h, e1, [20.0])
        assert got == pytest.approx(ginf, rel=0.2)

    def test_matches_per_time_expm_oracle(self, monkeypatch):
        # drifting non-normal operator; unsorted times with a duplicate, a
        # zero, and the non-dyadic 1.3 that needs the remainder factor
        params = AnyonicParams(phi=PHI3, v=0.8 * VC)
        grid = Grid(-12.0, 12.0, 256)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, grid)
        (e_dom,) = point_states(h, [shifted_point_energy(-1.0, params)]).eigenvalues
        times = [2.0, 0.5, 5.0, 0.0, 2.0, 1.3]
        expm_calls = []
        monkeypatch.setattr(
            nonnormal, "_expm_taylor", lambda a: expm_calls.append(1) or _expm_taylor(a)
        )
        got = g_t(h, e_dom, times)
        assert len(expm_calls) == 2  # base step plus the 1.3 remainder
        monkeypatch.undo()
        shifted = -1j * (h.dense() - e_dom * np.eye(h.dim))
        for t, g in zip(times, got):
            oracle = float(scipy.linalg.svdvals(scipy.linalg.expm(shifted * t))[0]) ** 2
            assert g == pytest.approx(oracle, rel=1e-10, abs=0.0)
        assert got[3] == 1.0 and got[0] == got[4] and got[2] > got[0] > got[1] > 1.0

    @staticmethod
    def drifting_h():
        params = AnyonicParams(phi=PHI3, v=0.8 * VC)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, Grid(-12.0, 12.0, 256))
        return h, point_states(h, [shifted_point_energy(-1.0, params)]).eigenvalues[0]

    @staticmethod
    def svdvals_oracle(h, e_dom, t):
        shifted = -1j * (h.dense() - e_dom * np.eye(h.dim))
        return float(scipy.linalg.svdvals(scipy.linalg.expm(shifted * t))[0]) ** 2

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("step_norm", [0.1, THETA_13 * (1.0 - 1e-6)])
    def test_taylor_base_step_matches_dense_expm(self, boundary, step_norm):
        # tau ||G||_1 at both ends of the range g_t's base and remainder steps use
        params = AnyonicParams(phi=PHI3, v=0.8 * VC)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, Grid(-12.0, 12.0, 256), boundary)
        (e_dom,) = point_states(h, [shifted_point_energy(-1.0, params)]).eigenvalues
        gen = -1j * (h.dense() - e_dom * np.eye(h.dim))
        tau = step_norm / np.abs(gen).sum(axis=0).max()
        if boundary == "periodic":
            assert gen[0, -1] != 0.0 and gen[-1, 0] != 0.0
        got = dense(_expm_taylor(-1j * h.cyclic_diagonals(e_dom) * tau))
        oracle = scipy.linalg.expm(gen * tau)
        assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_taylor_step_wraps_round_a_short_ring(self):
        # n = 16: the series' 2k + 1 diagonals wrap round the ring more than once
        params = AnyonicParams(phi=PHI3, v=0.5)
        with pytest.warns(UserWarning, match="dx"):
            h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, Grid(-8.0, 8.0, 16), "periodic")
        gen = -1j * (h.dense() + np.eye(h.dim))
        tau = THETA_13 * (1.0 - 1e-6) / np.abs(gen).sum(axis=0).max()
        got = dense(_expm_taylor(-1j * h.cyclic_diagonals(-1.0) * tau))
        oracle = scipy.linalg.expm(gen * tau)
        assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_never_builds_the_dense_operator(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("g_t built a dense copy of H or called the dense expm")

        h, e_dom = self.drifting_h()
        monkeypatch.setattr(HamiltonianMatrix, "dense", forbidden)
        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        got = g_t(h, e_dom, [0.5, 1.3])
        monkeypatch.undo()
        for t, g in zip([0.5, 1.3], got):
            assert g == pytest.approx(self.svdvals_oracle(h, e_dom, t), rel=1e-10, abs=0.0)

    @staticmethod
    def gain_transient_h():
        # the operator of the gain-transient benchmark: 0.8 v_c on the default g_t grid
        params = AnyonicParams(phi=PHI3, v=0.8 * VC)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, Grid(-30.0, 30.0, 1024))
        return h, point_states(h, [shifted_point_energy(-1.0, params)]).eigenvalues[0]

    def test_peak_memory_at_n_1024(self):
        # P(t) is never multiplied out, and each propagator is held as the
        # slabs of its column blocks' nonzero rows.  The widest moment is a
        # squaring: it holds B^256 (0.53 of a dense array), which t = 5 still
        # needs, and the blocks of B^512 made so far (0.66 when done); 1.43
        # arrays in all, 2.57 when every power was dense.  The bound leaves 0.57.
        h, e_dom = self.gain_transient_h()
        tracemalloc.start()
        try:
            got = g_t(h, e_dom, [0.5, 2.0, 5.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got[2] > got[1] > got[0] > 1.0
        assert peak <= 2 * 16 * h.dim**2

    def test_many_factors_stay_banded_at_n_1024(self, monkeypatch):
        # t_0 = 1.3: P(4.5) and P(5) are 9 factors each, powers B^(2^j) and a remainder,
        # each applied slab by slab, never as a dense matrix (10.57 arrays when
        # every factor was dense); the values are those of the dense SVD of the
        # multiplied-out factors
        h, e_dom = self.gain_transient_h()
        times = [1.3, 4.5, 5.0]
        tracemalloc.start()
        try:
            got = g_t(h, e_dom, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * h.dim**2
        factor_counts, oracle = {}, {}
        record_gain = nonnormal._record_gain

        def recorded(gains, t, *factors):
            factor_counts[t] = len(factors)
            p = nonnormal._multiplied_out(factors)
            oracle[t] = float(np.linalg.svd(p, compute_uv=False)[0]) ** 2
            record_gain(gains, t, *factors)

        monkeypatch.setattr(nonnormal, "_record_gain", recorded)
        assert g_t(h, e_dom, times) == got
        assert factor_counts == {1.3: 1, 4.5: 9, 5.0: 9}
        for t, g in zip(times, got):
            assert g == pytest.approx(oracle[t], rel=1e-12, abs=0.0)

    def test_chain_makes_nine_band_products_at_n_1024(self, monkeypatch):
        # tau = 0.5 / 128 gives q = 128, 512 and 1280.  The squarings stop at
        # B^512: t = 5 is B^256 times two copies of B^512, and no product of
        # factors is formed (multiplying out made 11 products: B^1024 and
        # B^256 B^1024 besides these).
        h, e_dom = self.gain_transient_h()
        calls = []
        band_matmul = nonnormal._band_matmul
        monkeypatch.setattr(
            nonnormal, "_band_matmul", lambda *args: calls.append(1) or band_matmul(*args)
        )
        got = g_t(h, e_dom, [0.5, 2.0, 5.0])
        assert len(calls) == 9
        assert got[2] > got[1] > got[0] > 1.0

    def test_factors_sharing_the_top_bit_match_dense_oracle(self):
        # t_0 = 1.3: q(4.5) and q(5.0) share the top bit of the chain, so each
        # takes three copies of its top power besides the set bits below it,
        # and both carry a remainder factor; 1.3 itself is one power of B
        h, e_dom = self.drifting_h()
        times = [4.5, 5.0, 1.3]
        for t, g in zip(times, g_t(h, e_dom, times)):
            assert g == pytest.approx(self.svdvals_oracle(h, e_dom, t), rel=1e-10, abs=0.0)

    def test_clustered_small_times_match_oracle(self):
        # P(t) is close to the identity: its singular values cluster near one.
        # At n = 256, t = 1e-4 and t = 1e-2 restart the Arnoldi basis 30 and 9
        # times before the Ritz value of P^H P is final.
        h, e_dom = self.drifting_h()
        times = [1e-4, 1e-2]
        for t, g in zip(times, g_t(h, e_dom, times)):
            assert g == pytest.approx(self.svdvals_oracle(h, e_dom, t), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("t_small", [1e-15, 1e-30])
    def test_tiny_time_leaves_the_others_alone(self, t_small):
        # a time with t ||G||_1 <= THETA_13 takes its own Taylor step, so it
        # does not shorten the base step of the squaring chain
        h, e_dom = self.drifting_h()
        got = g_t(h, e_dom, [t_small, 5.0])
        assert got[1] == g_t(h, e_dom, [5.0])[0]
        for t, g in zip([t_small, 5.0], got):
            assert g == pytest.approx(self.svdvals_oracle(h, e_dom, t), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_narrow_bands_match_oracle(self, boundary):
        # the early powers of B span a few column blocks of n = 512; on the
        # periodic grid the corners also reach across the whole matrix
        params = AnyonicParams(phi=PHI3, v=0.8 * VC)
        with pytest.warns(UserWarning, match="dx"):
            h = build_h_eff(
                PoschlTeller(nu=1.0, delta=0.2), params, Grid(-40.0, 40.0, 512), boundary
            )
        (e_dom,) = point_states(h, [shifted_point_energy(-1.0, params)]).eigenvalues
        times = [0.5, 2.0, 5.0]
        for t, g in zip(times, g_t(h, e_dom, times)):
            assert g == pytest.approx(self.svdvals_oracle(h, e_dom, t), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "t, message",
        [(1e308, "overflows the step count"), (1e20, "underflowed to zero")],
        ids=["step-count-overflows", "chain-underflows"],
    )
    def test_time_beyond_the_chain_is_a_numerical_error(self, t, message):
        # 1e308 / tau overflows the step count; at 1e20 the chain decays to
        # an all-zero propagator after about 70 products
        params = AnyonicParams(phi=PHI3, v=0.5 * VC)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, Grid(-12.0, 12.0, 128))
        (e_dom,) = point_states(h, [shifted_point_energy(-1.0, params)]).eigenvalues
        with pytest.raises(NumericalError, match=message):
            g_t(h, e_dom, [t])

    def test_flush_is_harmless(self, monkeypatch):
        h, e_dom = self.drifting_h()
        times = [0.5, 2.0, 5.0]
        flushed = g_t(h, e_dom, times)
        monkeypatch.setattr(nonnormal, "FLUSH_FRACTION", 0.0)
        assert g_t(h, e_dom, times) == pytest.approx(flushed, rel=1e-13, abs=0.0)

    @staticmethod
    def count_products_and_svds(monkeypatch):
        """Log "gram" for each product with P^H P and "svd" for each dense SVD of g_t."""
        events = []
        driver, svd = nonnormal._largest_ritz_pair, np.linalg.svd

        def counted(apply, n):
            return driver(lambda x: events.append("gram") or apply(x), n)

        def counted_svd(a, **kw):
            events.extend(["svd"] if kw == {"compute_uv": False} else [])
            return svd(a, **kw)

        monkeypatch.setattr(nonnormal, "_largest_ritz_pair", counted)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        return events

    def test_sigma_max_past_its_restart_budget_falls_back_to_dense_svd(self, monkeypatch):
        # at n = 256, t = 0.05 and t = 0.1 converge after 48 and 34 products,
        # beyond the 20 + 10 of one restart
        h, e_dom = self.drifting_h()
        times = [0.05, 0.1]
        events = self.count_products_and_svds(monkeypatch)
        arnoldi = g_t(h, e_dom, times)
        assert events == ["gram"] * (48 + 34)
        events.clear()
        monkeypatch.setattr(spectra, "ARNOLDI_MAX_RESTARTS", 1)
        got = g_t(h, e_dom, times)
        # each time gives up after a full basis and one restart, then takes one dense SVD
        assert events == (["gram"] * 30 + ["svd"]) * len(times)
        monkeypatch.undo()
        assert got == pytest.approx(arnoldi, rel=1e-12, abs=0.0)
        for t, g in zip(times, got):
            assert g == pytest.approx(self.svdvals_oracle(h, e_dom, t), rel=1e-10, abs=0.0)

    def test_clustered_time_restarts_instead_of_dense_svd(self, monkeypatch):
        # P(1e-4) is within 1e-4 of I, so its singular values cluster: the Ritz
        # value of P^H P takes many restarts, still cheaper than the dense SVD
        h, e_dom = self.drifting_h()
        events = self.count_products_and_svds(monkeypatch)
        (got,) = g_t(h, e_dom, [1e-4])
        monkeypatch.undo()
        budget = spectra.ARNOLDI_VECTORS + spectra.ARNOLDI_KEEP * spectra.ARNOLDI_MAX_RESTARTS
        assert "svd" not in events and spectra.ARNOLDI_VECTORS < len(events) <= budget
        assert got == pytest.approx(self.svdvals_oracle(h, e_dom, 1e-4), rel=1e-10, abs=0.0)

    def test_bitwise_repeatable_across_calls_and_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        h, e_dom = self.drifting_h()
        times = [0.5, 2.0, 5.0]
        first = g_t(h, e_dom, times)
        assert g_t(h, e_dom, times) == first
        with ThreadPoolExecutor(max_workers=2) as pool:
            for got in pool.map(lambda _: g_t(h, e_dom, times), range(2)):
                assert got == first

    def test_dyadic_times_share_one_expm(self, monkeypatch):
        grid = Grid(-12.0, 12.0, 256)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), AnyonicParams(phi=PHI3, v=1.0), grid)
        expm_calls = []
        monkeypatch.setattr(
            nonnormal, "_expm_taylor", lambda a: expm_calls.append(1) or _expm_taylor(a)
        )
        g_t(h, -1.0, [0.5, 2.0, 5.0])
        assert len(expm_calls) == 1

    def test_dimension_cap(self):
        grid = Grid(-30.0, 30.0, 2049)
        h = build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0), grid)
        with pytest.raises(ContractError):
            g_t(h, -1.0, [1.0])

    def test_negative_time_rejected(self):
        grid = Grid(-20.0, 20.0, 128)
        with pytest.warns(UserWarning):
            h = build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0), grid)
        with pytest.raises(DomainError):
            g_t(h, -1.0, [-1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, bad):
        grid = Grid(-12.0, 12.0, 256)
        h = build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0), grid)
        with pytest.raises(DomainError):
            g_t(h, -1.0, [1.0, bad])

    def test_overflow_is_divergence(self):
        # a shift far below the spectrum makes the propagator grow like e^{50 t}
        grid = Grid(-12.0, 12.0, 256)
        h = build_h_eff(PoschlTeller(nu=1.0), AnyonicParams(phi=0.0), grid)
        with pytest.raises(DivergenceError):
            g_t(h, -1.0 - 50.0j, [100.0])

    def test_squared_norm_overflow_is_divergence(self, rng):
        # sigma ~ 1e161 is finite but sigma^2 is not: no G_t sample is ever inf or NaN
        p = 1e160 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        with pytest.raises(DivergenceError, match="norm overflowed"):
            nonnormal._record_gain({}, 1.0, band(p))

    def test_huge_propagator_skips_lanczos_quietly(self, capfd, rng):
        # sigma ~ 1e161: the Gram product P^H P that Arnoldi iterates on would overflow
        p = 1e160 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigma_max(band(p))
        assert got == float(scipy.linalg.svdvals(p)[0])
        assert capfd.readouterr() == ("", "")

    def test_propagator_above_2_255_skips_arnoldi_quietly(self, capfd, rng):
        # sigma ~ 1e101: the vectors P^H P x reach 1e202, whose squared norm overflows
        p = 1e100 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigma_max(band(p))
        assert got == pytest.approx(float(scipy.linalg.svdvals(p)[0]), rel=1e-14, abs=0.0)
        assert capfd.readouterr() == ("", "")

    def test_huge_two_factor_propagator_skips_lanczos_quietly(self, capfd, rng):
        # each factor's bound is ~1e81, so their product's reaches 2^255: the
        # factors are multiplied out and take the dense SVD
        a, b = (1e80 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
                for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigma_max(band(a), band(b))
        assert got == float(scipy.linalg.svdvals(a @ b)[0])
        assert capfd.readouterr() == ("", "")

    def test_non_finite_product_of_factors_is_divergence(self, rng):
        # each factor is finite; their product overflows (g_t ignores the
        # overflow warning, as here)
        a = 1e200 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        assert np.isfinite(a).all()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="propagator overflowed"):
                nonnormal._record_gain({}, 1.0, band(a), band(a))

    @pytest.mark.parametrize("zero", ["factor", "product"])
    def test_factors_whose_product_is_zero_underflow(self, zero):
        # a zero factor, or nonzero factors with a zero product: the corner
        # unit E = e_0 e_63^T has E^2 = 0
        corner = np.zeros((64, 64), dtype=complex)
        corner[0, -1] = 1.0
        factors = (corner, np.zeros_like(corner)) if zero == "factor" else (corner, corner)
        with pytest.raises(NumericalError, match="underflowed to zero"):
            nonnormal._record_gain({}, 1.0, *map(band, factors))

    def test_lanczos_on_factors_matches_their_product(self, rng):
        # commuting non-normal factors exp(A), exp(2 A) and exp(A / 3), in any order
        a = 0.3 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        a[np.tril_indices(64, -2)] = 0.0
        factors = [scipy.linalg.expm(s * a) for s in (1.0, 2.0, 1.0 / 3.0)]
        oracle = float(scipy.linalg.svdvals(factors[0] @ factors[1] @ factors[2])[0])
        for order in ([0, 1, 2], [2, 0, 1]):
            got = _sigma_max(*(band(factors[i]) for i in order))
            assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)

import ast
import cmath
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anyonpt
from anyonpt import (
    AnyonicParams,
    ContractError,
    DomainError,
    Grid,
    HamiltonianMatrix,
    PoschlTeller,
    Tabulated,
    WaveFunction,
    build_h_eff,
    check_anyonic_symmetry,
    continuous_dispersion,
    reflected_wavenumber,
    shifted_point_energy,
)
from anyonpt.model import build_twin


class TestGrid:
    def test_spacing_and_centering(self):
        g = Grid(-40.0, 40.0, 2000)
        assert g.dx == pytest.approx(0.04)
        assert len(g.x) == 2000
        # cell-centered: reflection about 0 is exact index reversal
        assert np.abs(g.x + g.x[::-1]).max() < 1e-12

    def test_validation(self):
        with pytest.raises(ContractError):
            Grid(1.0, -1.0, 64)
        with pytest.raises(ContractError):
            Grid(-1.0, 1.0, 8)

    @pytest.mark.parametrize(
        "half_width, n_points",
        [(1e-300, 256), (1.28e-158, 256), (1e300, 256), (1e308, 64)],
        ids=["dx2-underflows", "inverse-dx2-overflows", "dx2-overflows", "length-overflows"],
    )
    def test_spacing_whose_square_or_its_inverse_is_not_finite_rejected(self, half_width, n_points):
        with pytest.raises(ContractError, match="dx\\^2"):
            Grid(-half_width, half_width, n_points)

    def test_extreme_spacings_with_finite_square_accepted(self):
        for half_width in (1e-150, 1e150):
            dx = Grid(-half_width, half_width, 256).dx
            assert 0.0 < dx**2 < math.inf and 1.0 / dx**2 < math.inf

    def test_symmetry_flag(self):
        assert Grid(-5, 5, 64).is_symmetric()
        assert not Grid(-4, 5, 64).is_symmetric()


class TestPotentials:
    def test_well_at_origin(self):
        assert PoschlTeller(nu=1.0, delta=0.0)(0.0) == pytest.approx(-2.0)

    def test_barrier_complex_shift_oracle(self):
        # independent evaluation through cmath
        spec = PoschlTeller(delta=-0.5, v0=3.0)
        expected = 3.0 / cmath.cosh(0.0 - 1j * (-0.5)) ** 2
        got = spec(0.0)
        assert abs(got - expected) < 1e-12
        assert got.imag == pytest.approx(0.0, abs=1e-14)  # cosh(i d) is real

    def test_short_range_decay(self):
        spec = PoschlTeller(nu=1.0, delta=0.2)
        xs = np.linspace(15.0, 60.0, 40)
        assert np.abs(spec(xs)).max() < 1e-10
        # monotone magnitude decay beyond |x| = 5
        xs = np.linspace(5.0, 30.0, 200)
        mags = np.abs(spec(xs))
        assert np.all(np.diff(mags) < 0)

    def test_pole_proximity_raises(self):
        spec = PoschlTeller(nu=1.0, delta=math.pi / 2 - 1e-13)
        with pytest.raises(DomainError):
            spec(0.0)

    def test_delta_range_enforced(self):
        with pytest.raises(DomainError):
            PoschlTeller(nu=1.0, delta=math.pi / 2)
        with pytest.raises(DomainError):
            PoschlTeller(nu=-1.0)

    def test_tabulated_roundtrip(self, tmp_path):
        g = Grid(-10, 10, 64)
        vals = 1.0 / np.cosh(g.x) ** 2 + 0.1j * np.sin(g.x)
        path = tmp_path / "pot.csv"
        lines = ["x,re_v,im_v"] + [
            f"{x},{v.real},{v.imag}" for x, v in zip(g.x, vals)
        ]
        path.write_text("\n".join(lines) + "\n")
        tab = Tabulated.from_csv(path)
        assert tab.grid.n_points == 64
        assert np.allclose(tab(g.x), vals)
        assert tab(99.0) == 0.0  # outside range

    def test_tabulated_header_may_hold_digits(self, tmp_path):
        # a header is a first row whose first field is no number, digits or not
        path = tmp_path / "pot.csv"
        path.write_text("x1,re,im\n" + "".join(f"{x},0.0,0.0\n" for x in Grid(-1, 1, 16).x))
        assert Tabulated.from_csv(path).grid == Grid(-1, 1, 16)

    def test_tabulated_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0,0.0\n1.0,0.5,0.0\n")
        with pytest.raises(ContractError):
            Tabulated.from_csv(path)


class TestGaugeFactors:
    def test_exact_forms(self):
        p = AnyonicParams(phi=math.pi / 3, v=1.6)
        assert p.alpha == pytest.approx(0.8 * cmath.exp(1j * math.pi / 3))
        assert p.beta == pytest.approx(-0.64 * cmath.exp(1j * math.pi / 3))

    def test_phi_range(self):
        with pytest.raises(DomainError):
            AnyonicParams(phi=-0.1)
        with pytest.raises(DomainError):
            AnyonicParams(phi=2.0)

    @pytest.mark.parametrize("v", [1.0e200, -1.0e200, math.inf, math.nan])
    def test_drift_whose_square_overflows_is_refused(self, v):
        with pytest.raises(DomainError):
            AnyonicParams(phi=0.5, v=v)

    def test_drift_whose_square_is_finite_is_kept(self):
        assert AnyonicParams(phi=0.0, v=1.0e150).beta == pytest.approx(-0.25e300, rel=1e-15)


def _bits(x) -> bytes:
    """The bytes of ``x`` as complex, so that values and the signs of zeros must match."""
    return np.asarray(x, dtype=complex).tobytes()


class TestRotation:
    """Every phase factor comes from AnyonicParams.rotation, bitwise equal to the inline
    formulas e^{-+i phi} = complex(cos phi, -+sin phi) that each site used to build."""

    @staticmethod
    def check_bitwise(phi, v, k, e_n):
        p = AnyonicParams(phi=phi, v=v)
        e_minus = complex(math.cos(phi), -math.sin(phi))
        e_plus = complex(math.cos(phi), math.sin(phi))
        beta = -0.25 * v**2 * e_plus
        ks = np.array([k, -k, 0.0, 0.5 * k])
        assert _bits(p.rotation) == _bits(e_minus)
        assert _bits(p.alpha) == _bits(0.5 * v * e_plus)
        assert _bits(p.beta) == _bits(beta)
        # numpy's arithmetic, not Python's complex: at phi = pi/2, v = 0 and a subnormal k
        # the two differ in the sign of a zero, and ks[0] is k
        assert _bits(continuous_dispersion(k, p)) == _bits((e_minus * ks * ks - ks * v)[0])
        assert _bits(continuous_dispersion(ks, p)) == _bits(e_minus * ks * ks - ks * v)
        assert _bits(shifted_point_energy(e_n, p)) == _bits(e_n * e_minus + beta)
        assert _bits(reflected_wavenumber(k, p)) == _bits(-k + v * e_plus)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 8, math.pi / 4, math.pi / 3, math.pi / 2])
    @pytest.mark.parametrize("v", [0.0, -0.0, 1.3, -2.0])
    def test_matches_the_inline_formulas(self, phi, v):
        self.check_bitwise(phi, v, 0.7, -1.0)

    @settings(max_examples=200)
    @example(phi=math.pi / 2, v=0.0, k=-1.1125369292536007e-308, e_n=-1.0)
    @given(
        phi=st.floats(0.0, math.pi / 2),
        v=st.floats(-1e100, 1e100),
        k=st.floats(-1e3, 1e3),
        e_n=st.floats(-1e6, -1e-6),
    )
    def test_matches_the_inline_formulas_for_drawn_values(self, phi, v, k, e_n):
        self.check_bitwise(phi, v, k, e_n)

    def test_operator_and_twin_carry_the_params(self):
        grid, params = Grid(-40.0, 40.0, 1280), AnyonicParams(phi=math.pi / 3)
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.2), params, grid, "periodic")
        assert h.params is params
        assert build_twin(h).params == h.params


class TestBuildHEff:
    def test_hermitian_limit_is_symmetric_real(self, sym_grid):
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.0), AnyonicParams(phi=0.0), sym_grid)
        m = h.dense()
        assert np.array_equal(m, m.conj().T)
        assert np.abs(m.imag).max() == 0.0

    def test_pt_case_complex_symmetric(self, sym_grid):
        h = build_h_eff(PoschlTeller(nu=1.0, delta=0.3), AnyonicParams(phi=0.0), sym_grid)
        m = h.dense()
        assert np.array_equal(m, m.T)
        assert np.abs(m.imag).max() > 0.0

    def test_free_periodic_eigenvalues_match_stencil_dispersion(self):
        # plane waves diagonalize the periodic stencil exactly
        grid = Grid(-20.0, 20.0, 128)
        params = AnyonicParams(phi=math.pi / 5, v=0.7)
        h = build_h_eff(PoschlTeller(v0=0.0), params, grid, boundary="periodic")
        w = np.linalg.eigvals(h.dense())
        k = grid.k
        rot = cmath.exp(-1j * params.phi)
        exact = rot * (2.0 - 2.0 * np.cos(k * grid.dx)) / grid.dx**2 - params.v * np.sin(
            k * grid.dx
        ) / grid.dx
        w_s = sorted(w, key=lambda z: (round(z.real, 9), z.imag))
        e_s = sorted(exact, key=lambda z: (round(z.real, 9), z.imag))
        assert np.abs(np.asarray(w_s) - np.asarray(e_s)).max() < 1e-10

    def test_free_periodic_matches_continuum_dispersion_at_low_k(self):
        grid = Grid(-40.0, 40.0, 1024)
        params = AnyonicParams(phi=math.pi / 3, v=1.0)
        h = build_h_eff(PoschlTeller(v0=0.0), params, grid, boundary="periodic")
        w = np.linalg.eigvals(h.dense())
        rot = cmath.exp(-1j * params.phi)
        for j in (4, 13, 26):  # on-grid modes; off-grid k only exists up to quantization
            k = grid.k[j]
            target = rot * k * k - k * params.v
            bound = (k**4 / 12 + abs(params.v) * abs(k) ** 3 / 6) * grid.dx**2 * 2
            assert np.abs(w - target).min() < bound

    @staticmethod
    def dense_oracle(spec, params, grid, boundary):
        """Reference assembly: dense kinetic + potential stencil plus a dense i v D1."""
        n = grid.n_points
        rot = complex(math.cos(params.phi), -math.sin(params.phi))
        h = np.zeros((n, n), dtype=complex)
        idx = np.arange(n)
        h[idx, idx] = 2.0 * rot / grid.dx**2 + rot * np.asarray(spec(grid.x), dtype=complex)
        off = -rot / grid.dx**2
        h[idx[:-1], idx[:-1] + 1] = off
        h[idx[:-1] + 1, idx[:-1]] = off
        c = 1j * params.v / (2.0 * grid.dx)
        d = np.zeros((n, n), dtype=complex)
        d[idx[:-1], idx[:-1] + 1] = c
        d[idx[:-1] + 1, idx[:-1]] = -c
        if boundary == "periodic":
            h[0, -1] = h[-1, 0] = off
            d[-1, 0] = c
            d[0, -1] = -c
        return h + d

    @pytest.mark.parametrize("phi", [0.0, math.pi / 8, math.pi / 3, math.pi / 2])
    @pytest.mark.parametrize("v", [0.0, -0.0, 1.3, -2.0])
    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("kind", ["well", "barrier", "tabulated"])
    def test_dense_matches_reference_assembly_bitwise(self, phi, v, boundary, kind, rng):
        grid = Grid(-10.0, 10.0, 200)
        if kind == "tabulated":
            vals = rng.standard_normal(200) + 1j * rng.standard_normal(200)
            vals[::5] = complex(1.0, -0.0)  # -0.0 parts: the signs must match too
            vals[::7] = complex(-0.0, -0.0)
            spec = Tabulated(grid, vals)
        elif kind == "well":
            spec = PoschlTeller(nu=1.4, delta=0.35)
        else:
            spec = PoschlTeller(delta=-0.5, v0=3.0)
        params = AnyonicParams(phi=phi, v=v)
        h = build_h_eff(spec, params, grid, boundary)
        assert h.dense().tobytes() == self.dense_oracle(spec, params, grid, boundary).tobytes()
        # the drift couplings are the antisymmetric pair +/- i v/(2 dx)
        assert (h.upper - h.lower) / 2 == pytest.approx(1j * v / (2 * grid.dx), rel=1e-12)
        assert (h.upper + h.lower) / 2 == pytest.approx(-cmath.exp(-1j * phi) / grid.dx**2)

    def test_coarse_grid_warns(self):
        grid = Grid(-40.0, 40.0, 128)
        with pytest.warns(UserWarning):
            build_h_eff(PoschlTeller(), AnyonicParams(phi=0.0), grid)


class TestAnyonicSymmetry:
    @pytest.mark.parametrize("phi, delta", [(math.pi / 3, 0.2), (0.0, 0.2), (0.0, 0.0)])
    def test_stationary_pt_well(self, sym_grid, phi, delta):
        h = build_h_eff(PoschlTeller(nu=1.0, delta=delta), AnyonicParams(phi=phi), sym_grid)
        assert check_anyonic_symmetry(h)

    def test_random_potential_breaks_it(self, sym_grid, rng):
        vals = rng.standard_normal(sym_grid.n_points) + 1j * rng.standard_normal(
            sym_grid.n_points
        )
        h = build_h_eff(Tabulated(sym_grid, vals), AnyonicParams(phi=0.3), sym_grid)
        assert not check_anyonic_symmetry(h)

    def test_perturbed_tabulated_breaks_it(self, sym_grid):
        vals = np.array(PoschlTeller(nu=1.0, delta=0.2)(sym_grid.x))
        assert check_anyonic_symmetry(
            build_h_eff(Tabulated(sym_grid, vals), AnyonicParams(phi=0.0), sym_grid)
        )
        vals[100] += 1e-6
        h = build_h_eff(Tabulated(sym_grid, vals), AnyonicParams(phi=0.0), sym_grid)
        assert not check_anyonic_symmetry(h)

    def test_asymmetric_grid_rejected(self):
        grid = Grid(-4.0, 5.0, 90)
        h = build_h_eff(PoschlTeller(), AnyonicParams(phi=0.0), grid)
        with pytest.raises(ContractError):
            check_anyonic_symmetry(h)

    @settings(max_examples=25, deadline=None)
    @given(nu=st.floats(0.3, 3.0), delta=st.floats(-1.4, 1.4))
    def test_every_real_shift_is_pt(self, nu, delta):
        grid = Grid(-20.0, 20.0, 400)
        h = build_h_eff(PoschlTeller(nu=nu, delta=delta), AnyonicParams(phi=0.0), grid)
        assert check_anyonic_symmetry(h)

    def test_drifting_barrier(self, sym_grid):
        # drift included: the first-order block is PT-even, the rest rotates
        phi = math.pi / 8
        h = build_h_eff(
            PoschlTeller(delta=-0.5, v0=3.0),
            AnyonicParams(phi=phi, v=-2.0),
            sym_grid,
            boundary="periodic",
        )
        assert check_anyonic_symmetry(h)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 8, math.pi / 3, math.pi / 2])
    @pytest.mark.parametrize("v", [0.0, 1.3, -2.0])
    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_holds_for_all_pt_inputs(self, phi, v, boundary):
        grid = Grid(-20.0, 20.0, 400)
        h = build_h_eff(
            PoschlTeller(nu=1.4, delta=0.35), AnyonicParams(phi=phi, v=v), grid, boundary
        )
        assert check_anyonic_symmetry(h)


class TestWaveFunction:
    def test_norm_and_normalize(self, sym_grid):
        psi = WaveFunction(sym_grid, np.exp(-sym_grid.x**2))
        n = psi.norm()
        assert n == pytest.approx(math.sqrt(math.sqrt(math.pi / 2)), rel=1e-10)
        assert psi.normalized().norm() == pytest.approx(1.0, rel=1e-12)

    def test_length_mismatch(self, sym_grid):
        with pytest.raises(ContractError):
            WaveFunction(sym_grid, np.zeros(7, dtype=complex))

    @pytest.mark.parametrize(
        "make",
        [
            WaveFunction,
            Tabulated,
            lambda grid, values: HamiltonianMatrix(
                grid, values, -1.0, -1.0, "dirichlet", AnyonicParams(0.0)
            ),
        ],
        ids=["wave-function", "tabulated", "hamiltonian-diagonal"],
    )
    @pytest.mark.parametrize(
        "values", [np.zeros(7), np.full(64, np.nan), np.full(64, 1j * np.inf)],
        ids=["wrong-shape", "nan", "inf"],
    )
    def test_samples_fit_the_grid_and_are_finite(self, make, values):
        grid = Grid(-5.0, 5.0, 64)
        with pytest.raises(ContractError):
            make(grid, values)
        kept = make(grid, np.ones(64))
        samples = kept.diagonal if isinstance(kept, HamiltonianMatrix) else kept.values
        assert samples.dtype == complex and not samples.flags.writeable

    def test_values_read_only(self, sym_grid):
        psi = WaveFunction(sym_grid, np.ones(sym_grid.n_points, dtype=complex))
        with pytest.raises(ValueError):
            psi.values[0] = 2.0


def test_package_exports_are_exported_by_their_modules():
    # each name anyonpt/__init__.py imports is one `from anyonpt.<module> import *` gives:
    # the module's __all__, or its public names where it declares none
    imports = [
        node
        for node in ast.parse(Path(anyonpt.__file__).read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(f"anyonpt.{node.module}")
        exported = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        missing = [alias.name for alias in node.names if alias.name not in exported]
        assert not missing, (node.module, missing)

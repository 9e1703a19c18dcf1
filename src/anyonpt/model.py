"""Grids, parameters, complex potentials and the discretized drift Hamiltonian.

Everything downstream works with the moving-frame operator

    H_eff = -exp(-i phi) d^2/dx^2 + exp(-i phi) V(x) + i v d/dx

in nondimensional units (hbar = 1, 2m = 1).  The anyonic phase ``phi``
rotates a PT-symmetric operator in the complex plane; the drift velocity
``v`` enters through the first-derivative term picked up by the Galilean
boost into the frame co-moving with the potential.

All types here are immutable value objects and every operation is pure,
so instances can be shared freely across threads and sweep workers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "Grid",
    "AnyonicParams",
    "PoschlTeller",
    "Tabulated",
    "PotentialSpec",
    "WaveFunction",
    "HamiltonianMatrix",
    "build_h_eff",
    "build_twin",
    "check_anyonic_symmetry",
    "trapz",
]

# |x| beyond which sech-type profiles underflow double precision anyway.
_SECH_CUTOFF = 350.0
# Dense operators are n x n complex: one 8192^2 matrix is 1 GiB.
DENSE_MAX_DIM = 8192
# 128x the largest shipped grid; caps grids and band samples before allocation.
MAX_GRID_POINTS = 2**20
# HamiltonianMatrix.is_hermitian allows this skew, relative to the bands.
HERMITIAN_RTOL = 1e-12
# build_twin serves only while both of its error exponents E exceed this, where each error
# is at most about 0.07 e^{-E} of the 1-norm: 3e-19 at E = 40, far below rounding.
TWIN_MIN_EXPONENT = 40.0


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid on [x_min, x_max] with cell-centered samples.

    Samples sit at ``x_min + (j + 1/2) dx`` with ``dx = (x_max - x_min) / n_points``,
    so a grid symmetric about the origin maps exactly onto itself under index
    reversal ``j -> n - 1 - j``.  That alignment is what makes the parity checks
    below exact for both Dirichlet and periodic operators.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (self.x_min < self.x_max):
            raise ContractError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 16:
            raise ContractError(f"n_points must be >= 16, got {self.n_points}")
        dx2 = self.dx * self.dx  # build_h_eff divides by it
        if not (0.0 < dx2 < math.inf and 1.0 / dx2 < math.inf):
            raise ContractError(f"grid spacing {self.dx:.3g} has no finite nonzero dx^2 and 1/dx^2")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @cached_property
    def x(self) -> np.ndarray:
        # Centered construction keeps reflection bitwise-exact on symmetric
        # grids: x[n-1-j] == -x[j] when x_min == -x_max.
        center = 0.5 * (self.x_min + self.x_max)
        x = center + (np.arange(self.n_points) - 0.5 * (self.n_points - 1)) * self.dx
        x.flags.writeable = False
        return x

    @cached_property
    def k(self) -> np.ndarray:
        """FFT wavenumbers matching ``np.fft.fft`` ordering."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)
        k.flags.writeable = False
        return k

    def is_symmetric(self) -> bool:
        return abs(self.x_min + self.x_max) < 1e-12


@dataclass(frozen=True)
class AnyonicParams:
    """Anyonic phase phi in [0, pi/2] and drift velocity v."""

    phi: float
    v: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.phi <= math.pi / 2 + 1e-15):
            raise DomainError(f"phi must lie in [0, pi/2], got {self.phi}")
        # phi's range check refuses nan and inf; v**2 would raise OverflowError, v * v gives inf
        if not math.isfinite(self.v * self.v):
            raise DomainError(f"v^2 must be finite, got v = {self.v}")

    @property
    def rotation(self) -> complex:
        """e^{-i phi}, which rotates the kinetic and potential terms; its conjugate is e^{i phi}."""
        return complex(math.cos(self.phi), -math.sin(self.phi))

    @property
    def alpha(self) -> complex:
        """Gauge wavenumber (v/2) e^{i phi}.

        The substitution psi = phi_stat * exp(i alpha x - i beta t) removes the drift
        term from H_eff; for phi != 0 the factor exp(i alpha x) is unbounded, which is
        the mechanism behind every delocalization effect in this package.
        """
        return 0.5 * self.v * self.rotation.conjugate()

    @property
    def beta(self) -> complex:
        """Gauge energy -(v^2/4) e^{i phi}."""
        return -0.25 * self.v**2 * self.rotation.conjugate()


def _sech_complex(x: np.ndarray, delta: float) -> np.ndarray:
    """sech(x - i delta) evaluated without cancellation or overflow.

    Uses cosh(x - i d) = cosh x cos d - i sinh x sin d and flushes the
    underflowed far tails to zero instead of letting cosh overflow.
    """
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -_SECH_CUTOFF, _SECH_CUTOFF)
    ch = np.cosh(xc) * math.cos(delta) - 1j * np.sinh(xc) * math.sin(delta)
    bad = np.abs(ch) < 1e-12
    if np.any(bad):
        raise DomainError("potential pole within 1e-12 of the sampling point")
    out = 1.0 / ch
    out = np.where(np.abs(x) > _SECH_CUTOFF, 0.0 + 0.0j, out)
    return out


@dataclass(frozen=True)
class PoschlTeller:
    """sech^2 well or barrier with a constant imaginary coordinate shift.

    ``V(x) = amplitude / cosh^2(x - i delta)`` where ``amplitude`` is
    ``-nu (nu + 1)`` for the well, or the explicit ``v0`` when given
    (positive v0 = barrier).  PT symmetry V(-x) = V*(x) holds for any real
    delta; the operator stays in the unbroken phase for |delta| < pi/2.
    """

    nu: float = 1.0
    delta: float = 0.0
    v0: float | None = None

    def __post_init__(self):
        if self.v0 is None and not self.nu > 0:
            raise DomainError(f"well strength nu must be positive, got {self.nu}")
        if not abs(self.delta) < math.pi / 2:
            raise DomainError(f"|delta| must be < pi/2 to stay pole-free, got {self.delta}")

    @property
    def amplitude(self) -> float:
        return self.v0 if self.v0 is not None else -self.nu * (self.nu + 1.0)

    @property
    def well_nu(self) -> float | None:
        """nu with amplitude -nu (nu + 1), None for a barrier; from v0 without cancellation,
        as -2 v0 / (1 + sqrt(1 - 4 v0)): v0 = -1e-20 gives 1e-20, and v0 = -2 gives 1.0."""
        if self.v0 is None:
            return self.nu
        return -2.0 * self.v0 / (1.0 + math.sqrt(1.0 - 4.0 * self.v0)) if self.v0 < 0 else None

    def __call__(self, x) -> np.ndarray:
        scalar = np.isscalar(x)
        s = _sech_complex(np.atleast_1d(np.asarray(x, dtype=float)), self.delta)
        v = self.amplitude * s * s
        return complex(v[0]) if scalar else v


def _samples(grid: Grid, values, what: str) -> np.ndarray:
    """A read-only complex copy of ``values``, one finite sample per point of ``grid``."""
    vals = np.array(values, dtype=complex)
    if vals.shape != (grid.n_points,):
        raise ContractError(f"{what}: need {grid.n_points} samples, got shape {vals.shape}")
    if not np.isfinite(vals).all():
        raise ContractError(f"{what} contains non-finite samples")
    vals.flags.writeable = False
    return vals


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Complex potential given by grid-aligned samples.

    Off-grid evaluation interpolates linearly in the real and imaginary
    parts and returns 0 outside the tabulated range (short-range tails
    are assumed, as everywhere in this package).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _samples(self.grid, self.values, "tabulated potential"))

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "Tabulated":
        """Load from a 3-column CSV (x, Re V, Im V) with a header row: one whose first
        field does not parse as a number."""
        path = Path(path)
        with path.open() as fh:
            try:
                float(fh.readline().split(",")[0])
            except ValueError:
                pass
            else:
                raise ContractError(f"{path}: first row must be a header")
            data = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
        if data.shape[1] != 3:
            raise ContractError(f"{path}: expected 3 columns (x, re, im), got {data.shape[1]}")
        x = data[:, 0]
        dxs = np.diff(x)
        if len(x) < 16 or not np.allclose(dxs, dxs[0], rtol=1e-8, atol=1e-12):
            raise ContractError(f"{path}: x column must be a uniform grid with >= 16 points")
        dx = float(dxs[0])
        grid = Grid(float(x[0]) - dx / 2, float(x[-1]) + dx / 2, len(x))
        return cls(grid=grid, values=data[:, 1] + 1j * data[:, 2])

    def __call__(self, x) -> np.ndarray:
        scalar = np.isscalar(x)
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        xs = self.grid.x
        re = np.interp(xq, xs, self.values.real, left=0.0, right=0.0)
        im = np.interp(xq, xs, self.values.imag, left=0.0, right=0.0)
        v = re + 1j * im
        return complex(v[0]) if scalar else v


PotentialSpec = Union[PoschlTeller, Tabulated]


def trapz(values: np.ndarray, dx: float) -> float:
    """Trapezoidal quadrature, the integration rule used throughout."""
    return float(np.trapezoid(values, dx=dx))


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex field sampled on a grid, with trapezoidal L2 geometry."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _samples(self.grid, self.values, "wave function"))

    def norm_squared(self) -> float:
        return trapz(np.abs(self.values) ** 2, self.grid.dx)

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise DomainError("cannot normalize the zero function")
        return WaveFunction(self.grid, self.values / n)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """H_eff discretized with second-order central differences, stored as its bands.

    ``diagonal`` holds 2 exp(-i phi)/dx^2 + exp(-i phi) V(x_j); the constant
    couplings are ``upper`` = -exp(-i phi)/dx^2 + i v/(2 dx) on (j, j+1) and
    ``lower`` = -exp(-i phi)/dx^2 - i v/(2 dx) on (j+1, j).  A "periodic"
    ``boundary`` adds the corners (0, n-1) = ``lower`` and (n-1, 0) = ``upper``;
    "dirichlet" clamps the field beyond the ends.  ``cyclic_diagonals`` lays the
    bands and corners out as three rows of n, the form that the shift-invert LU
    and the Taylor steps of ``g_t`` work on; ``dense`` fills an n x n copy from
    them for the dense algorithms.  ``params`` holds the phase and drift
    velocity, for ``check_anyonic_symmetry``, which treats the drift couplings
    apart, for ``solve_spectrum``, which undoes the rotation, and for ``build_twin``.
    ``potential`` is the spec that ``build_h_eff`` sampled, for ``build_twin``;
    it is no constructor argument, and ``dataclasses.replace`` resets it to None,
    so an operator whose bands were changed has no twin.
    """

    grid: Grid
    diagonal: np.ndarray
    upper: complex
    lower: complex
    boundary: str
    params: AnyonicParams
    potential: PotentialSpec | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.boundary not in ("dirichlet", "periodic"):
            raise ContractError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(self, "diagonal", _samples(self.grid, self.diagonal, "diagonal"))

    @property
    def dim(self) -> int:
        return self.grid.n_points

    def cyclic_diagonals(self, shift: complex = 0.0) -> np.ndarray:
        """H - shift as its three cyclic diagonals, a 3 x n complex array.

        Row 1 + d holds the entries (j, (j + d) mod n), d = -1, 0, 1: ``lower``
        with the corner (0, n-1) first, the diagonal, and ``upper`` with the
        corner (n-1, 0) last.  A Dirichlet operator's two corners are zero.
        """
        n = self.dim
        diags = np.empty((3, n), dtype=complex)
        diags[0], diags[1], diags[2] = self.lower, self.diagonal - shift, self.upper
        if self.boundary == "dirichlet":
            diags[0, 0] = diags[2, -1] = 0.0
        return diags

    def dense(self, real_form: bool = False) -> np.ndarray:
        """The full n x n matrix, C-ordered, for the dense algorithms that need one.

        ``real_form`` gives Re H - (Im H) P, P the index reversal: for a PT-symmetric
        H this is S^H H S, S = (I + iP)/sqrt(2) unitary, a real matrix similar to H.
        Both are filled from ``cyclic_diagonals``, with no other n x n array.
        """
        n = self.dim
        if n > DENSE_MAX_DIM:
            raise ContractError(f"dense matrix capped at dimension {DENSE_MAX_DIM}, got {n}")
        rows = np.arange(n)
        out = np.zeros((n, n), dtype=float if real_form else complex)
        for d, entries in zip((-1, 0, 1), self.cyclic_diagonals()):
            cols = (rows + d) % n
            if real_form:
                out[rows, cols] += entries.real
                out[rows, n - 1 - cols] -= entries.imag
            else:
                out[rows, cols] = entries
        return out

    def is_hermitian(self) -> bool:
        """H^H = H to HERMITIAN_RTOL of the largest band entry (at least 1)."""
        c = np.array([self.upper, self.lower])
        scale = max(1.0, np.abs(self.diagonal).max(), np.abs(c).max())
        skew = max(np.abs(2 * self.diagonal.imag).max(), np.abs(c - c[::-1].conj()).max())
        return bool(skew < HERMITIAN_RTOL * scale)

    def is_pt_symmetric(self) -> bool:
        """P conj(H) P = H, P the index reversal, to 8 ulps of the largest band entry."""
        d, scale = self.diagonal, max(np.abs(self.diagonal).max(), abs(self.upper), abs(self.lower))
        skew = max(np.abs(d[::-1].conj() - d).max(), abs(np.conj(self.lower) - self.upper))
        return bool(skew <= 8 * np.finfo(float).eps * scale)


def build_h_eff(
    spec: PotentialSpec,
    params: AnyonicParams,
    grid: Grid,
    boundary: str = "dirichlet",
) -> HamiltonianMatrix:
    """Assemble the banded moving-frame Hamiltonian on the given grid.

    -exp(-i phi) d^2/dx^2 and exp(-i phi) V(x) use the three-point Laplacian;
    the drift i v d/dx uses central first differences, which keeps the
    transpose structure that the symmetry checks rely on.
    """
    if grid.dx > 0.1:
        warnings.warn(
            f"dx = {grid.dx:.3g} exceeds the recommended 0.1 for sech^2-scale potentials",
            stacklevel=2,
        )
    return _assemble(spec, params, grid, boundary)


def _assemble(spec: PotentialSpec, params: AnyonicParams, grid: Grid, boundary: str):
    rot = params.rotation
    vvals = np.asarray(spec(grid.x), dtype=complex)
    off = -rot / grid.dx**2
    drift = 1j * params.v / (2.0 * grid.dx)
    # + 0j turns -0.0 parts into +0.0, as in the matrices behind the shipped outputs.
    diag = 2.0 * rot / grid.dx**2 + rot * vvals + 0j
    h = HamiltonianMatrix(grid, diag, off + drift, off + (-drift), boundary, params)
    object.__setattr__(h, "potential", spec)
    return h


def build_twin(h: HamiltonianMatrix):
    """The delta = 0 twin of ``h``, an operator from ``build_h_eff``, or None.

    On a periodic grid the imaginary translation x -> x - i delta is the Fourier-space
    similarity diag(e^{-delta q}), which commutes with the kinetic and drift terms.  So
    H(delta) has the eigenvalues of the real well's H(0) up to two errors, measured as a
    fraction of the 1-norm against dense solves of H(delta) for nu = 1, |delta| <= 1:
    the aliasing of V at the Nyquist wavenumber, about 0.07 e^{-E} with E = (pi/2 -
    |delta|) pi/dx, and the well's tails cut at the box edges, at most 1.1e-3 e^{-E} with
    E = 2 d (1 - |delta|/pi), d the distance from the well to the nearer edge.  The twin
    is returned only where ``solve_spectrum`` can use it: a periodic grid, a shifted
    Poschl-Teller potential, e^{i phi} H(0) Hermitian (v = 0 or phi = 0), and both
    exponents above TWIN_MIN_EXPONENT.  Its potential, phase, drift, grid and
    boundary are read off ``h``, so an operator without a ``potential`` has none.
    """
    spec, grid = h.potential, h.grid
    if not (h.boundary == "periodic" and isinstance(spec, PoschlTeller) and spec.delta):
        return None
    shift = abs(spec.delta)
    aliasing = (math.pi / 2 - shift) * math.pi / grid.dx
    edges = 2.0 * min(-grid.x_min, grid.x_max) * (1.0 - shift / math.pi)
    if (h.params.v and h.params.phi) or not min(aliasing, edges) > TWIN_MIN_EXPONENT:
        return None
    return _assemble(replace(spec, delta=0.0), h.params, grid, h.boundary)


def check_anyonic_symmetry(h: HamiltonianMatrix) -> bool:
    """Verify (PK) H (PK) = e^{2 i phi} H, P = index reversal, K = conjugation.

    The drift block i v D1 is PT-even for every real v (PK maps its coupling
    -i v/(2 dx) to conj(-i v/(2 dx)) = i v/(2 dx)), so only the rest of H
    carries the phase.  With the drift couplings stripped, e^{i phi} times
    the rest must be PT-symmetric; that is the band test of
    ``HamiltonianMatrix.is_pt_symmetric``, which ``solve_spectrum`` also uses.
    """
    if not h.grid.is_symmetric():
        raise ContractError("symmetry check needs a grid symmetric about x = 0")
    drift = 1j * h.params.v / (2.0 * h.grid.dx)
    rot = h.params.rotation.conjugate()  # exp(i phi)
    rest = replace(
        h, diagonal=h.diagonal * rot, upper=(h.upper - drift) * rot, lower=(h.lower + drift) * rot
    )
    return rest.is_pt_symmetric()

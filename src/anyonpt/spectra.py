"""Analytic and numerical spectra of the drifting phase-rotated Hamiltonian.

Analytic side: the continuous band follows the bent dispersion curve
``E(k) = exp(-i phi) k^2 - k v``; bound energies of the stationary problem
shift to ``E_n exp(-i phi) - (v^2/4) exp(i phi)`` and survive only while the
drift stays below the critical velocity ``2 sqrt(|E_n|)/sin(phi)``.

Numerical side: a dense eigensolve of the discretized operator for the
whole eigenvalue cloud, or a shift-invert solve for the eigenpairs nearest
given energies; either way eigenvalues are classified into point and
continuum parts by participation ratio and localization lengths read off
exponential tail fits.

Boundary conditions matter here more than in the Hermitian world: with a
drift the open-boundary (Dirichlet) spectrum collapses onto the undrifted
one and every eigenvector piles up against a wall, so spectra that should
display the bent band or the delocalization transition must be computed
with periodic boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .model import (
    AnyonicParams,
    GaugeFactors,
    Grid,
    HamiltonianMatrix,
    WaveFunction,
    trapz,
)

__all__ = [
    "DispersionCurve",
    "BoundStateFamily",
    "SpectrumResult",
    "continuous_dispersion",
    "poschl_teller_energies",
    "shifted_point_energy",
    "critical_velocity",
    "critical_wavenumber",
    "moving_bound_state",
    "solve_spectrum",
    "point_states",
    "fit_localization_length",
]

# Point states must have participation ratio below this fraction of the box.
PR_BOX_FRACTION = 0.2
# Tail fits of fit_localization_length: log|u| on [peak + offset, peak + offset
# + span] on each side, over at least TAIL_MIN_POINTS samples above
# TAIL_FLOOR times the peak.
TAIL_FIT_OFFSET = 10.0
TAIL_FIT_SPAN = 15.0
TAIL_FLOOR = 1e-13
TAIL_MIN_POINTS = 6


def continuous_dispersion(k, params: AnyonicParams):
    """Scattering-branch energy e^{-i phi} k^2 - k v (scalar or array k)."""
    rot = complex(math.cos(params.phi), -math.sin(params.phi))
    k = np.asarray(k, dtype=float)
    e = rot * k * k - k * params.v
    return complex(e) if e.ndim == 0 else e


@dataclass(frozen=True)
class DispersionCurve:
    k_samples: np.ndarray
    energy: np.ndarray

    @classmethod
    def sample(cls, params: AnyonicParams, k_max: float, n: int = 801) -> "DispersionCurve":
        k = np.linspace(-k_max, k_max, n)
        return cls(k_samples=k, energy=continuous_dispersion(k, params))


@dataclass(frozen=True)
class BoundStateFamily:
    """Bound energies E_1 < ... < E_N < 0 of a stationary sech^2 well."""

    energies: tuple
    count: int


def poschl_teller_energies(nu: float) -> BoundStateFamily:
    """E_n = -(nu - n + 1)^2 for n = 1..N with N = 1 + floor(nu).

    For integer nu the n = N member is the zero-energy edge state; it is not
    normalizable and is excluded from the family.
    """
    if not nu > 0:
        raise DomainError(f"nu must be positive, got {nu}")
    n_states = 1 + math.floor(nu)
    energies = [-((nu - n + 1.0) ** 2) for n in range(1, n_states + 1)]
    energies = [e for e in energies if e < 0.0]
    energies.sort()
    return BoundStateFamily(energies=tuple(energies), count=len(energies))


def shifted_point_energy(e_n: float, params: AnyonicParams) -> complex:
    """Bound energy in the moving frame: E_n e^{-i phi} - (v^2/4) e^{i phi}."""
    if not e_n < 0:
        raise DomainError(f"bound energy must be negative, got {e_n}")
    beta = GaugeFactors.from_params(params).beta
    rot = complex(math.cos(params.phi), -math.sin(params.phi))
    return e_n * rot + beta


def critical_velocity(e_n: float, phi: float):
    """Drift speed 2 sqrt(|E_n|)/sin(phi) beyond which the state delocalizes.

    Returns None for phi = 0: the Galilean-invariant case has no finite
    threshold.  The comparison against an actual drift should use |v|.
    """
    if not e_n < 0:
        raise DomainError(f"bound energy must be negative, got {e_n}")
    if not (0.0 <= phi <= math.pi / 2 + 1e-15):
        raise DomainError(f"phi must lie in [0, pi/2], got {phi}")
    if phi == 0.0:
        return None
    return 2.0 * math.sqrt(-e_n) / math.sin(phi)


def critical_wavenumber(e_n: float, phi: float) -> float:
    """Wavenumber sqrt(-E_n)/tan(phi) where the shifted bound energy meets the band."""
    if not e_n < 0:
        raise DomainError(f"bound energy must be negative, got {e_n}")
    if not (0.0 < phi <= math.pi / 2 + 1e-15):
        raise DomainError("critical wavenumber needs 0 < phi <= pi/2")
    return math.sqrt(-e_n) / math.tan(phi)


def delocalization_margin(e_n: float, params: AnyonicParams) -> float:
    """sqrt(|E_n|) - |v/2| sin(phi); positive iff the drifting state is normalizable."""
    if not e_n < 0:
        raise DomainError(f"bound energy must be negative, got {e_n}")
    return math.sqrt(-e_n) - abs(0.5 * params.v) * math.sin(params.phi)


def moving_bound_state(u_n: WaveFunction, e_n: float, params: AnyonicParams):
    """Dress a stationary bound state with the drift gauge factor e^{i alpha x}.

    Returns the renormalized profile while sqrt(|E_n|) > |v/2| sin(phi), i.e.
    below the critical drift; returns None at or beyond it, where the dressed
    tail stops decaying on one side.  For v > 0 the slowly decaying side is
    x -> -inf with amplitude rate sqrt(|E_n|) - (v/2) sin(phi); v < 0 mirrors it.
    """
    if delocalization_margin(e_n, params) <= 0.0:
        return None
    alpha = GaugeFactors.from_params(params).alpha
    dressed = u_n.values * np.exp(1j * alpha * u_n.grid.x)
    return WaveFunction(u_n.grid, dressed).normalized()


def fit_localization_length(u: WaveFunction):
    """Localization length 1/rate from log-linear tail fits on both sides.

    Fits log|u| on the TAIL_FIT_* windows away from the amplitude peak.  Sides
    whose fitted outward slope is non-negative (rising tails, e.g. wrap-around
    leakage on periodic grids) or that have too few samples above the noise
    floor are discarded.  Returns inf when no side yields a valid decay rate.
    """
    x = u.grid.x
    a = np.abs(u.values)
    peak_val = a.max()
    if peak_val == 0.0:
        return math.inf
    x_peak = x[int(np.argmax(a))]
    rates = []
    for sign in (+1.0, -1.0):
        s = sign * (x - x_peak)
        window = (s >= TAIL_FIT_OFFSET) & (s <= TAIL_FIT_OFFSET + TAIL_FIT_SPAN)
        mask = window & (a > TAIL_FLOOR * peak_val)
        if int(mask.sum()) < TAIL_MIN_POINTS:
            continue
        slope = np.polyfit(x[mask], np.log(a[mask]), 1)[0]
        outward = sign * slope
        if outward < 0.0:
            rates.append(-outward)
    if not rates:
        return math.inf
    return 1.0 / min(rates)


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Eigenpairs of a discretized operator (all, or targeted), classified and measured.

    ``eigenvectors`` holds trapezoid-normalized eigenvectors as columns;
    ``classification`` entries are "point" or "continuum".
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    classification: np.ndarray
    localization_length: np.ndarray
    hermitian_path: bool = False

    @property
    def point_count(self) -> int:
        return int(np.sum(self.classification == "point"))

    def point_indices(self) -> np.ndarray:
        return np.nonzero(self.classification == "point")[0]

    def eigenvector(self, i: int) -> WaveFunction:
        return WaveFunction(self.grid, self.eigenvectors[:, i])

    def nearest(self, target: complex) -> int:
        """Index of the eigenvalue closest to ``target``."""
        return int(np.argmin(np.abs(self.eigenvalues - target)))

    def csv_rows(self):
        for i in range(len(self.eigenvalues)):
            yield (
                self.eigenvalues[i].real,
                self.eigenvalues[i].imag,
                str(self.classification[i]),
                float(self.localization_length[i]),
            )


def _normalized(vecs: np.ndarray, dx: float) -> np.ndarray:
    """Columns scaled to unit norm under trapezoidal quadrature."""
    return vecs / np.sqrt(np.trapezoid(np.abs(vecs) ** 2, dx=dx, axis=0))


def _labelled(h: HamiltonianMatrix, w, vecs, hermitian_path: bool = False) -> SpectrumResult:
    """Label normalized eigenpairs point or continuum; fit the point-state tails."""
    inv_pr = np.trapezoid(np.abs(vecs) ** 4, dx=h.grid.dx, axis=0)
    pr = np.where(inv_pr > 0, 1.0 / inv_pr, np.inf)
    is_point = pr < PR_BOX_FRACTION * h.grid.length
    classification = np.where(is_point, "point", "continuum")

    loc = np.full(len(w), np.inf)
    for i in np.nonzero(is_point)[0]:
        loc[i] = fit_localization_length(WaveFunction(h.grid, vecs[:, i]))

    return SpectrumResult(
        grid=h.grid,
        eigenvalues=w,
        eigenvectors=vecs,
        classification=classification,
        localization_length=loc,
        hermitian_path=hermitian_path,
    )


def solve_spectrum(h: HamiltonianMatrix) -> SpectrumResult:
    """Dense eigensolve of the operator matrix with point/continuum labeling.

    Hermitian matrices are routed to the symmetric solver; everything else
    goes through the general complex (Hessenberg/QR) path, which is the only
    reliable option for these non-normal matrices.  Eigenvalues are returned
    sorted by (Re, Im); eigenvectors are normalized under trapezoidal
    quadrature.  A state is labeled "point" when its participation ratio
    (1 / integral |u|^4 for normalized u) is below 0.2 of the box length.
    """
    n = h.dim
    m = h.dense()
    try:
        if h.is_hermitian():
            w, vecs = np.linalg.eigh(m)
            w = w.astype(complex)
            hermitian_path = True
        else:
            w, vecs = np.linalg.eig(m)
            hermitian_path = False
    except np.linalg.LinAlgError as exc:
        norm1 = float(np.abs(m).sum(axis=0).max())
        raise NumericalError(
            f"eigensolver failed: {exc} (dim={n}, boundary={h.boundary}, "
            f"matrix 1-norm={norm1:.3e})"
        ) from exc

    order = np.lexsort((w.imag, w.real))
    vecs = vecs[:, order]
    vecs = _normalized(vecs, h.grid.dx)  # the unsorted copy is already freed
    return _labelled(h, w[order], vecs, hermitian_path)


def point_states(h: HamiltonianMatrix, targets) -> SpectrumResult:
    """The eigenpairs of ``h`` nearest each target, by ARPACK shift-invert.

    One solve per target factorizes only the operator's three bands (plus
    the two corners of a periodic grid) instead of solving the whole dense
    spectrum (Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*, SIAM 1998).
    Pairs come in target order, a pair reached from two targets once, and
    are normalized and labeled as in ``solve_spectrum``.  The fixed start
    vector makes repeated calls agree bitwise.
    """
    # Imported here: scipy.sparse.linalg adds ~20 ms to every start-up.
    import scipy.sparse.linalg

    n = h.dim
    bands = {-1: h.lower, 0: h.diagonal, 1: h.upper}
    if h.boundary == "periodic":
        bands.update({1 - n: h.upper, n - 1: h.lower})
    band = scipy.sparse.diags(list(bands.values()), list(bands), shape=(n, n), format="csc")
    values, vectors = [], []
    for target in targets:
        try:
            (value,), vec = scipy.sparse.linalg.eigs(
                band, k=1, sigma=target, v0=np.ones(n, dtype=complex)
            )
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            where = f"near {target} (dim={n}, boundary={h.boundary})"
            raise NumericalError(f"shift-invert eigensolve {where} failed: {exc}") from exc
        # two shifts that reach one eigenvalue agree to roundoff; distinct ones lie far apart
        if not any(abs(value - w) <= 1e-9 * abs(value) for w in values):
            values.append(complex(value))
            vectors.append(vec[:, 0])
    return _labelled(h, np.array(values), _normalized(np.stack(vectors, axis=1), h.grid.dx))

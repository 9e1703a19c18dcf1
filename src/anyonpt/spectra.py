"""Analytic and numerical spectra of the drifting phase-rotated Hamiltonian.

Analytic side: the continuous band follows the bent dispersion curve
``E(k) = exp(-i phi) k^2 - k v``; bound energies of the stationary problem
shift to ``E_n exp(-i phi) - (v^2/4) exp(i phi)`` and survive only while the
drift stays below the critical velocity ``2 sqrt(|E_n|)/sin(phi)``.

Numerical side: the eigenvalues of the discretized operator, and vectors
only for its point states.  ``solve_spectrum`` takes the whole eigenvalue
cloud from the parity halves or bands of a Hermitian operator (or of the
Hermitian delta = 0 twin of a shifted well, which it builds itself from any
operator of ``build_h_eff``) or in O(n^2) from the roots of a drifting periodic
operator's transfer-matrix determinant, and otherwise from a dense eigenvalue-only
solve; ``point_states`` takes the eigenpairs nearest given energies from
shift-invert solves.
A state's localization length is read off its eigenvalue: outside the well
the eigenvector is a sum of powers z^j, with z a root of the bands' edge
recurrence, and |z| sets how fast each tail decays (Hatano & Nelson, PRL 77,
570, 1996).  These root lengths screen the cloud for candidate point states,
which ``point_states`` then solves for; a state is point when both the
participation ratio of its vector and its root length are short against the
box, else continuum.

Boundary conditions matter here more than in the Hermitian world: with a
drift the open-boundary (Dirichlet) spectrum collapses onto the undrifted
one and every eigenvector piles up against a wall, so spectra that should
display the bent band or the delocalization transition must be computed
with periodic boundaries.  A state piled against a wall grows toward it
rather than decaying on both sides, so its root length is infinite and it
is labeled continuum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DomainError, NumericalError
from .model import HERMITIAN_RTOL, AnyonicParams, Grid, HamiltonianMatrix, WaveFunction, build_twin

__all__ = [
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

# Point states have participation ratio below this fraction of the box ...
PR_BOX_FRACTION = 0.2
# ... and root length below this fraction of the box, 2.5 times PR_BOX_FRACTION;
# solve_spectrum solves for the vectors of these eigenvalues only.  A state
# whose tails decay on both sides, at lengths l_L and l_R, has participation
# ratio l_L + l_R, at least its root length max(l_L, l_R), so for such states
# the screen drops none that the participation ratio calls point.  A state
# whose tail grows toward a wall (Dirichlet ends under drift) has infinite root
# length and is continuum, however small its participation ratio.
ROOT_SCREEN_FRACTION = 2.5 * PR_BOX_FRACTION
# Two eigenvalues this close, relative to their size, are one eigenvalue.
SAME_EIGENVALUE_RTOL = 1e-9
# Root iteration: a root is final once its step is below ABERTH_TOL of the 1-norm,
# all within ABERTH_MAX_SWEEPS (the shipped drifts, 0.5 and 0.9 v_c, take 20 and 18).
ABERTH_TOL = 1e-13
ABERTH_MAX_SWEEPS = 64
ABERTH_BLOCK = 64
ABERTH_RESCALE = 16
# Arnoldi of _largest_ritz_pair: a basis of at most ARNOLDI_VECTORS, ARPACK's default,
# restarted from its ARNOLDI_KEEP Ritz vectors of largest |theta| at most
# ARNOLDI_MAX_RESTARTS times.
ARNOLDI_VECTORS = 20
ARNOLDI_KEEP = 10
ARNOLDI_MAX_RESTARTS = 50
# Largest n of the parity split, the largest shipped spectrum grid.  Per solve it costs more than
# eig_banded (0.038 against 0.022 s at n = 1280, one BLAS thread) but spares scipy's import (0.12 s,
# 26 MB): a run of 4 points at rest and n = 1280 spent less CPU split, one of 8 3% more.
SPLIT_MAX_DIM = 1280
# Tail fits of fit_localization_length: log|u| on [peak + offset, peak + offset
# + span] on each side, over at least TAIL_MIN_POINTS samples above
# TAIL_FLOOR times the peak.
TAIL_FIT_OFFSET = 10.0
TAIL_FIT_SPAN = 15.0
TAIL_FLOOR = 1e-13
TAIL_MIN_POINTS = 6


def continuous_dispersion(k, params: AnyonicParams):
    """Scattering-branch energy e^{-i phi} k^2 - k v (scalar or array k)."""
    k = np.asarray(k, dtype=float)
    e = params.rotation * k * k - k * params.v
    return complex(e) if e.ndim == 0 else e


def poschl_teller_energies(nu: float) -> tuple:
    """Bound energies E_1 < ... < E_N < 0 of a stationary sech^2 well.

    E_n = -(nu - n + 1)^2 for n = 1..N with N = 1 + floor(nu).  For integer
    nu the n = N member is the zero-energy edge state; it is not
    normalizable and is excluded from the family.
    """
    if not nu > 0:
        raise DomainError(f"nu must be positive, got {nu}")
    n_states = 1 + math.floor(nu)
    energies = [-((nu - (n - 1)) ** 2) for n in range(1, n_states + 1)]  # (nu - n) + 1 cancels for tiny nu
    energies = [e for e in energies if e < 0.0]
    return tuple(energies)


def _bound_decay_rate(e_n: float) -> float:
    """sqrt(-E_n), the decay rate of the stationary state at bound energy E_n < 0."""
    if not e_n < 0:
        raise DomainError(f"bound energy must be negative, got {e_n}")
    return math.sqrt(-e_n)


def shifted_point_energy(e_n: float, params: AnyonicParams) -> complex:
    """Bound energy in the moving frame: E_n e^{-i phi} - (v^2/4) e^{i phi}."""
    _bound_decay_rate(e_n)  # checks that E_n is a bound energy
    return e_n * params.rotation + params.beta


def critical_velocity(e_n: float, phi: float) -> float:
    """Drift speed 2 sqrt(|E_n|)/sin(phi) beyond which the state delocalizes.

    Returns inf for phi = 0: the Galilean-invariant case has no finite
    threshold.  The comparison against an actual drift should use |v|.
    """
    rate = _bound_decay_rate(e_n)
    AnyonicParams(phi=phi)  # checks phi's range
    if phi == 0.0:
        return math.inf
    return 2.0 * rate / math.sin(phi)


def critical_wavenumber(e_n: float, phi: float) -> float:
    """Wavenumber sqrt(-E_n)/tan(phi) where the shifted bound energy meets the band."""
    if not (0.0 < phi <= math.pi / 2 + 1e-15):
        raise DomainError("critical wavenumber needs 0 < phi <= pi/2")
    return _bound_decay_rate(e_n) / math.tan(phi)


def delocalization_margin(e_n: float, params: AnyonicParams) -> float:
    """sqrt(|E_n|) - |v/2| sin(phi); positive iff the drifting state is normalizable."""
    return _bound_decay_rate(e_n) - abs(0.5 * params.v) * math.sin(params.phi)


def moving_bound_state(u_n: WaveFunction, e_n: float, params: AnyonicParams):
    """Dress a stationary bound state with the drift gauge factor e^{i alpha x}.

    Returns the renormalized profile while sqrt(|E_n|) > |v/2| sin(phi), i.e.
    below the critical drift; returns None at or beyond it, where the dressed
    tail stops decaying on one side.  For v > 0 the slowly decaying side is
    x -> -inf with amplitude rate sqrt(|E_n|) - (v/2) sin(phi); v < 0 mirrors it.
    """
    if delocalization_margin(e_n, params) <= 0.0:
        return None
    dressed = u_n.values * np.exp(1j * params.alpha * u_n.grid.x)
    return WaveFunction(u_n.grid, dressed).normalized()


def fit_localization_length(u: WaveFunction):
    """Localization length 1/rate from log-linear tail fits on both sides.

    A diagnostic for a given profile; the solvers read lengths off the
    eigenvalue instead (``_root_lengths``), since the tails of a fast-decaying
    state fall to roundoff inside the fit window.  ``perfbench/trace.py``
    wraps this function by name.

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


def _root_lengths(h: HamiltonianMatrix, w) -> np.ndarray:
    """Localization length of the eigenvector of each eigenvalue in ``w``, from its tails.

    Beyond the well an eigenvector with eigenvalue lam is a sum of powers z^j
    with ``upper z^2 + (d - lam) z + lower = 0``, d being the diagonal at that
    edge.  The right tail decays at -ln|z_<|/dx, the smaller root's rate, and
    the left tail at ln|z_>|/dx.  The length is 1/(the slower rate), or inf
    when either tail does not decay.  This is the discrete form of the margin
    sqrt(|E_n|) - |v/2| sin(phi).
    """
    w = np.asarray(w, dtype=complex)

    def root_moduli(d):
        b = d - w
        disc = np.sqrt(b * b - 4.0 * h.upper * h.lower)
        # the sign that adds |b| and |disc| avoids cancellation; the other root
        # follows from the product lower/upper
        q = -0.5 * (b + np.where((b.conj() * disc).real >= 0.0, disc, -disc))
        return np.abs(q / h.upper), np.abs(h.lower / q)

    with np.errstate(divide="ignore", invalid="ignore"):
        right = -np.log(np.minimum(*root_moduli(h.diagonal[-1]))) / h.grid.dx
        left = np.log(np.maximum(*root_moduli(h.diagonal[0]))) / h.grid.dx
        return np.where((right > 0) & (left > 0), 1.0 / np.minimum(right, left), np.inf)


def _newton_ratios(h: HamiltonianMatrix, z) -> np.ndarray:
    """f/f' at each z; the roots of f(lam) = tr M - 1 - (lower/upper)^n are the periodic spectrum.

    M = T_{n-1}...T_0, T_j = [[(lam - d_j)/upper, -lower/upper], [1, 0]].  The gauge
    psi_j = s^j phi_j, s = g/upper, g = sqrt(upper lower), makes T_j [[(lam - d_j)/g,
    -1], [1, 0]] and f = s^n (tr M' - s^n - s^-n).  On the longest cyclic run of L > 1 equal
    d_j the T_j are one T, so tr M' = tr(T^L W): W and dW/dlam share one recurrence over the
    other sites, and T^L = alpha T + beta comes by squaring (T^2 = a T - 1, a = tr T).
    """
    g = np.sqrt(h.upper * h.lower)
    starts = np.flatnonzero(h.diagonal != np.roll(h.diagonal, 1)).tolist() or [0]  # of each run
    runs = np.diff(starts, append=starts[0] + h.dim)
    run = int(runs.max()) if runs.max() > 1 else 0
    dg, zg = np.roll(h.diagonal / g, -(starts[runs.argmax()] + run)), z / g
    # [previous, current, next step] x [both columns of W, g d/dlam of each]
    bufs = np.zeros((3, 4, len(z)), dtype=complex)
    (prev, cur, nxt), exponent = bufs, 0
    cur[0] = prev[1] = 1.0
    for j in range(0, h.dim - run, ABERTH_RESCALE):
        for a in zg - dg[j:min(j + ABERTH_RESCALE, h.dim - run), None]:
            np.multiply(a, cur, out=nxt)
            nxt -= prev
            nxt[2:] += cur[:2]
            prev, cur, nxt = cur, nxt, prev
        e = np.frexp(np.abs(bufs[:, :2]).max(axis=(0, 1)))[1]
        bufs *= np.ldexp(1.0, -e)
        exponent += e
    a = zg - dg[-1]  # the run's last site, rolled behind W's
    power, e_power = np.eye(4, dtype=complex)[1, :, None] + np.zeros(len(z)), 0  # T^0
    for bit in f"{run:b}".lstrip("0"):  # T^2k, then T^(2k+1) = T^2k T, down the bits of L
        p, q, dp, dq = power  # alpha, beta and their d/da
        p, q, dp, dq = (a * p * p + 2 * p * q, q * q - p * p,
                        p * p + 2 * (a * p * dp + dp * q + p * dq), 2 * (q * dq - p * dp))
        power = np.array((a * p + q, -p, p + a * dp + dq, -dp) if bit == "1" else (p, q, dp, dq))
        e = np.frexp(np.abs(power).max(axis=0))[1]
        power, e_power = power * np.ldexp(1.0, -e), 2 * e_power + e
    (p, q, dp, dq), exponent = power, exponent + e_power
    tw, w = a * cur[0] - prev[0] + cur[1], cur[0] + prev[1]  # tr(T W), tr W
    dtw = a * cur[2] - prev[2] + cur[3] + cur[0]
    log_sn, log_scale = h.dim * np.log(g / h.upper), exponent * math.log(2.0)
    rest = np.exp(log_sn - log_scale) + np.exp(-log_sn - log_scale)
    return g * (p * tw + q * w - rest) / (dp * tw + p * dtw + dq * w + q * (cur[2] + prev[3]))


def _aberth_pull(z, active):
    """sum_{j != k} 1/(z_k - z_j) at each active k, each pair of active roots taken once; None
    when an active root is not finite or within SAME_EIGENVALUE_RTOL of another, of either size."""
    m = len(active)
    z = np.concatenate((z[active], np.delete(z, active)))  # the active roots first
    xy, limit = np.array((z.real, -z.imag)), (SAME_EIGENVALUE_RTOL * np.abs(z)) ** 2
    sums = np.zeros((2, m))  # Re and Im: 1/w = conj(w)/|w|^2, w = z_k - z_j
    for lo in range(0, m, ABERTH_BLOCK):
        rows = slice(lo, min(lo + ABERTH_BLOCK, m))
        w = xy[:, rows, None] - xy[:, None, lo:]  # conj(w), each row k against j >= k
        d2 = np.einsum("ijk,ijk->jk", w, w)  # |w|^2
        d2[np.tri(*d2.shape, dtype=bool)] = np.inf  # j <= k: no pair, or one of an earlier row
        if not ((d2.min(axis=1) > limit[rows]).all() and (d2.min(axis=0) > limit[lo:]).all()):
            return None
        w /= d2
        sums[:, rows] += w.sum(axis=2)  # + to row k, - to an active row j
        sums[:, lo:] -= w[:, :, :m - lo].sum(axis=1)
        del w, d2  # before the next block's
    return sums[0] + 1j * sums[1]


def _aberth_eigenvalues(h: HamiltonianMatrix):
    """The eigenvalues of a periodic ``h`` by Ehrlich-Aberth sweeps on ``_newton_ratios``, or None.

    A sweep moves each active z_k by N_k / (1 - N_k S_k), N_k = f/f' and S_k = sum_{j != k}
    1/(z_k - z_j) from ``_aberth_pull`` (Bini, Gemignani & Tisseur, SIAM J. Matrix Anal. Appl.
    27, 153, 2005), starting at the free ring's eigenvalues plus a fixed jitter.  None when a
    root still moves after ABERTH_MAX_SWEEPS, or two come within SAME_EIGENVALUE_RTOL (it crawls).
    """
    norm1 = float(np.abs(h.diagonal).max() + abs(h.upper) + abs(h.lower))
    theta = 2.0 * np.pi * (np.arange(h.dim) + 0.5) / h.dim
    z = h.diagonal[0] + h.upper * np.exp(1j * theta) + h.lower * np.exp(-1j * theta)
    z += norm1 / h.dim * np.exp(2j * np.arange(h.dim))  # splits the ring's degenerate pairs
    active = np.arange(h.dim)
    with np.errstate(all="ignore"):  # a root driven to inf or nan ends in None
        for _ in range(ABERTH_MAX_SWEEPS):
            if not len(active) or (pull := _aberth_pull(z, active)) is None:
                break  # all final, or None: two roots too close, or one not finite
            ratio = _newton_ratios(h, z[active])
            step = ratio / (1.0 - ratio * pull)
            z[active] -= step
            active = active[~(np.abs(step) < ABERTH_TOL * norm1)]
    return None if len(active) else z


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Eigenvalues of a discretized operator (all, or targeted), classified and measured.

    ``localization_length`` is the root length of a point state and inf for
    the continuum, so a state is point exactly when its length is finite;
    ``classification`` spells that out as "point" or "continuum" per
    eigenvalue.  ``eigenvectors`` holds trapezoid-normalized eigenvectors
    as columns, one per entry of ``vector_indices``, the index of its
    eigenvalue: every pair of a targeted solve, only the point states of a
    whole spectrum.  ``solver`` names the eigensolve of a whole spectrum
    (see ``solve_spectrum``); it is empty for a targeted solve.
    """

    grid: Grid
    eigenvalues: np.ndarray
    localization_length: np.ndarray
    eigenvectors: np.ndarray
    vector_indices: np.ndarray
    solver: str = ""

    @property
    def classification(self) -> np.ndarray:
        return np.where(np.isfinite(self.localization_length), "point", "continuum")

    @property
    def point_count(self) -> int:
        return len(self.point_indices())

    def point_indices(self) -> np.ndarray:
        return np.flatnonzero(np.isfinite(self.localization_length))

    def eigenvector(self, i: int) -> WaveFunction:
        cols = np.flatnonzero(self.vector_indices == i)
        if not len(cols):
            raise ContractError(f"eigenvalue {i} was solved without its eigenvector")
        return WaveFunction(self.grid, self.eigenvectors[:, cols[0]])

    def nearest(self, target: complex) -> int:
        """Index of the eigenvalue closest to ``target``."""
        return int(np.argmin(np.abs(self.eigenvalues - target)))

    def csv_rows(self):
        rows = zip(self.eigenvalues, self.classification, self.localization_length)
        for w, label, length in rows:
            yield w.real, w.imag, str(label), float(length)


def _ring_band(h: HamiltonianMatrix, shift: complex = 0.0) -> tuple:
    """H - shift as a band: the order of its sites, the band's half-width, and its rows.

    A Dirichlet operator is a band of half-width 1 as it stands.  A periodic ring,
    reordered 0, n-1, 1, n-2, ..., keeps each coupling within two places, a band of
    half-width 2.  Row j of the n x 5 array holds columns j - 2 .. j + 2 of the
    reordered H - shift, so a Dirichlet chain's band has zero outer diagonals.
    """
    n = h.dim
    order, width = np.arange(n), 1
    if h.boundary == "periodic":
        order[0::2], order[1::2] = np.arange((n + 1) // 2), np.arange(n - 1, (n - 1) // 2, -1)
        width = 2
    where = np.empty(n, dtype=int)  # the place of each site
    where[order] = np.arange(n)
    rows = np.zeros((n, 5), dtype=complex)
    for d, entries in zip((-1, 0, 1), h.cyclic_diagonals(shift)):
        col = where[(np.arange(n) + d) % n] - where
        keep = np.abs(col) <= width  # a Dirichlet chain's zero corners fall outside
        rows[where[keep], col[keep] + 2] = entries[keep]
    return order, width, rows


def _banded_eigenvalues(k: HamiltonianMatrix) -> tuple:
    """The eigenvalues of a Hermitian ``k``, and whether its bands are real.

    A real ``k`` of dimension at most SPLIT_MAX_DIM whose diagonal is bitwise its own
    mirror image splits by parity (Cantoni & Butler, Linear Algebra Appl. 13, 275, 1976)
    into an even and an odd tridiagonal half: k's diagonal and couplings t, +-t where the
    middle sites meet and at a ring's corner, and at odd n sqrt(2) t to the middle site.
    numpy's ``eigvalsh`` solves each, O((n/2)^3), 0.04 s at n = 1280 (one BLAS thread).
    Any other ``k`` takes LAPACK's band solver, O(n^2) on ``k`` in ``_ring_band``'s order.
    """
    scale = max(1.0, np.abs(k.diagonal).max(), abs(k.upper))
    real = abs(k.upper.imag) <= HERMITIAN_RTOL * scale
    n, m, d, t = k.dim, k.dim // 2, k.diagonal.real, k.lower.real
    if real and n <= SPLIT_MAX_DIM and np.array_equal(d, d[::-1]):
        w = []
        for sign, size in ((1.0, n - m), (-1.0, m)):
            a = np.diag(d[:size])
            a[np.arange(1, size), np.arange(size - 1)] = t  # the lower triangle eigvalsh reads
            if n % 2 == 0:
                a[m - 1, m - 1] += sign * t
            elif sign > 0:
                a[m, m - 1] = math.sqrt(2.0) * t
            if k.boundary == "periodic":
                a[0, 0] += sign * t
            w.append(np.linalg.eigvalsh(a))
            del a  # before the next half's
        return np.concatenate(w), True
    import scipy.linalg  # here, not at the top: it adds to every start-up

    _, width, rows = _ring_band(k)
    # lower band storage: row d holds the entries (j + d, j), rows[j + d, 2 - d]
    band = np.zeros((width + 1, k.dim), dtype=float if real else complex)
    band[0] = rows[:, 2].real
    for d in range(1, width + 1):
        band[d, :-d] = rows[d:, 2 - d].real if real else rows[d:, 2 - d]
    w = scipy.linalg.eig_banded(
        band, lower=True, eigvals_only=True, overwrite_a_band=True, check_finite=False
    )
    return w, real


def solve_spectrum(h: HamiltonianMatrix) -> SpectrumResult:
    """Every eigenvalue of the operator, labeled point or continuum.

    An eigenvalue-only solve gives the whole cloud, along one of the paths
    that ``solver`` names.  K = e^{i phi} H undoes the anyonic rotation.
    A Hermitian K is solved by parity halves or on its bands by ``_banded_eigenvalues``,
    "real-symmetric" when its couplings are real, else "complex-hermitian" (0.04 s
    at n = 1280, one BLAS thread, against 1.1 s for a real form).
    ``build_twin(h)`` gives the delta = 0 twin of a shifted well from ``build_h_eff``,
    whose K is Hermitian and which has H's eigenvalues: the imaginary translation
    x -> x - i delta is a Fourier-space similarity, exact up to the aliasing of V at
    the Nyquist wavenumber, about 0.07 e^{-E} of the 1-norm with E = (pi/2 - |delta|)
    pi/dx, and the well's tails cut at the box edges; it serves only while both
    exponents exceed TWIN_MIN_EXPONENT = 40.  An operator made by
    ``dataclasses.replace`` has no potential and so no twin.  The twin's banded
    solve gives the cloud ("hermitian-twin"); root lengths and point states still
    come from H.
    Otherwise a PT-symmetric K (at rest, or at phi = 0) is similar to the real
    matrix ``K.dense(real_form=True)`` (Bender & Boettcher, PRL 80, 5243, 1998)
    and goes to the real general solver ("real-general"); every other matrix
    goes to the complex general (Hessenberg/QR) one ("complex-general"), the only
    reliable dense option for these non-normal matrices, except that a periodic
    one first tries the O(n^2) ``_aberth_eigenvalues`` ("complex-aberth").
    Only the two general solves hold an n x n copy, which ``HamiltonianMatrix.dense``
    refuses above dimension 8192; the parity split holds two (n/2)^2 arrays, the others O(n).
    Eigenvalues are sorted by (Re, Im).
    Those whose root length is below ROOT_SCREEN_FRACTION of the box are
    solved again by ``point_states``; a state is labeled "point" when the
    participation ratio of that vector (1 / integral |u|^4 for normalized u)
    is below PR_BOX_FRACTION of the box; on every path its eigenvalue and root
    length are those of that solve on H.  The result carries the vectors of
    the point states only.
    """
    rot = h.params.rotation.conjugate()  # exp(i phi)
    twin = build_twin(h)
    k = twin if twin is not None else h
    if h.params.phi:  # K = H at phi = 0
        k = replace(k, diagonal=k.diagonal * rot, upper=k.upper * rot, lower=k.lower * rot)
    hermitian = k.is_hermitian()
    if twin is not None and not hermitian:
        raise ContractError("the delta = 0 twin of the operator must have a Hermitian e^{i phi} H")
    real = hermitian or k.is_pt_symmetric()
    try:
        if hermitian:
            w, real_bands = _banded_eigenvalues(k)
            w = w.astype(complex)
            solver = "real-symmetric" if real_bands else "complex-hermitian"
            solver = "hermitian-twin" if twin is not None else solver
        elif not real and h.boundary == "periodic" and (w := _aberth_eigenvalues(h)) is not None:
            solver = "complex-aberth"
        else:
            # the transpose has the same eigenvalues and is in LAPACK's (Fortran)
            # layout, so that overwrite_a copies nothing
            solver = "real-general" if real else "complex-general"
            import scipy.linalg  # only the dense solves need it; it adds to every start-up
            w = scipy.linalg.eigvals(
                (k if real else h).dense(real_form=real).T, overwrite_a=True, check_finite=False
            )
    except np.linalg.LinAlgError as exc:
        norm1 = float(np.abs(h.diagonal).max() + abs(h.upper) + abs(h.lower))
        raise NumericalError(
            f"eigensolver failed: {exc} (dim={h.dim}, boundary={h.boundary}, "
            f"matrix 1-norm={norm1:.3e})"
        ) from exc
    if real and h.params.phi:
        w = w * rot.conjugate()  # K's eigenvalues, rotated back
    w = w[np.lexsort((w.imag, w.real))]
    candidates = np.flatnonzero(_root_lengths(h, w) < ROOT_SCREEN_FRACTION * h.grid.length)

    owners, vecs = np.array([], dtype=int), np.empty((h.dim, 0), dtype=complex)
    lengths = np.full(len(w), np.inf)
    if len(candidates):
        found = point_states(h, w[candidates])
        got = found.eigenvalues
        # each pair belongs to the candidate it converged to
        owned = candidates[np.abs(got[:, None] - w[candidates]).argmin(axis=1)]
        off = np.abs(got - w[owned]) > SAME_EIGENVALUE_RTOL * np.abs(got)
        if off.any():
            raise NumericalError(
                f"shift-invert solve near {w[owned][off][0]} converged to {got[off][0]}, "
                f"not to the dense eigenvalue (dim={h.dim}, boundary={h.boundary})"
            )
        is_point = np.isfinite(found.localization_length)
        owners, vecs = owned[is_point], found.eigenvectors[:, is_point]
        # a point state's value is H's own, whichever path gave the cloud
        w[owners], lengths[owners] = got[is_point], found.localization_length[is_point]

    return SpectrumResult(
        grid=h.grid,
        eigenvalues=w,
        localization_length=lengths,
        eigenvectors=vecs,
        vector_indices=owners,
        solver=solver,
    )


def _band_lu(h: HamiltonianMatrix, shift: complex) -> tuple:
    """LU factors of H - shift with partial pivoting, in the order of ``_ring_band``.

    The ring itself is factored, corners and all, from the rows of ``_ring_band``;
    a Dirichlet chain's zero outer diagonals never win a pivot.  Each step picks
    the largest of the three candidates in its column (the first on a tie), as
    LAPACK's band LU does, so U has up to four entries right of its diagonal.
    Returns the order, each step's (pivot row offset, two multipliers) and each
    U row as (1 / diagonal, four entries); a zero pivot raises LinAlgError.
    """
    order, _, band = _ring_band(h, shift)
    zero = 0j
    rows = list(map(tuple, band.tolist())) + [(zero,) * 5] * 3  # three zero rows past the end
    # the three candidate rows of the current column j, each as its columns j .. j + 4
    a, b, c = rows[0][2:] + (zero, zero), rows[1][1:] + (zero,), rows[2]
    steps, upper = [], []
    for d in rows[3:]:
        pa, pb, pc = abs(a[0]), abs(b[0]), abs(c[0])
        if pb > pa and pb >= pc:
            a, b, p = b, a, 1
        elif pc > pa and pc > pb:
            a, c, p = c, a, 2
        elif pa:
            p = 0
        else:
            raise np.linalg.LinAlgError(f"H - {shift} is singular")
        a0, a1, a2, a3, a4 = a
        r0 = 1.0 / a0
        m1, m2 = b[0] * r0, c[0] * r0
        b = (b[1] - m1 * a1, b[2] - m1 * a2, b[3] - m1 * a3, b[4] - m1 * a4, zero)
        c = (c[1] - m2 * a1, c[2] - m2 * a2, c[3] - m2 * a3, c[4] - m2 * a4, zero)
        steps.append((p, m1, m2))
        upper.append((r0, a1, a2, a3, a4))
        a, b, c = b, c, d
    return order, steps, upper


def _band_solve(lu: tuple, rhs: np.ndarray) -> np.ndarray:
    """x with (H - shift) x = rhs, from the factors of ``_band_lu``."""
    order, steps, upper = lu
    y = rhs[order].tolist() + [0j, 0j]
    y0, y1, lower = y[0], y[1], []
    for (p, m1, m2), y2 in zip(steps, y[2:]):  # the row swaps and L
        if p == 1:
            y0, y1 = y1, y0
        elif p == 2:
            y0, y2 = y2, y0
        lower.append(y0)
        y0, y1 = y1 - m1 * y0, y2 - m2 * y0
    x1 = x2 = x3 = x4 = 0j
    back = []
    for (r0, u1, u2, u3, u4), z in zip(reversed(upper), reversed(lower)):  # U
        x1, x2, x3, x4 = (z - u1 * x1 - u2 * x2 - u3 * x3 - u4 * x4) * r0, x1, x2, x3
        back.append(x1)
    x = np.empty(len(back), dtype=complex)
    x[order] = back[::-1]
    return x


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove from ``w``, in place, its components along the orthonormal rows of ``basis``
    by classical Gram-Schmidt, done twice; returns the coefficients removed."""
    removed = np.zeros(len(basis), dtype=complex)
    for _ in range(2):
        c = basis.conj() @ w
        w -= c @ basis
        removed += c
    return removed


def _largest_ritz_pair(apply, n: int) -> tuple | None:
    """The Ritz pair (theta, x) of largest |theta| of the linear map ``apply`` on C^n, or None.

    Arnoldi from the normalized ones vector, so repeated calls agree bitwise,
    orthogonalized by ``_orthogonalize``.  A Ritz pair (theta, y) of the
    projected matrix is final once ARPACK's test holds: its Ritz estimate, the
    norm of the last residual times |y_m|, is at most eps |theta| (Lehoucq,
    Sorensen & Yang, *ARPACK Users' Guide*, SIAM 1998).  A full basis of
    ARNOLDI_VECTORS restarts from its ARNOLDI_KEEP Ritz vectors of largest
    |theta|, orthonormalized (a thick restart, Stewart, SIAM J. Matrix Anal.
    Appl. 23, 601, 2001); None once ARNOLDI_MAX_RESTARTS restarts found no
    final pair.
    ``apply`` must return a new array.
    """
    size, eps = ARNOLDI_VECTORS, np.finfo(float).eps
    basis = np.zeros((size + 1, n), dtype=complex)  # rows v_1 .. v_{m+1}
    proj = np.zeros((size + 1, size), dtype=complex)  # apply(V_m) = V_{m+1} proj
    basis[0], start = 1.0 / math.sqrt(n), 0
    for _ in range(ARNOLDI_MAX_RESTARTS + 1):
        for m in range(start, size):
            w = apply(basis[m])
            proj[: m + 1, m] = _orthogonalize(w, basis[: m + 1])
            beta = proj[m + 1, m] = np.linalg.norm(w)
            theta, y = np.linalg.eig(proj[: m + 1, : m + 1])  # LinAlgError on inf or nan
            i = int(np.argmax(np.abs(theta)))
            if beta * abs(y[m, i]) <= eps * abs(theta[i]):
                return theta[i], y[:, i] @ basis[: m + 1]
            basis[m + 1] = w / beta
        start = ARNOLDI_KEEP
        q = np.linalg.qr(y[:, np.argsort(-np.abs(theta))[:start]])[0]
        basis[:start], basis[start] = q.T @ basis[:size], basis[size]
        kept = q.conj().T @ proj[:size] @ q
        proj[:] = 0.0
        proj[:start, :start], proj[start, :start] = kept, beta * q[-1]
    return None


def point_states(h: HamiltonianMatrix, targets) -> SpectrumResult:
    """The eigenpairs of ``h`` nearest each target, by shift-invert Arnoldi.

    Each target factors only the operator's band, the ring's corners included,
    in O(n) (``_band_lu``), instead of solving the whole dense spectrum, and
    takes the Ritz pair (theta, x) of largest |theta| of (H - target)^{-1}
    (``_largest_ritz_pair``): lambda = target + 1/theta.  Its LU dies before
    the next target's is built.  Pairs come in target order, a pair reached
    from two targets once, and are trapezoid-normalized.  A pair is a point
    state, with its root length, when its participation ratio is below
    PR_BOX_FRACTION and its root length below ROOT_SCREEN_FRACTION of the box.
    """
    values, vectors = [], []
    for target in map(complex, targets):
        where = f"near {target} (dim={h.dim}, boundary={h.boundary})"
        try:  # the LU dies with the call, before the next target's is built
            pair = _largest_ritz_pair(functools.partial(_band_solve, _band_lu(h, target)), h.dim)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"shift-invert eigensolve {where} failed: {exc}") from exc
        if pair is None:
            raise NumericalError(
                f"shift-invert eigensolve {where} failed: "
                f"no convergence after {ARNOLDI_MAX_RESTARTS} restarts"
            )
        theta, vec = pair
        value = complex(target + 1.0 / theta)
        # two shifts that reach one eigenvalue agree to roundoff; distinct ones lie far apart
        if not any(abs(value - w) <= SAME_EIGENVALUE_RTOL * abs(value) for w in values):
            values.append(value)
            vectors.append(vec)
    w, vecs = np.array(values), np.stack(vectors, axis=1)
    vecs = vecs / np.sqrt(np.trapezoid(np.abs(vecs) ** 2, dx=h.grid.dx, axis=0))
    inv_pr = np.trapezoid(np.abs(vecs) ** 4, dx=h.grid.dx, axis=0)
    pr = np.where(inv_pr > 0, 1.0 / inv_pr, np.inf)
    lengths = _root_lengths(h, w)
    is_point = (pr < PR_BOX_FRACTION * h.grid.length) & (
        lengths < ROOT_SCREEN_FRACTION * h.grid.length
    )
    return SpectrumResult(h.grid, w, np.where(is_point, lengths, np.inf), vecs, np.arange(len(w)))

"""Non-normal dynamics diagnostics: transient growth, asymptotic gain, self-orthogonality.

The drifting operator is non-normal: its eigenfunctions are not orthogonal,
so perturbations can be transiently amplified far beyond what the eigenvalues
suggest.  ``g_t`` measures the worst-case power amplification at time t as the
squared norm of the propagator, a band of column blocks, relative to the dominant
bound state: the largest Ritz value of P^H P by the Arnoldi of ``point_states``;
its t -> infinity limit ``g_infinity`` is the excess-noise (Petermann) factor

    G = [ I |u|^2 e^{-v x sin phi} dx ] [ I |u|^2 e^{+v x sin phi} dx ] / | I u^2 dx |^2

of the closed-form ground state u = sech^nu(x - i delta), summed on the
lattice of ``gain_grid``.  It blows up both at the delocalization threshold
(the weighted integrals diverge) and at the exceptional point delta -> pi/2
(|u|^2 concentrates while I u^2 dx stays finite).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import ContractError, DivergenceError, DomainError, NumericalError
from .model import (
    MAX_GRID_POINTS,
    TWIN_MIN_EXPONENT,
    AnyonicParams,
    Grid,
    HamiltonianMatrix,
    PoschlTeller,
    WaveFunction,
    _sech_complex,
)
from .spectra import _largest_ritz_pair, delocalization_margin

__all__ = [
    "analytic_bound_state_pt",
    "self_orthogonality",
    "g_infinity",
    "g_infinity_forms",
    "g_infinity_poschl_teller",
    "g_t",
    "gain_grid",
]

# Half-width of the gain_grid box.  Beyond it |u|^2 = 4^nu e^{-2 nu |x|} (1 + O(e^{-80})),
# so each side of a lattice sum is a geometric series.
GAIN_BOX = 40.0

# A full-span band, like g_t's dense SVD fallback, is n x n complex; g_t refuses more.
G_T_MAX_DIM = 2048
# tau ||G||_1 cap of g_t's Taylor base step: the degree-13 Pade bound (Al-Mohy & Higham 2009).
THETA_13 = 5.371920351148152
# Propagator entries at or below this fraction of the largest are zeroed in g_t:
# unit roundoff over n^2 at the largest n, so one flush moves ||P||_2 by at
# most n * FLUSH_FRACTION * ||P||_2 <= 2^-53 / n * ||P||_2.
FLUSH_FRACTION = 2.0**-53 / G_T_MAX_DIM**2
# Column block width of g_t's propagator bands.
BAND_BLOCK = 128


def analytic_bound_state_pt(grid: Grid, delta: float, nu: float = 1.0) -> WaveFunction:
    """Closed-form ground state sech^nu(x - i delta) of the -nu (nu + 1) sech^2 well, normalized.

    E_1 = -nu^2 for every nu > 0 (Poschl & Teller, Z. Phys. 83, 143, 1933), continued
    to the shifted well, where Re cosh(x - i delta) > 0 keeps the power on one branch.
    nu = 1 gives the sech samples bitwise.  Like them the state is zero beyond |x| = 350,
    which cuts its tail for nu below about 0.1.  It degenerates into the
    self-orthogonal 1/(x + i eps)^nu profile as delta approaches pi/2.
    """
    PoschlTeller(nu=nu, delta=delta)  # checks the unbroken phase, |delta| < pi/2 and nu > 0
    return WaveFunction(grid, _sech_complex(grid.x, delta) ** nu).normalized()


def gain_grid(delta: float, nu: float = 1.0) -> Grid:
    """The box [-40, 40] on which ``g_infinity`` and ``self_orthogonality`` sum the closed form.

    The trapezoid rule on an infinite grid converges like e^{-2 pi d / dx} for
    an integrand analytic in a strip of half-width d = pi/2 - |delta|
    (Trefethen & Weideman, SIAM Rev. 56, 385, 2014).  The box takes the fewest
    points with 2 pi d / dx >= E = TWIN_MIN_EXPONENT (325 at delta = 0, 3243
    at 0.9 pi/2) and, above nu about 1, with the core of width cos(delta) /
    sqrt(2 nu) resolved, (pi cos(delta) / dx)^2 / nu >= 4 E: every sum for nu
    from 1e-3 to 50 then agrees with one on 4x the points to 6e-14.  A box
    above MAX_GRID_POINTS (|delta| within 4.9e-4 of pi/2 at nu = 1) is refused.
    """
    PoschlTeller(nu=nu, delta=delta)  # checks the unbroken phase, |delta| < pi/2 and nu > 0
    d = math.pi / 2 - abs(delta)
    exponent = TWIN_MIN_EXPONENT
    n = GAIN_BOX / math.pi * max(exponent / d, 4.0 * math.sqrt(exponent * nu) / math.cos(delta))
    if not n <= MAX_GRID_POINTS:
        raise DomainError(
            f"delta = {delta:.12g} lies {d:.3g} from pi/2: at nu = {nu:.12g} its gain box "
            f"[-40, 40] needs {n:.3g} points > {MAX_GRID_POINTS}"
        )
    return Grid(-GAIN_BOX, GAIN_BOX, math.ceil(n))


def _log_lattice_sum(delta: float, nu: float, sigma: float = 0.0, square: bool = False) -> float:
    """log |dx sum_j w(x_j)| over the whole infinite lattice of ``gain_grid(delta, nu)``.

    w = |u|^2 e^{sigma x}, |sigma| < 2 nu, or with ``square`` w = u^2, for u =
    sech^nu(x - i delta).  In the box log|u|^2 = -nu log(sinh^2 x + cos^2
    delta), which does not cancel as delta -> pi/2, and arg u^2 = 2 nu
    arctan(tanh x tan delta).  Beyond it w = 4^nu e^{-r |x| +- 2 i nu delta},
    r = 2 nu -+ sigma right and left: 4^nu e^{-r x_1} dx / (1 - e^{-r dx}) a side.
    """
    grid = gain_grid(delta, nu)
    x, dx = grid.x, grid.dx
    log_w = sigma * x - nu * np.log(np.sinh(x) ** 2 + math.cos(delta) ** 2)
    peak = float(log_w.max())
    w = np.exp(log_w - peak)
    turn = 2.0 * nu * delta if square else 0.0  # arg u^2 far right; the left is -turn
    if square:
        w = w * np.exp(2j * nu * np.arctan(np.tanh(x) * math.tan(delta)))
    x_1 = GAIN_BOX + 0.5 * dx
    tails = sum(
        cmath.exp(1j * arg) * math.exp(nu * math.log(4.0) - r * x_1 - peak) / -math.expm1(-r * dx)
        for r, arg in ((2.0 * nu - sigma, turn), (2.0 * nu + sigma, -turn))
    )
    return peak + math.log(abs(dx * (w.sum() + tails)))


def _log_square_integral(nu: float) -> float:
    """log I u^2 dx = log[sqrt(pi) Gamma(nu) / Gamma(nu + 1/2)], by shifting the contour.

    lgamma, not gamma, so that nu up to the bound-state cap does not overflow."""
    return 0.5 * math.log(math.pi) + math.lgamma(nu) - math.lgamma(nu + 0.5)


def self_orthogonality(delta: float, nu: float = 1.0) -> float:
    """|I u^2 dx| / I |u|^2 dx of sech^nu(x - i delta); 0 signals an exceptional point."""
    log_norm = _log_lattice_sum(delta, nu)  # first: it checks delta and nu
    return math.exp(_log_square_integral(nu) - log_norm)


def g_infinity(delta: float, params: AnyonicParams, nu: float = 1.0) -> float:
    """Asymptotic power amplification of the worst-case perturbation of sech^nu(x - i delta).

    Computed from the weighted-integral form and cross-checked against the
    biorthogonal form <u~|u~><u~+|u~+>/|<u~+|u~>|^2 of the dressed direct and
    adjoint states.  Both forms must be finite and at least 1 - 1e-9, else
    NumericalError.
    """
    weighted, biortho = g_infinity_forms(delta, params, nu)
    if not all(1.0 - 1e-9 <= g < math.inf for g in (weighted, biortho)):  # NaN fails too
        raise NumericalError(
            f"gain is not a finite value >= 1: weighted {weighted:.6g}, biorthogonal {biortho:.6g}"
        )
    if abs(weighted - biortho) > 1e-6 * max(weighted, biortho):
        raise NumericalError(
            f"gain formulas disagree: weighted {weighted:.6g} vs biorthogonal {biortho:.6g}"
        )
    return weighted


@np.errstate(over="ignore")  # a gain beyond the float range is inf, which g_infinity refuses
def g_infinity_forms(delta: float, params: AnyonicParams, nu: float = 1.0):
    """Both algebraic routes to the gain factor: (weighted-integral, biorthogonal).

    The dressed states' norms are the weighted sums of |u|^2 e^{-+s x}, s = v
    sin(phi), and their overlap conj(u~+) u~ is u^2 pointwise: the weighted
    form divides by the closed form of I u^2 dx, the biorthogonal by its sum.
    """
    margin = delocalization_margin(-nu * nu, params)
    if margin <= 0.0:
        raise DomainError(
            f"weighted integrals diverge: delocalization margin {margin:.3g} <= 0"
        )
    s = params.v * math.sin(params.phi)
    log_norms = _log_lattice_sum(delta, nu, -s) + _log_lattice_sum(delta, nu, s)
    g_weighted = np.exp(log_norms - 2.0 * _log_square_integral(nu))
    g_biortho = np.exp(log_norms - 2.0 * _log_lattice_sum(delta, nu, square=True))
    return float(g_weighted), float(g_biortho)


def g_infinity_poschl_teller(delta: float, params: AnyonicParams) -> float:
    """Gain factor of the nu = 1 sech^2 well."""
    return g_infinity(delta, params)


def _flush_tiny(blocks) -> list:
    """The band of the ``(lo, slab)`` column blocks from ``blocks``, its tiny entries zeroed.

    A band holds each block of BAND_BLOCK columns, in order, as the slab of its
    rows from lo, the first to the last with an entry above the floor,
    FLUSH_FRACTION of the largest entry.  Each block is cut as it comes, at
    FLUSH_FRACTION of the largest entry so far; the rows cut fall below the
    final floor too.  A non-finite entry raises DivergenceError.
    """
    band, peak = [], 0.0
    for lo, slab in blocks:
        rows = np.abs(slab).max(axis=1, initial=0.0)
        peak = np.maximum(peak, rows.max(initial=0.0))  # NaN stays NaN
        if not np.isfinite(peak):
            raise DivergenceError("propagator overflowed; retry with smaller t")
        band.append(_rows_above(lo, slab, rows, FLUSH_FRACTION * peak))
    for k, (lo, slab) in enumerate(band):  # the final floor
        mag = np.abs(slab)
        slab[mag <= FLUSH_FRACTION * peak] = 0.0
        band[k] = _rows_above(lo, slab, mag.max(axis=1, initial=0.0), FLUSH_FRACTION * peak)
    return band


def _rows_above(lo: int, slab: np.ndarray, rows: np.ndarray, floor: float) -> tuple:
    """``(lo, slab)`` cut to its first and last row whose largest entry, ``rows``, tops ``floor``."""
    keep = np.flatnonzero(rows > floor)
    first, end = (keep[0], keep[-1] + 1) if keep.size else (0, 0)
    if (first, end) != (0, len(slab)):  # an empty block starts at 0; a copy frees the cut rows
        lo, slab = lo + first if keep.size else 0, slab[first:end].copy()
    return lo, slab


def _band_matmul(a: list, b: list) -> list:
    """``a @ b`` for bands, block by block, flushed by ``_flush_tiny``.

    Block k of ``b`` has rows lo:hi, so it meets only the blocks m of ``a``
    with columns in lo:hi: each adds ``A_m[:, cols] @ B_k[rows]`` to the
    product's block, whose rows are the union of their spans, all n for a dense
    or corner-wrapped factor.
    """

    def blocks():
        for lo, slab in b:
            hi = lo + len(slab)
            inner = [(c0, *a[c0 // BAND_BLOCK]) for c0 in range(lo - lo % BAND_BLOCK, hi, BAND_BLOCK)]
            s0 = min((f_lo for _, f_lo, f in inner if len(f)), default=0)
            s1 = max((f_lo + len(f) for _, f_lo, f in inner if len(f)), default=0)
            out = np.zeros((s1 - s0, slab.shape[1]), dtype=complex)
            for c0, f_lo, f in inner:  # an empty f adds no rows
                r0, r1 = max(lo, c0), min(hi, c0 + BAND_BLOCK)
                out[f_lo - s0 : f_lo - s0 + len(f)] += f[:, r0 - c0 : r1 - c0] @ slab[r0 - lo : r1 - lo]
            yield s0, out

    return _flush_tiny(blocks())


def _sigma_max(*factors: list) -> float:
    """Largest singular value of the product P of the bands ``factors``: sqrt(theta) of P^H P.

    The factors must commute, as functions of one G do.  theta is the Ritz
    value of largest |theta| of x -> P^H (P x) (``_largest_ritz_pair``), which
    applies the factors one after another, slab by slab, so P is never formed;
    m Arnoldi steps on the Hermitian P^H P give the Ritz values of m
    Golub-Kahan steps on P.  When that finds no final pair, or theta is not
    positive, the dense SVD of the multiplied-out P is used instead.  It is
    also used directly when the bound, the product of each factor's
    sqrt(||F||_1 ||F||_inf), reaches 2^255: the vectors P^H P x reach sigma^2,
    and the squares that their norm sums overflow from sigma = 2^256 on.
    """

    def gram(x):
        for f in reversed(factors):  # P x
            x, y = np.zeros_like(x), x
            for k, (lo, slab) in enumerate(f):
                x[lo : lo + len(slab)] += slab @ y[k * BAND_BLOCK : (k + 1) * BAND_BLOCK]
        for f in factors:  # P^H (P x)
            x = np.concatenate([(x[lo : lo + len(slab)].conj() @ slab).conj() for lo, slab in f])
        return x

    if math.prod(_norm_bound(f) for f in factors) < 2.0**255:
        pair = _largest_ritz_pair(gram, sum(slab.shape[1] for _, slab in factors[0]))
        if pair is not None and pair[0].real > 0.0:
            return math.sqrt(pair[0].real)
    return float(np.linalg.svd(_multiplied_out(factors), compute_uv=False)[0])


def _norm_bound(f: list) -> float:
    """sqrt(||F||_1 ||F||_inf), an upper bound on ||F||_2, read off the band ``f``."""
    col_sum, row_sums = 0.0, np.zeros(BAND_BLOCK * len(f))
    for lo, slab in f:
        mag = np.abs(slab)
        col_sum = max(col_sum, float(mag.sum(axis=0).max()))
        row_sums[lo : lo + len(slab)] += mag.sum(axis=1)
    return math.sqrt(col_sum) * math.sqrt(row_sums.max())


def _multiplied_out(factors) -> np.ndarray:
    """The dense product of the bands ``factors``; DivergenceError when it is not finite."""
    n = sum(slab.shape[1] for _, slab in factors[0])
    dense = ([np.pad(slab, ((lo, n - lo - len(slab)), (0, 0))) for lo, slab in f] for f in factors)
    p = functools.reduce(np.matmul, map(np.hstack, dense))
    if not np.isfinite(p).all():
        raise DivergenceError("propagator overflowed; retry with smaller t")
    return p


def _norm1(diagonals: np.ndarray) -> float:
    """The 1-norm of the matrix with these three cyclic diagonals: its largest column sum."""
    mag = np.abs(diagonals)
    return float((np.roll(mag[2], 1) + mag[1] + np.roll(mag[0], -1)).max())


def _expm_taylor(a: np.ndarray) -> list:
    """exp(A) as a band (``_flush_tiny``): the Taylor series of A, summed on cyclic diagonals.

    ``a`` holds A's three cyclic diagonals, as ``HamiltonianMatrix.cyclic_diagonals``
    does: row 1 + d the entries (j, (j + d) mod n).  Term k, A^k / k!, is kept as
    its 2k + 1 diagonals d = -k .. k, which may wrap more than once round a small
    ring; the sum is scattered into the column slabs only at the end.  The series
    stops after the first term k whose 1-norm bound x^k / k!, x = ||A||_1, is at
    most 2^-53; the count depends on x alone, so results repeat bitwise.
    """
    n, x = a.shape[1], _norm1(a)
    last, bound = 0, 1.0
    while bound > 2.0**-53:
        last += 1
        bound *= x / last
    # row s of shifted[e] is A's diagonal e read from site s - last on: entry j is
    # A[(j + d) mod n, (j + d + e) mod n], d = s - last
    sites = np.arange(-last, n + last) % n
    shifted = [np.lib.stride_tricks.sliding_window_view(a[1 + e][sites], n) for e in (-1, 0, 1)]
    term = np.ones((1, n), dtype=complex)
    total = np.zeros((2 * last + 1, n), dtype=complex)  # row last + d: diagonal d
    total[last] = term
    for k in range(1, last + 1):
        rows = slice(last - k + 1, last + k)  # the diagonals d = 1 - k .. k - 1 of term
        nxt = np.zeros((2 * k + 1, n), dtype=complex)
        for e in (-1, 0, 1):
            nxt[1 + e : 2 * k + e] += term * shifted[1 + e][rows]
        term = nxt / k
        total[last - k : last + k + 1] += term

    def blocks():
        for c0 in range(0, n, BAND_BLOCK):
            cols = np.arange(c0, min(c0 + BAND_BLOCK, n))
            rows = (cols + last - np.arange(2 * last + 1)[:, None]) % n  # row last + d: diagonal d
            slab = np.zeros((np.ptp(rows) + 1, cols.size), dtype=complex)
            np.add.at(slab, (rows - rows.min(), cols - c0), np.take_along_axis(total, rows, axis=1))
            yield rows.min(), slab  # add.at sums the diagonals that wrap onto one entry in order

    return _flush_tiny(blocks())


@np.errstate(over="ignore", invalid="ignore")  # overflow raises DivergenceError
def g_t(h: HamiltonianMatrix, e1: complex, times) -> list:
    """Squared operator norms of exp[-i (H - e1) t], one per time, in the order given.

    G = -i (H - e1) is held as its three cyclic diagonals, whose 1-norm is read
    off them.  A time with t ||G||_1 <= THETA_13 is its own base step: P(t) is
    one Taylor series on those diagonals (``_expm_taylor``).  One shared
    base step B = exp(G tau) serves every longer time: tau = t_0 / 2^s, with
    t_0 the smallest of them and the smallest s that gives tau ||G||_1 <=
    THETA_13, so q = floor(t / tau) <= 2 t ||G||_1 / THETA_13; a tiny time
    never shortens the step of the others.  P(t) = B^q exp(G rho), rho = t -
    q tau, both factors Taylor series.  The remainder is skipped when rho = 0,
    as for integer multiples of a power-of-two t_0 such as 0.5.  One shared
    run of squarings B^(2^j) serves every B^q (Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 2009), and B^q is never multiplied out: it is the
    list of B^(2^j) for the set bits j of q, and the top bit J of the largest
    q enters as its 2 or 3 copies of B^(2^(J - 1)), so the chain stops one
    squaring short.  The factors commute, as functions of one G, and
    ``_sigma_max`` takes the norm of their product by Arnoldi on P^H P,
    applying them in turn, slab by slab; when that does not converge, as for
    the clustered singular values of some very small t, that one time falls
    back to the dense SVD of the multiplied-out product.

    After every product, entries at or below FLUSH_FRACTION of the largest
    are zeroed.  That moves the 2-norm by at most n * FLUSH_FRACTION * ||P||_2
    <= 2^-53 / n * ||P||_2, below rounding, and keeps the powers of B banded,
    as the exponential of a banded matrix is up to rounding (Iserles, NZ J.
    Math. 29, 2000).  Each is held as that band (``_flush_tiny``) and formed
    block by block (``_band_matmul``); only the dense SVD fallback makes an
    n x n array.  A time whose step count overflows, or whose propagator
    underflows to zero, raises NumericalError; one whose propagator or its
    norm overflows raises DivergenceError.

    For a normal operator G_t never exceeds one when e1 is the dominant
    eigenvalue; values above one quantify transient non-normal amplification.
    """
    if h.dim > G_T_MAX_DIM:
        raise ContractError(f"g_t propagator capped at dimension {G_T_MAX_DIM}, got {h.dim}")
    times = [float(t) for t in times]
    if not all(0.0 <= t < math.inf for t in times):
        raise DomainError(f"g_t is defined for finite t >= 0, got {times}")
    gains = {0.0: 1.0}
    positive = sorted(set(times) - {0.0})
    gen = -1j * h.cyclic_diagonals(e1)
    norm1 = _norm1(gen)
    for t in positive:
        if t * norm1 <= THETA_13:  # its own base step: no squaring, no remainder
            _squaring_chain(gen, norm1, [t], gains)
    chained = [t for t in positive if t * norm1 > THETA_13]
    if chained:
        _squaring_chain(gen, norm1, chained, gains)
    return [gains[t] for t in times]


def _squaring_chain(gen, norm1: float, times: list, gains: dict) -> None:
    """Record G_t for the sorted ``times`` from one base step, the first time halved as needed."""
    tau = times[0]
    while tau * norm1 > THETA_13:
        tau /= 2.0
    if not math.isfinite(times[-1] / tau):
        raise NumericalError(f"t = {times[-1]} overflows the step count; retry with smaller t")
    # q >= 1 for every time because tau divides the smallest one exactly.
    steps = {t: math.floor(t / tau) for t in times}
    # B^q is B^(2^j) for each set bit j of q below the top level, times q >> top
    # copies of B^(2^top): the top bit J of the largest q enters as its 2 or 3
    # copies of B^(2^(J - 1)), so B^(2^J) is never formed.
    top = max(max(steps.values()).bit_length() - 2, 0)
    levels = {t: [j for j in range(top) if (q >> j) & 1] + [top] * (q >> top)
              for t, q in steps.items()}
    power = _expm_taylor(gen * tau)  # B^(2^j), a band
    held = {}  # the powers B^(2^j) that a time not yet recorded needs
    for j in range(top + 1):
        if j:
            power = _band_matmul(power, power)
        held[j] = power
        for t in [t for t, need in levels.items() if need[-1] == j]:
            factors = [held[i] for i in levels.pop(t)]
            rho = t - steps[t] * tau
            if rho != 0.0:
                factors.append(_expm_taylor(gen * rho))
            _record_gain(gains, t, *factors)
            del factors  # exp(G rho) does not outlive its time
        held = {i: held[i] for need in levels.values() for i in need if i <= j}


def _record_gain(gains: dict, t: float, *factors: list) -> None:
    """gains[t] = sigma_max(F_1 ... F_k)^2; DivergenceError at inf, NumericalError at 0."""
    sigma_max = _sigma_max(*factors)
    if sigma_max == 0.0:
        raise NumericalError(f"propagator underflowed to zero at t = {t}; retry with smaller t")
    gains[t] = sigma_max * sigma_max  # inf, not OverflowError
    if not math.isfinite(gains[t]):
        raise DivergenceError(f"propagator norm overflowed at t = {t}; retry with smaller t")

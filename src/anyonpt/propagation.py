"""Split-step Fourier time evolution in the frame co-moving with the potential.

The coordinate change x' = x - v t maps the drifting potential V(x - v t)
onto the static V(x') plus the drift term i v d/dx of H_eff, so one frame
serves every experiment: the lab-frame field at X is the moving-frame field
at X - v t.  Strang splitting: half potential step, full spectral step, half
potential step.  The Fourier multiplier carries the band dispersion
T = e^{-i phi} k^2 - v k, so free propagation is exact for every retained
mode, and |exp(-i T dt)| = exp(-sin(phi) k^2 dt) <= 1 keeps the scheme
stable for any dt.  Strang's O(dt^2) error is removed at no cost per step
(Takahashi & Imada, J. Phys. Soc. Jpn. 53, 3765, 1984): the half-step
carries W - c e^{-i phi} (W')^2, W = e^{-i phi} V and c = dt^2 / 12, and a
processor exp(+-c [T, W]), to second order, acts once before the first step
and on each written snapshot.  At the shipped dt = 0.0125 the final fields
lie 6e-10 to 1e-7 from a converged run (README).  ``evolve_batch`` is the one
path through the loop, for the library and the runners alike: it takes each
snapshot as it comes and keeps N(t), the strided density and the last field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DivergenceError
from .model import AnyonicParams, PotentialSpec, WaveFunction, trapz
from .spectra import continuous_dispersion

__all__ = [
    "PropagatorConfig",
    "EvolutionRecord",
    "evolve",
    "evolve_batch",
    "gauge_transform_check",
]

AMPLITUDE_GUARD = 1e150
MAX_STEPS = 10**6  # about 300x the longest shipped evolution (3360 steps)


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float = 0.005
    t_final: float = 10.0
    snapshot_every: int = 100

    def __post_init__(self):
        if self.dt <= 0 or self.t_final < 0:
            raise ContractError("need dt > 0 and t_final >= 0")
        if self.snapshot_every < 1:
            raise ContractError("snapshot_every must be >= 1")
        steps = self.t_final / self.dt
        if not steps <= MAX_STEPS + 0.5:  # n_steps() <= MAX_STEPS, and t_final finite
            raise ContractError(f"t_final / dt gives {steps:.3g} steps, cap is {MAX_STEPS}")

    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def snapshot_steps(self) -> list:
        """The step counts a run records at: 0, each snapshot_every-th step, and the last."""
        n = self.n_steps()
        return [*range(0, n, self.snapshot_every), n]


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """At each snapshot time the trapezoidal norm N(t) and the strided density; the last field."""

    times: np.ndarray
    norm: np.ndarray
    densities: tuple
    last: WaveFunction

    def final(self) -> WaveFunction:
        return self.last


def _guard(values: np.ndarray):
    """Raise on a non-finite field or one with |z| above AMPLITUDE_GUARD.

    m = max(|Re|, |Im|) over the float view obeys m <= |z| <= sqrt(2) m, so
    the exact |z| pass runs only when m is not finite or 2 m (sqrt(2) with
    room for rounding in |z|) exceeds the guard; the check raises on exactly
    the fields the |z| test alone would.
    """
    flat = values.view(np.float64)
    m = max(float(flat.max()), -float(flat.min()))
    if math.isfinite(m) and 2.0 * m <= AMPLITUDE_GUARD:
        return
    m = float(np.abs(values).max())
    if not math.isfinite(m) or m > AMPLITUDE_GUARD:
        raise DivergenceError(
            f"field amplitude {m:.3e} exceeded the guard; broken phase or dt too large"
        )


def evolve(
    psi0: WaveFunction,
    spec: PotentialSpec,
    params: AnyonicParams,
    config: PropagatorConfig,
) -> EvolutionRecord:
    """Propagate psi0 to t_final, logging norms and snapshot densities (see evolve_batch)."""
    return evolve_batch([(psi0, spec, params)], config)[0]


def evolve_batch(fields, config: PropagatorConfig, density_stride: int = 1) -> list:
    """Propagate several fields on one grid through one processed Strang loop.

    ``fields`` is a sequence of ``(psi0, spec, params)``; one EvolutionRecord
    is returned per field, in order.  The fields are stacked into an (m, n)
    array and each step transforms all rows at once, in place; every row
    evolves bit for bit as it would alone, since the batched FFT transforms
    each row exactly as a single field.

    Each row runs in the frame co-moving with its potential: the static
    V(x) gives both half-step factors, built once, and the drift sits in
    the Fourier multiplier with the rest of the band dispersion.  The t = 0
    snapshot is psi0 itself; every later one is the processed field.  Each
    snapshot is taken as the loop yields it: a record keeps its N(t) and
    |psi|^2 at every ``density_stride``-th point, and only the last
    snapshot's complex field.
    """
    if density_stride < 1:
        raise ContractError("density_stride must be >= 1")
    if not len(fields):
        raise ContractError("no fields to evolve")
    grid, dt, stops = fields[0][0].grid, config.dt, config.snapshot_steps()
    norms, densities = [], []
    for psi in _strang(fields, dt, stops):
        rhos = [np.abs(row) ** 2 for row in psi]
        norms.append([trapz(rho, grid.dx) for rho in rhos])
        densities.append([np.ascontiguousarray(rho[::density_stride]) for rho in rhos])
    times = np.multiply(stops, dt)
    lasts = [WaveFunction(grid, row) for row in psi]  # the loop is done: psi is the last stop
    return [
        EvolutionRecord(times, np.asarray(norm), density, last)
        for norm, density, last in zip(zip(*norms), zip(*densities), lasts)
    ]


def _commutator(b, potential, energy, spectrum):
    """Overwrite the stacked fields ``b`` with [T, W] b = T(W b) - W(T b)."""
    np.fft.fft(b, axis=-1, out=spectrum)
    np.multiply(energy, spectrum, out=spectrum)
    np.fft.ifft(spectrum, axis=-1, out=spectrum)
    np.multiply(potential, spectrum, out=spectrum)
    np.multiply(potential, b, out=b)
    np.fft.fft(b, axis=-1, out=b)
    np.multiply(energy, b, out=b)
    np.fft.ifft(b, axis=-1, out=b)
    np.subtract(b, spectrum, out=b)


def _strang(fields, dt: float, stops):
    """Step the stacked (m, n) fields; yield psi0 at step 0, then P_- psi at each later stop.

    P_+- psi = psi +- cC(psi +- (c/2) C psi), C = [T, W], is the processor to
    second order in Horner form; it runs in ``scratch`` and keeps psi.  Each
    yield is a working array that the next step overwrites.
    """
    grid = fields[0][0].grid
    if any(psi0.grid != grid for psi0, _, _ in fields):
        raise ContractError("evolve_batch needs one grid for all fields")
    c = dt * dt / 12.0
    # Built with few temporaries: each is a stack-sized block, and the holes
    # they leave in the heap raised scatter_barrier_k0's peak RSS by 0.2 MB.
    energy = np.stack([continuous_dispersion(grid.k, p) for _, _, p in fields])
    mult_k = np.exp(np.multiply(energy, -1j * dt))
    rotation = np.array([[p.rotation] for _, _, p in fields])
    potential = np.stack([np.asarray(spec(grid.x), dtype=complex) for _, spec, _ in fields])
    np.multiply(rotation, potential, out=potential)
    half_v = np.fft.fft(potential, axis=-1)  # W', spectrally, then the modified half-step
    np.multiply(1j * grid.k, half_v, out=half_v)
    np.fft.ifft(half_v, axis=-1, out=half_v)
    np.multiply(half_v, half_v, out=half_v)
    np.multiply(-c * rotation, half_v, out=half_v)
    np.add(potential, half_v, out=half_v)
    np.multiply(half_v, -0.5j * dt, out=half_v)
    np.exp(half_v, out=half_v)
    psi = np.stack([psi0.values for psi0, _, _ in fields])
    spectrum, scratch = np.empty_like(psi), np.empty_like(psi)

    def process(sign):
        np.copyto(scratch, psi)
        for factor in (sign * c / 2.0, sign * c):
            _commutator(scratch, potential, energy, spectrum)
            np.multiply(scratch, factor, out=scratch)
            np.add(psi, scratch, out=scratch)
        return scratch

    # Each FFT mallocs and frees scratch of a few rows.  Freeing a larger block
    # first lifts glibc's mmap and trim thresholds, so that scratch is not
    # unmapped and faulted in again every step (2.6 s on scatter_barrier_k0).
    np.empty((8, grid.n_points), dtype=complex)
    yield psi  # stops[0] == 0
    psi, scratch = process(1.0), psi
    for done, stop in zip(stops, stops[1:]):
        for _ in range(stop - done):
            np.multiply(half_v, psi, out=psi)
            np.fft.fft(psi, axis=-1, out=spectrum)
            np.multiply(mult_k, spectrum, out=spectrum)
            np.fft.ifft(spectrum, axis=-1, out=psi)
            np.multiply(half_v, psi, out=psi)
            _guard(psi)
        yield process(-1.0)


def gauge_transform_check(
    spec: PotentialSpec, params: AnyonicParams, psi0: WaveFunction, t: float
) -> float:
    """Max-norm discrepancy, at dt = 0.002, between drifting evolution and its gauge twin.

    Valid only at phi = 0, where the gauge factor exp(i alpha x - i beta t) is
    a pure phase and Galilean invariance holds: evolving psi0 under the
    drifting operator must coincide with boosting, evolving under the static
    operator, and boosting back.  For an exact discrete identity the shift
    alpha = v/2 should be an integer multiple of the grid mode spacing
    2 pi / L (e.g. a box of half-width 16 pi for v in {1, 2}); incommensurate
    boxes add spectral interpolation error on top of the physics.
    """
    if params.phi != 0.0:
        raise ContractError("the gauge equivalence only holds at phi = 0")
    grid = psi0.grid
    alpha, beta = params.alpha.real, params.beta.real
    boosted0 = WaveFunction(grid, np.exp(-1j * alpha * grid.x) * psi0.values)
    cfg = PropagatorConfig(dt=0.002, t_final=t, snapshot_every=10**9)
    fields = [(psi0, spec, params), (boosted0, spec, AnyonicParams(phi=0.0, v=0.0))]
    drifted, static = (record.final() for record in evolve_batch(fields, cfg))
    recomposed = np.exp(1j * alpha * grid.x - 1j * beta * t) * static.values
    return float(np.abs(drifted.values - recomposed).max())


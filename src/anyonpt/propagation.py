"""Split-step Fourier time evolution in the frame co-moving with the potential.

The coordinate change x' = x - v t maps the drifting potential V(x - v t)
onto the static V(x') plus the drift term i v d/dx of H_eff, so one frame
serves every experiment: the lab-frame field at X is the moving-frame field
at X - v t.  Strang splitting: half potential step, full spectral step, half
potential step.  The Fourier multiplier carries the band dispersion
exp(-i (e^{-i phi} k^2 - v k) dt), so free propagation is exact for every
retained mode and the drift is dispersion-free.  The rotated kinetic factor
has |mult| = exp(-sin(phi) k^2 dt) <= 1, which keeps the scheme stable for
any dt.  Its only time error is the O(dt^2) splitting error, not a dx rule: at
dt = 0.005 it is 5e-6 to 2.1e-4 of the final field's norm.  The runners take
``evolve_extrapolated``, which cancels that error to O(dt^4) from runs at dt
and 2 dt: at the shipped dt = 0.01 it is 9e-9 to 1.8e-7 (README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DivergenceError
from .model import AnyonicParams, PotentialSpec, WaveFunction
from .spectra import continuous_dispersion

__all__ = [
    "PropagatorConfig",
    "EvolutionRecord",
    "evolve",
    "evolve_batch",
    "evolve_extrapolated",
    "gauge_transform_check",
]

AMPLITUDE_GUARD = 1e150
MAX_STEPS = 10**6  # about 240x the longest shipped evolution (4200 steps at dt)


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

    def check_halvable(self):
        """Raise unless a run at 2 dt lands on every snapshot (``evolve_extrapolated``)."""
        if self.snapshot_every % 2 or self.n_steps() % 2:
            raise ContractError(f"snapshot_every = {self.snapshot_every} and t_final / dt = "
                                f"{self.n_steps()} steps must both be even for the run at 2 dt")


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """Strided snapshots with the trapezoidal norm N(t) at each snapshot time."""

    times: np.ndarray
    norm: np.ndarray
    snapshots: tuple

    def final(self) -> WaveFunction:
        return self.snapshots[-1]


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
    """Propagate psi0 to t_final, logging norms and strided snapshots (see evolve_batch)."""
    return evolve_batch([(psi0, spec, params)], config)[0]


def evolve_batch(fields, config: PropagatorConfig) -> list:
    """Propagate several fields on one grid through one Strang loop.

    ``fields`` is a sequence of ``(psi0, spec, params)``; one EvolutionRecord
    is returned per field, in order.  The fields are stacked into an (m, n)
    array and each step transforms all rows at once, in place; every row
    evolves bit for bit as it would alone, since the batched FFT transforms
    each row exactly as a single field.

    Each row runs in the frame co-moving with its potential: the static
    V(x) gives both half-step factors, built once, and the drift sits in
    the Fourier multiplier with the rest of the band dispersion.
    """
    return _records(fields, config, _strang(fields, config.dt, config.snapshot_steps()))


def evolve_extrapolated(fields, config: PropagatorConfig) -> list:
    """``evolve_batch`` with the splitting error cancelled to fourth order in dt.

    Strang splitting is symmetric, so its error expands in even powers of dt:
    runs at dt and at 2 dt step forward in lockstep, and each snapshot records
    (4 psi_dt - psi_2dt) / 3.  ``config`` must pass ``check_halvable``.
    """
    config.check_halvable()
    stops = config.snapshot_steps()
    fine = _strang(fields, config.dt, stops)
    coarse = _strang(fields, 2.0 * config.dt, [s // 2 for s in stops])
    # One buffer for every snapshot: fresh temporaries would fragment the heap
    # between the snapshot copies (6 MB more peak RSS on scatter_barrier_k0).
    out = np.empty((len(fields), fields[0][0].grid.n_points), dtype=complex)
    return _records(fields, config, (
        np.divide(np.subtract(np.multiply(f, 4.0, out=out), c, out=out), 3.0, out=out)
        for f, c in zip(fine, coarse)
    ))


def _strang(fields, dt: float, stops):
    """Step the stacked (m, n) fields in place; yield the array at each step count in ``stops``."""
    grid = fields[0][0].grid
    if any(psi0.grid != grid for psi0, _, _ in fields):
        raise ContractError("evolve_batch needs one grid for all fields")
    mult_k = np.stack([np.exp(-1j * continuous_dispersion(grid.k, p) * dt) for _, _, p in fields])
    half_v = np.empty_like(mult_k)
    for row, (_, spec, p) in zip(half_v, fields):
        row[:] = np.exp(-0.5j * p.rotation * np.asarray(spec(grid.x), dtype=complex) * dt)

    psi = np.stack([psi0.values for psi0, _, _ in fields])
    spectrum = np.empty_like(psi)
    # Each FFT mallocs and frees scratch of a few rows.  Freeing a larger block
    # first lifts glibc's mmap and trim thresholds, so that scratch is not
    # unmapped and faulted in again every step (2.6 s on scatter_barrier_k0).
    np.empty((8, grid.n_points), dtype=complex)
    done = 0
    for stop in stops:
        for _ in range(stop - done):
            np.multiply(half_v, psi, out=psi)
            np.fft.fft(psi, axis=-1, out=spectrum)
            np.multiply(mult_k, spectrum, out=spectrum)
            np.fft.ifft(spectrum, axis=-1, out=psi)
            np.multiply(half_v, psi, out=psi)
            _guard(psi)
        done = stop
        yield psi


def _records(fields, config: PropagatorConfig, stacks) -> list:
    """One EvolutionRecord per field from the (m, n) array ``stacks`` yields at each snapshot."""
    grid = fields[0][0].grid
    # WaveFunction copies its values, so the loop may keep working in place.
    by_time = [[WaveFunction(grid, row) for row in psi] for psi in stacks]
    times = [s * config.dt for s in config.snapshot_steps()]
    return [
        EvolutionRecord(np.asarray(times), np.asarray([s.norm_squared() for s in snaps]), snaps)
        for snaps in zip(*by_time)
    ]


def gauge_transform_check(
    spec: PotentialSpec,
    params: AnyonicParams,
    psi0: WaveFunction,
    t: float,
    dt: float = 0.002,
) -> float:
    """Max-norm discrepancy between drifting evolution and its gauge-transformed twin.

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
    cfg = PropagatorConfig(dt=dt, t_final=t, snapshot_every=10**9)
    fields = [(psi0, spec, params), (boosted0, spec, AnyonicParams(phi=0.0, v=0.0))]
    drifted, static = (record.final() for record in evolve_batch(fields, cfg))
    recomposed = np.exp(1j * alpha * grid.x - 1j * beta * t) * static.values
    return float(np.abs(drifted.values - recomposed).max())


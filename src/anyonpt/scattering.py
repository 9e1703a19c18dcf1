"""Plane-wave and wave-packet scattering off drifting complex barriers.

The elastic condition E(k_r) = E(k) on the bent dispersion curve fixes the
reflected wavenumber k_r = -k + v e^{i phi}.  Its imaginary part, v sin(phi),
is nonzero whenever both the drift and the anyonic phase are, making the
reflected channel evanescent: the barrier becomes transparent regardless of
its shape.  Packet runs measure that transparency as spatial power fractions
after the interaction; the stationary solver extracts r(k), t(k) directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InconclusiveError, NumericalError
from .model import AnyonicParams, Grid, PotentialSpec, Tabulated, WaveFunction, trapz
from .propagation import PropagatorConfig, evolve_batch
from .spectra import continuous_dispersion

__all__ = [
    "PacketSpec",
    "ScatteringReport",
    "reflected_wavenumber",
    "group_velocity",
    "stationary_rt",
    "run_packet_scattering",
    "report_from_final",
    "gaussian_packet",
]

EVANESCENT_TOL = 1e-9
# stationary_rt starts where |V| stays below this on both sides
TAIL_TOL = 1e-10
# stationary_rt's RK4 substep, fixed so that r(k), t(k) do not depend on the
# evolution grid: dx / 4 of a +-160 box at 8192 points
RT_SUBSTEP = 5.0 / 512.0


def reflected_wavenumber(k: float, params: AnyonicParams) -> complex:
    """k_r = -k + v e^{i phi}; Im k_r = v sin(phi) flags the evanescent channel."""
    return -k + params.v * params.rotation.conjugate()


def group_velocity(k: float, params: AnyonicParams) -> float:
    """Transport speed Re dE/dk = 2 k cos(phi) - v in the moving frame."""
    return 2.0 * k * math.cos(params.phi) - params.v


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian packet exp(-(x - center)^2 / width^2 + i carrier x)."""

    center: float
    width: float
    carrier: float = 0.0

    def __post_init__(self):
        if self.width <= 0:
            raise ContractError("packet width must be positive")

    def validate_on(self, grid: Grid):
        lo, hi = self.center - 3.0 * self.width, self.center + 3.0 * self.width
        if not (grid.x_min < lo and hi < grid.x_max):
            raise ContractError(
                "packet support must fit inside the grid: center -+ 3 width = "
                f"[{lo}, {hi}] is not inside ({grid.x_min}, {grid.x_max})"
            )

    def check_approach(self, params: AnyonicParams, separatrix: float = 0.0):
        """The carrier's group velocity must carry the packet toward the separatrix."""
        vg = group_velocity(self.carrier, params)
        if vg * math.copysign(1.0, self.center - separatrix) >= 0:
            raise ContractError(
                f"packet at {self.center} with group velocity {vg:+.3g} does not "
                "approach the separatrix; flip the carrier, drift, or start side"
            )


def gaussian_packet(grid: Grid, packet: PacketSpec) -> WaveFunction:
    packet.validate_on(grid)
    x = grid.x
    psi = np.exp(-((x - packet.center) ** 2) / packet.width**2 + 1j * packet.carrier * x)
    return WaveFunction(grid, psi).normalized()


@dataclass(frozen=True)
class ScatteringReport:
    k_incident: float
    k_reflected: complex
    reflected_power_fraction: float
    transmitted_power_fraction: float
    reflected_is_evanescent: bool

    def __post_init__(self):
        if self.reflected_power_fraction < 0 or self.transmitted_power_fraction < 0:
            raise ContractError("power fractions must be nonnegative")


def _auto_range(spec: PotentialSpec) -> float:
    """Half-width beyond which |V| stays below TAIL_TOL on both sides."""
    if isinstance(spec, Tabulated):
        # interpolation returns 0 outside the table; the table itself must decay
        edge = max(abs(spec.values[0]), abs(spec.values[-1]))
        if edge > 1e-8:
            raise ContractError(
                f"tabulated potential does not decay at its range ends (|V| = {edge:.3g})"
            )
    probe = np.arange(5.0, 200.0, 0.5)
    mags = np.maximum(np.abs(spec(probe)), np.abs(spec(-probe)))
    below = mags < TAIL_TOL
    for i in range(len(probe)):
        if bool(np.all(below[i:])):
            return float(probe[i])
    raise ContractError(f"potential tail does not decay below {TAIL_TOL:g} within |x| <= 200")


def stationary_rt(spec: PotentialSpec, params: AnyonicParams, k):
    """Reflection and transmission amplitudes of stationary scattering states.

    For every incident wavenumber in ``k`` (scalar or array), integrates
    H_eff u = E(k) u as a second-order ODE from the transmitted side (pure
    t e^{i k x} at x = +L0) down to x = -L0 with fixed-step RK4 at
    RT_SUBSTEP, all k in one loop, then decomposes onto the exact two-mode
    basis {e^{i k x}, e^{i k_r x}}; the basis handles evanescent k_r as-is.
    The incident amplitude is scaled to one, so r is the coefficient of the
    (possibly evanescent) reflected mode and t the transmitted one.  Returns
    complex arrays (r, t) shaped like ``k``.
    """
    shape = np.shape(k)
    k = np.asarray(k, dtype=float).reshape(-1)
    vg = group_velocity(k, params)
    if np.any(vg <= 0):
        raise ContractError(f"incident k needs positive group velocity, got v_g = {vg.min()}")
    l0 = _auto_range(spec)
    kr = reflected_wavenumber(k, params)
    if np.any(np.abs(k - kr) < 1e-6):
        raise NumericalError("incident and reflected modes nearly degenerate; decomposition ill-conditioned")

    eip = params.rotation.conjugate()
    shift = eip * continuous_dispersion(k, params)
    drift = 1j * params.v * eip

    n_steps = int(math.ceil(2.0 * l0 / RT_SUBSTEP))
    h = -2.0 * l0 / n_steps  # negative: right to left
    # Potential tabulated at half-substep resolution for the RK4 stages.
    xs = l0 + np.arange(2 * n_steps + 1) * (h / 2.0)
    pot = np.asarray(spec(xs), dtype=complex)

    u = np.exp(1j * k * l0)
    up = 1j * k * u
    c1 = pot[0] - shift
    for i in range(n_steps):
        c0, cm, c1 = c1, pot[2 * i + 1] - shift, pot[2 * i + 2] - shift
        k1u, k1p = up, c0 * u + drift * up
        u2, p2 = u + h / 2 * k1u, up + h / 2 * k1p
        k2u, k2p = p2, cm * u2 + drift * p2
        u3, p3 = u + h / 2 * k2u, up + h / 2 * k2p
        k3u, k3p = p3, cm * u3 + drift * p3
        u4, p4 = u + h * k3u, up + h * k3p
        k4u, k4p = p4, c1 * u4 + drift * p4
        u = u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        up = up + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)

    x = xs[-1]
    det = 1j * (kr - k)
    a_inc = (1j * kr * u - up) / det * np.exp(-1j * k * x)
    b_ref = (up - 1j * k * u) / det * np.exp(-1j * kr * x)
    if np.any(a_inc == 0.0):
        raise NumericalError("vanishing incident amplitude; cannot normalize r, t")
    return (b_ref / a_inc).reshape(shape), (1.0 / a_inc).reshape(shape)


def report_from_final(
    final: WaveFunction,
    packet: PacketSpec,
    params: AnyonicParams,
    separatrix: float = 0.0,
) -> ScatteringReport:
    """Split the final norm across the separatrix into reflected and transmitted.

    The reflected fraction is the share on the packet's incidence side, the
    transmitted fraction the share beyond; region roles follow the incidence
    side.  Raises InconclusiveError when the density centroid is still within
    five packet widths of the separatrix.
    """
    grid = final.grid
    side = math.copysign(1.0, packet.center - separatrix)
    rho = final.density()
    total = trapz(rho, grid.dx)
    if total <= 0:
        raise NumericalError("final norm vanished; nothing to measure")
    centroid = trapz(grid.x * rho, grid.dx) / total
    if abs(centroid - separatrix) < 5.0 * packet.width:
        raise InconclusiveError(
            f"interaction incomplete: centroid {centroid:.1f} still within "
            "5 packet widths of the separatrix"
        )
    incidence_mask = side * (grid.x - separatrix) > 0
    reflected = trapz(np.where(incidence_mask, rho, 0.0), grid.dx) / total
    transmitted = trapz(np.where(~incidence_mask, rho, 0.0), grid.dx) / total
    kr = reflected_wavenumber(packet.carrier, params)
    return ScatteringReport(
        k_incident=packet.carrier,
        k_reflected=kr,
        reflected_power_fraction=reflected,
        transmitted_power_fraction=transmitted,
        reflected_is_evanescent=bool(abs(kr.imag) > EVANESCENT_TOL),
    )


def run_packet_scattering(
    cases, config: PropagatorConfig, grid: Grid, separatrix: float = 0.0, density_stride: int = 1
):
    """Scatter Gaussian packets off potentials; one (record, report) per case.

    ``cases`` is a sequence of ``(spec, params, packet)``, all evolved on
    ``grid`` as one batch by ``evolve_batch``, which keeps each record's
    densities at every ``density_stride``-th point; the ``scatter`` runner
    writes its files from these pairs.  Each packet must start on one
    side of the separatrix with group velocity carrying it toward the
    potential (moving frame: the barrier sits at the origin); a run is
    conclusive once the surviving density's centroid has cleared five packet
    widths.
    """
    for _, params, packet in cases:
        packet.check_approach(params, separatrix)
    fields = [(gaussian_packet(grid, packet), spec, params) for spec, params, packet in cases]
    records = evolve_batch(fields, config, density_stride)
    return [
        (record, report_from_final(record.final(), packet, params, separatrix))
        for record, (_, params, packet) in zip(records, cases)
    ]

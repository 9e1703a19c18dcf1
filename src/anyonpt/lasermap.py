"""Mapping of actively mode-locked cavity parameters onto the drift model.

A cavity with group-velocity dispersion D, spectral filtering Dg, FM/AM
modulation depths Delta1/Delta2 and modulation period Tm detuned from the
round-trip time TR realizes the phase-rotated drifting Hamiltonian with

    phi = atan(Dg / D),        v = 1 - Tm / TR,

provided the gain balances the loss and the modulators are tuned so that
Delta2 / Delta1 = Dg / D.  Detuning the modulation far enough that |v|
crosses the critical drift of the modulation-induced well predicts the
loss of stable mode-locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .model import AnyonicParams
from .spectra import critical_velocity

__all__ = ["CavityParams", "LaserMapping", "map_to_anyonic", "mode_locking_threshold"]


@dataclass(frozen=True)
class CavityParams:
    """Round-trip parameters of a cavity that ``map_to_anyonic`` can carry."""

    D: float
    Dg: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    g: float = 0.0
    l: float = 0.0
    Tm: float = 1.0
    TR: float = 1.0

    def __post_init__(self):
        if self.TR <= 0 or self.Tm <= 0:
            raise DomainError("round-trip and modulation periods must be positive")
        if self.Dg < 0:
            raise DomainError("spectral filtering Dg must be nonnegative")
        if self.D == 0:
            raise DomainError("degenerate dispersion: D = 0 leaves the phase undefined")
        if self.delta1 == 0 and self.delta2 != 0:
            raise DomainError("pure AM modulation (Delta1 = 0) leaves the tuning ratio undefined")
        if math.atan(self.Dg / self.D) < 0:
            raise DomainError("anomalous dispersion D < 0 maps outside the phase range [0, pi/2]")


@dataclass(frozen=True)
class LaserMapping:
    """Mapped parameters plus the validity flags of the reduction."""

    params: AnyonicParams
    gain_balanced: bool
    modulators_tuned: bool


def map_to_anyonic(c: CavityParams) -> LaserMapping:
    """Map cavity parameters to (phi, v) with validity flags attached.

    ``CavityParams`` ensures phi lands in [0, pi/2).  Flags record whether
    the reduction to a pure Hamiltonian flow holds: |g - l| < 1e-9 and
    |Delta2/Delta1 - Dg/D| < 1e-9 (cavities without modulation,
    Delta1 = Delta2 = 0, count as trivially tuned).
    """
    phi = math.atan(c.Dg / c.D)
    v = 1.0 - c.Tm / c.TR
    gain_balanced = abs(c.g - c.l) < 1e-9
    if c.delta1 == 0 and c.delta2 == 0:
        modulators_tuned = True
    else:
        modulators_tuned = abs(c.delta2 / c.delta1 - c.Dg / c.D) < 1e-9
    return LaserMapping(
        params=AnyonicParams(phi=phi, v=v),
        gain_balanced=gain_balanced,
        modulators_tuned=modulators_tuned,
    )


def mode_locking_threshold(c: CavityParams, well_depth_e1: float) -> float:
    """Detuning magnitude |1 - Tm/TR| at which the mode-locked pulse delocalizes.

    Composes the cavity mapping with the critical drift of the bound state at
    energy ``well_depth_e1`` in the modulation-induced well.  Returns inf for
    a dispersion-only cavity (phi = 0), which has no finite threshold.
    """
    return critical_velocity(well_depth_e1, map_to_anyonic(c).params.phi)

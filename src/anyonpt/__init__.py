"""Toolkit for drifting phase-rotated PT-symmetric Schrodinger problems.

Core model types and operators live in :mod:`anyonpt.model`; spectra,
propagation, scattering, non-normal gain diagnostics and the laser-cavity
mapping each get their own module, and :mod:`anyonpt.cli` drives the
config-based experiment runners.
"""

from .errors import (
    AnyonptError,
    ConfigError,
    ContractError,
    DivergenceError,
    DomainError,
    InconclusiveError,
    NumericalError,
)
from .model import (
    AnyonicParams,
    Grid,
    HamiltonianMatrix,
    PoschlTeller,
    Tabulated,
    WaveFunction,
    build_h_eff,
    check_anyonic_symmetry,
)
from .spectra import (
    SpectrumResult,
    continuous_dispersion,
    critical_velocity,
    delocalization_margin,
    fit_localization_length,
    moving_bound_state,
    point_states,
    poschl_teller_energies,
    shifted_point_energy,
    solve_spectrum,
)
from .propagation import (
    EvolutionRecord,
    PropagatorConfig,
    evolve,
    evolve_batch,
    gauge_transform_check,
)
from .scattering import (
    PacketSpec,
    ScatteringReport,
    gaussian_packet,
    group_velocity,
    reflected_wavenumber,
    run_packet_scattering,
    stationary_rt,
)
from .nonnormal import (
    analytic_bound_state_pt,
    g_infinity,
    g_infinity_poschl_teller,
    g_t,
    self_orthogonality,
)
from .lasermap import CavityParams, LaserMapping, map_to_anyonic, mode_locking_threshold
from .config import ExperimentConfig

__version__ = "0.1.0"

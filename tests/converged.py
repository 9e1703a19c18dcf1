"""The shipped evolution configs' fields, and a converged reference for them.

``converged_records`` runs the processed Strang loop at a quarter of a
config's dt.  The loop is fourth order, so that run's time error is 1/256 of
the shipped field's: the evolution tests measure the shipped field's time
error against it, and the oracle tests take its gap as the oracle's own floor.
"""

import functools
from pathlib import Path

import pytest

from anyonpt import (
    ExperimentConfig,
    PropagatorConfig,
    analytic_bound_state_pt,
    evolve_batch,
    gaussian_packet,
    moving_bound_state,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
REFINE = 4


def shipped_config(name: str) -> ExperimentConfig:
    return ExperimentConfig.from_yaml(CONFIG_DIR / f"{name}.yaml")


@functools.cache
def shipped_records(name: str, dt: float) -> list:
    """A shipped evolution config's records at step dt, one per sweep point, start and end only.

    The fields are built as the scatter and amplify runners build them: a Gaussian
    packet per point, or the dressed closed-form bound state on the config box.
    """
    cfg = shipped_config(name)
    points = cfg.sweep_points()
    if cfg.experiment == "scatter":
        starts = [gaussian_packet(cfg.grid, cfg.packet(p.carrier)) for p in points]
    else:
        e1 = cfg.ground_state_energy()
        starts = [
            moving_bound_state(
                analytic_bound_state_pt(cfg.grid, p.delta, p.potential.well_nu), e1, p.params
            )
            for p in points
        ]
    run = PropagatorConfig(dt=dt, t_final=cfg.propagator.t_final, snapshot_every=10**9)
    assert run.n_steps() * dt == pytest.approx(cfg.propagator.t_final, abs=1e-12)
    fields = [(psi0, p.potential, p.params) for psi0, p in zip(starts, points)]
    return evolve_batch(fields, run)


def converged_records(name: str) -> list:
    """``shipped_records`` at the config's dt / REFINE."""
    return shipped_records(name, shipped_config(name).propagator.dt / REFINE)

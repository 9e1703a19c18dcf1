"""The shipped evolution configs' fields, and a converged reference for them.

``converged_records`` runs the processed Strang loop at a quarter of a
config's dt.  The loop is fourth order, so that run's time error is 1/256 of
the shipped field's: the evolution tests measure the shipped field's time
error against it, and the oracle tests take its gap as the oracle's own floor.
``shipped_records`` also takes another point count on the config's box, which
the spatial-error tests set to twice the config's.
"""

import functools
from pathlib import Path

import pytest

from anyonpt import (
    ExperimentConfig,
    Grid,
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
def shipped_records(name: str, dt: float, n_points: int = 0) -> list:
    """A shipped evolution config's records at step dt, one per sweep point, start and end only.

    The fields are built as the scatter and amplify runners build them: a Gaussian
    packet per point, or the dressed closed-form bound state on the config box.
    A nonzero ``n_points`` takes that many points on the box instead of the config's.
    """
    cfg = shipped_config(name)
    grid = Grid(cfg.grid.x_min, cfg.grid.x_max, n_points) if n_points else cfg.grid
    points = cfg.sweep_points()
    if cfg.experiment == "scatter":
        starts = [gaussian_packet(grid, cfg.packet(p.carrier)) for p in points]
    else:
        e1 = cfg.ground_state_energy()
        starts = [
            moving_bound_state(
                analytic_bound_state_pt(grid, p.delta, p.potential.well_nu), e1, p.params
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

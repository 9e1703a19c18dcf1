"""Experiment configuration: a single YAML tree per run.

One file drives one runner.  Any of the axes ``potential.delta``,
``params.phi``, ``params.v`` (or ``params.v_over_vc``) and ``packet.carrier``
may be a list; the runner takes the cartesian product as its sweep, capped at
10^4 points.  ``params.v_over_vc`` expresses the drift as a fraction of the
critical velocity of the configured well's ground state and is mutually
exclusive with ``params.v``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import AnyonptError, ConfigError, ContractError, DomainError
from .lasermap import CavityParams
from .model import DENSE_MAX_DIM, AnyonicParams, Grid, PoschlTeller, Tabulated
from .nonnormal import G_T_MAX_DIM
from .propagation import AbsorberSpec, PropagatorConfig
from .scattering import PacketSpec
from .spectra import critical_velocity, poschl_teller_energies

__all__ = ["ExperimentConfig", "SweepPoint", "EXPERIMENTS"]

EXPERIMENTS = ("spectrum", "delocalize", "scatter", "amplify", "lasermap")
MAX_SWEEP_POINTS = 10_000

_TOP_KEYS = {
    "experiment",
    "output_dir",
    "grid",
    "boundary",
    "potential",
    "params",
    "propagator",
    "packet",
    "separatrix",
    "density_stride",
    "rt_sweep",
    "spectrum",
    "amplify",
    "cavity",
    "detuning",
    "e1",
}


@dataclass(frozen=True)
class SweepPoint:
    """One resolved cell of the sweep (all axes scalar)."""

    index: int
    phi: float
    v: float
    delta: float
    carrier: float | None = None
    v_over_vc: float | None = None


def _as_list(value):
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set, ctx: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{ctx}: must be a mapping, got {mapping!r}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")


def _parse_grid(g: dict, ctx: str) -> Grid:
    _check_keys(g, {"x_min", "x_max", "n_points"}, ctx)
    x_min, x_max, n_points = (_require(g, k, ctx) for k in ("x_min", "x_max", "n_points"))
    try:
        return Grid(float(x_min), float(x_max), int(n_points))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


@dataclass
class ExperimentConfig:
    experiment: str
    grid: Grid | None = None
    boundary: str = "periodic"
    output_dir: str | None = None
    # Potential axis values; delta may hold several sweep values.
    potential_kind: str = "poschl_teller"
    nu: float = 1.0
    delta: list = field(default_factory=lambda: [0.0])
    v0: float | None = None
    potential_file: str | None = None
    # Samples of a tabulated potential, read once from potential_file.
    tabulated: Tabulated | None = field(default=None, compare=False, repr=False)
    # Parameter axes.
    phi: list = field(default_factory=lambda: [0.0])
    v: list | None = None
    v_over_vc: list | None = None
    # Propagation / scattering.
    propagator: PropagatorConfig | None = None
    packet_center: float | None = None
    packet_width: float | None = None
    carrier: list | None = None
    separatrix: float = 0.0
    density_stride: int = 1
    rt_sweep: dict | None = None
    # Spectrum products.
    k_max: float = 6.0
    k_points: int = 601
    # Amplification products.
    amplify_evolve: bool = False
    g_t_times: list = field(default_factory=list)
    g_t_grid: Grid | None = None
    # Laser mapping.
    cavity: CavityParams | None = None
    detuning: dict | None = None
    e1: float | None = None

    # ------------------------------------------------------------------ parsing

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        """Parse a config file; relative paths in it resolve against its directory."""
        path = Path(path)
        try:
            with path.open() as fh:
                raw = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        return cls.from_dict(raw, base_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir=None) -> "ExperimentConfig":
        """Parse a config tree; a relative potential.file resolves against ``base_dir``.

        A value of the wrong type or form anywhere in the tree is a
        ConfigError, never a bare ValueError or TypeError.
        """
        try:
            return cls._parse(raw, base_dir)
        except (ValueError, TypeError) as exc:
            if isinstance(exc, AnyonptError):
                raise
            raise ConfigError(f"config: {exc}") from exc

    @classmethod
    def _parse(cls, raw: dict, base_dir) -> "ExperimentConfig":
        _check_keys(raw, _TOP_KEYS, "config")
        experiment = _require(raw, "experiment", "config")
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {experiment!r}; pick one of {EXPERIMENTS}")

        cfg = cls(experiment=experiment)
        cfg.output_dir = raw.get("output_dir")
        if cfg.output_dir is not None and not isinstance(cfg.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {cfg.output_dir!r}")

        if "grid" in raw:
            cfg.grid = _parse_grid(raw["grid"], "grid")
        cfg.boundary = raw.get("boundary", "periodic")
        if cfg.boundary not in ("dirichlet", "periodic"):
            raise ConfigError(f"boundary must be dirichlet or periodic, got {cfg.boundary!r}")

        if "potential" in raw:
            p = raw["potential"]
            _check_keys(p, {"kind", "nu", "delta", "v0", "file"}, "potential")
            cfg.potential_kind = p.get("kind", "poschl_teller")
            if cfg.potential_kind not in ("poschl_teller", "tabulated"):
                raise ConfigError(f"potential.kind must be poschl_teller or tabulated")
            cfg.nu = float(p.get("nu", 1.0))
            cfg.delta = [float(d) for d in _as_list(p.get("delta", 0.0))]
            cfg.v0 = None if p.get("v0") is None else float(p["v0"])
            if p.get("file") is not None:
                cfg.potential_file = str(Path(base_dir or ".", p["file"]))
            if cfg.potential_kind == "tabulated":
                if not cfg.potential_file:
                    raise ConfigError("potential.kind tabulated requires potential.file")
                try:
                    cfg.tabulated = Tabulated.from_csv(cfg.potential_file)
                except (OSError, ValueError) as exc:  # ContractError is a ValueError
                    raise ConfigError(f"potential.file: {exc}") from exc

        if "params" in raw:
            pr = raw["params"]
            _check_keys(pr, {"phi", "v", "v_over_vc"}, "params")
            cfg.phi = [float(p) for p in _as_list(pr.get("phi", 0.0))]
            if "v" in pr and "v_over_vc" in pr:
                raise ConfigError("params: give either v or v_over_vc, not both")
            if "v_over_vc" in pr:
                cfg.v_over_vc = [float(f) for f in _as_list(pr["v_over_vc"])]
            else:
                cfg.v = [float(f) for f in _as_list(pr.get("v", 0.0))]
        if cfg.v is None and cfg.v_over_vc is None:
            cfg.v = [0.0]

        if "propagator" in raw:
            pp = raw["propagator"]
            _check_keys(
                pp, {"dt", "t_final", "frame", "snapshot_every", "absorber"}, "propagator"
            )
            ab = pp.get("absorber")
            if ab is not None:
                _check_keys(ab, {"width", "strength"}, "propagator.absorber")
                width, strength = (
                    _require(ab, k, "propagator.absorber") for k in ("width", "strength")
                )
            try:
                cfg.propagator = PropagatorConfig(
                    dt=float(pp.get("dt", 0.005)),
                    t_final=float(pp.get("t_final", 10.0)),
                    frame=pp.get("frame", "moving"),
                    snapshot_every=int(pp.get("snapshot_every", 100)),
                    absorber=None if ab is None else AbsorberSpec(float(width), float(strength)),
                )
            except ValueError as exc:  # ContractError is a ValueError
                raise ConfigError(f"propagator: {exc}") from exc

        if "packet" in raw:
            pk = raw["packet"]
            _check_keys(pk, {"center", "width", "carrier"}, "packet")
            cfg.packet_center = float(_require(pk, "center", "packet"))
            cfg.packet_width = float(_require(pk, "width", "packet"))
            cfg.carrier = [float(c) for c in _as_list(pk.get("carrier", 0.0))]
        cfg.separatrix = float(raw.get("separatrix", 0.0))

        if "spectrum" in raw:
            sp = raw["spectrum"]
            _check_keys(sp, {"k_max", "k_points"}, "spectrum")
            cfg.k_max = float(sp.get("k_max", 6.0))
            cfg.k_points = int(sp.get("k_points", 601))

        if "amplify" in raw:
            am = raw["amplify"]
            _check_keys(am, {"evolve", "g_t_times", "g_t_grid"}, "amplify")
            cfg.amplify_evolve = am.get("evolve", False)
            if not isinstance(cfg.amplify_evolve, bool):
                raise ConfigError(
                    f"amplify.evolve must be true or false, got {cfg.amplify_evolve!r}"
                )
            cfg.g_t_times = [float(t) for t in _as_list(am.get("g_t_times", []))]
            if not all(0.0 <= t < math.inf for t in cfg.g_t_times):
                raise ConfigError(
                    f"amplify.g_t_times must be finite and >= 0, got {cfg.g_t_times}"
                )
            if am.get("g_t_grid") is not None:
                cfg.g_t_grid = _parse_grid(am["g_t_grid"], "amplify.g_t_grid")
                if cfg.g_t_grid.n_points > G_T_MAX_DIM:
                    raise ConfigError(
                        f"amplify.g_t_grid.n_points must be <= {G_T_MAX_DIM} "
                        f"(dense propagator), got {cfg.g_t_grid.n_points}"
                    )

        cfg.density_stride = int(raw.get("density_stride", 1))
        if cfg.density_stride < 1:
            raise ConfigError("density_stride must be >= 1")

        if "rt_sweep" in raw:
            rt = raw["rt_sweep"]
            _check_keys(rt, {"k_min", "k_max", "num"}, "rt_sweep")
            cfg.rt_sweep = {
                "k_min": float(_require(rt, "k_min", "rt_sweep")),
                "k_max": float(_require(rt, "k_max", "rt_sweep")),
                "num": int(_require(rt, "num", "rt_sweep")),
            }
            if not (1 <= cfg.rt_sweep["num"] <= MAX_SWEEP_POINTS):
                raise ConfigError("rt_sweep.num out of range")

        if "cavity" in raw:
            cv = raw["cavity"]
            _check_keys(cv, {"D", "Dg", "delta1", "delta2", "g", "l", "Tm", "TR"}, "cavity")
            try:
                cfg.cavity = CavityParams(
                    D=float(_require(cv, "D", "cavity")),
                    Dg=float(cv.get("Dg", 0.0)),
                    delta1=float(cv.get("delta1", 0.0)),
                    delta2=float(cv.get("delta2", 0.0)),
                    g=float(cv.get("g", 0.0)),
                    l=float(cv.get("l", 0.0)),
                    Tm=float(cv.get("Tm", 1.0)),
                    TR=float(cv.get("TR", 1.0)),
                )
            except ValueError as exc:
                raise ConfigError(f"cavity: {exc}") from exc
        if "detuning" in raw:
            dt_ = raw["detuning"]
            _check_keys(dt_, {"start", "stop", "num"}, "detuning")
            cfg.detuning = {
                "start": float(_require(dt_, "start", "detuning")),
                "stop": float(_require(dt_, "stop", "detuning")),
                "num": int(_require(dt_, "num", "detuning")),
            }
            if cfg.detuning["num"] < 1 or cfg.detuning["num"] > MAX_SWEEP_POINTS:
                raise ConfigError("detuning.num out of range")
        if raw.get("e1") is not None:
            cfg.e1 = float(raw["e1"])

        cfg.validate()
        return cfg

    # ------------------------------------------------------------------ checks

    def validate(self):
        ex = self.experiment
        if ex in ("spectrum", "delocalize", "scatter", "amplify"):
            if self.grid is None:
                raise ConfigError(f"{ex}: grid section is required")
        if ex == "scatter":
            if self.propagator is None or self.packet_center is None:
                raise ConfigError("scatter: propagator and packet sections are required")
        if ex == "amplify" and self.amplify_evolve and self.propagator is None:
            raise ConfigError("amplify with evolve: true requires a propagator section")
        absorber = self.propagator.absorber if self.propagator is not None else None
        if absorber is not None and self.grid is not None:
            try:  # the width check evolve makes on the grid it runs on
                absorber.mask(self.grid)
            except ContractError as exc:
                raise ConfigError(f"propagator.absorber: {exc}") from exc
        if ex == "lasermap":
            if self.cavity is None:
                raise ConfigError("lasermap: cavity section is required")
            if self.e1 is None:
                raise ConfigError("lasermap: e1 (well depth for the threshold) is required")
        if self.v_over_vc is not None or ex in ("amplify", "delocalize"):
            self.ground_state_energy()  # ConfigError without a bound well
        if self.v_over_vc is not None and any(p == 0.0 for p in self.phi):
            raise ConfigError("v_over_vc is undefined at phi = 0 (no finite v_c)")
        try:
            points = self.sweep_points()
            for p in points:
                AnyonicParams(phi=p.phi, v=p.v)
        except DomainError as exc:
            raise ConfigError(f"params: {exc}") from exc
        if len(points) > MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep has {len(points)} points, cap is {MAX_SWEEP_POINTS}")
        # the grids these runners hand to the dense eigensolver
        if ex in ("spectrum", "delocalize"):
            n = max(self.grid_for_point(p).n_points for p in points)
        elif ex == "amplify" and not self.closed_form_well():
            n = self.grid.n_points
        else:
            n = 0
        if n > DENSE_MAX_DIM:
            raise ConfigError(
                f"{ex}: the dense eigensolve would run on {n} points, above the cap of "
                f"{DENSE_MAX_DIM} (spectrum and delocalize double the box above 0.9 v_c)"
            )
        if ex == "scatter":
            for p in points:
                try:
                    packet = self.packet(p.carrier)
                    packet.validate_on(self.grid)
                    packet.check_approach(AnyonicParams(phi=p.phi, v=p.v), self.separatrix)
                except ContractError as exc:
                    raise ConfigError(f"sweep point {p.index}: {exc}") from exc

    def effective_amplitude(self) -> float:
        return self.v0 if self.v0 is not None else -self.nu * (self.nu + 1.0)

    def closed_form_well(self) -> bool:
        """The nu = 1 well has a closed-form bound state; others need an eigensolve."""
        return self.nu == 1.0 and self.v0 is None

    # ------------------------------------------------------------------ access

    def ground_state_energy(self) -> float:
        """E_1 of the configured well (needs a poschl_teller well)."""
        if self.potential_kind != "poschl_teller" or self.effective_amplitude() >= 0:
            raise ConfigError("the ground state needs a poschl_teller well (negative amplitude)")
        return poschl_teller_energies(self.nu).energies[0]

    def grid_for_point(self, point: SweepPoint) -> Grid:
        """Eigensolve grid: a doubled box near v_c, where localization lengths diverge."""
        try:
            e1 = self.ground_state_energy()
        except ConfigError:
            return self.grid
        if point.phi > 0 and abs(point.v) > 0.9 * critical_velocity(e1, point.phi):
            return self.grid.scaled(2.0, 2.0)
        return self.grid

    def potential(self, delta: float):
        if self.potential_kind == "tabulated":
            return self.tabulated
        return PoschlTeller(nu=self.nu, delta=delta, v0=self.v0)

    def packet(self, carrier: float) -> PacketSpec:
        return PacketSpec(center=self.packet_center, width=self.packet_width, carrier=carrier)

    def sweep_points(self) -> list:
        """Cartesian product of the list-valued axes, resolved to scalars."""
        carriers = self.carrier if self.carrier is not None else [None]
        fractional = self.v_over_vc is not None
        v_axis = self.v_over_vc if fractional else (self.v if self.v is not None else [0.0])
        e1 = self.ground_state_energy() if fractional else None
        points = []
        for i, (delta, phi, vval, carrier) in enumerate(
            itertools.product(self.delta, self.phi, v_axis, carriers)
        ):
            v = vval * critical_velocity(e1, phi) if fractional else vval
            frac = vval if fractional else None
            points.append(SweepPoint(i, phi, v, delta, carrier=carrier, v_over_vc=frac))
        return points

    # ------------------------------------------------------------------ output

    def to_dict(self) -> dict:
        out: dict = {"experiment": self.experiment}
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        if self.grid is not None:
            out["grid"] = {
                "x_min": self.grid.x_min,
                "x_max": self.grid.x_max,
                "n_points": self.grid.n_points,
            }
            out["boundary"] = self.boundary
        pot: dict = {"kind": self.potential_kind, "nu": self.nu, "delta": list(self.delta)}
        if self.v0 is not None:
            pot["v0"] = self.v0
        if self.potential_file is not None:
            pot["file"] = self.potential_file
        out["potential"] = pot
        params: dict = {"phi": list(self.phi)}
        if self.v_over_vc is not None:
            params["v_over_vc"] = list(self.v_over_vc)
        else:
            params["v"] = list(self.v if self.v is not None else [0.0])
        out["params"] = params
        if self.propagator is not None:
            pp: dict = {
                "dt": self.propagator.dt,
                "t_final": self.propagator.t_final,
                "frame": self.propagator.frame,
                "snapshot_every": self.propagator.snapshot_every,
            }
            if self.propagator.absorber is not None:
                pp["absorber"] = {
                    "width": self.propagator.absorber.width,
                    "strength": self.propagator.absorber.strength,
                }
            out["propagator"] = pp
        if self.packet_center is not None:
            out["packet"] = {
                "center": self.packet_center,
                "width": self.packet_width,
                "carrier": list(self.carrier or [0.0]),
            }
            out["separatrix"] = self.separatrix
        if self.density_stride != 1:
            out["density_stride"] = self.density_stride
        if self.rt_sweep is not None:
            out["rt_sweep"] = dict(self.rt_sweep)
        if self.experiment == "spectrum":
            out["spectrum"] = {"k_max": self.k_max, "k_points": self.k_points}
        if self.experiment == "amplify":
            am: dict = {"evolve": self.amplify_evolve}
            if self.g_t_times:
                am["g_t_times"] = list(self.g_t_times)
            if self.g_t_grid is not None:
                am["g_t_grid"] = {
                    "x_min": self.g_t_grid.x_min,
                    "x_max": self.g_t_grid.x_max,
                    "n_points": self.g_t_grid.n_points,
                }
            out["amplify"] = am
        if self.cavity is not None:
            c = self.cavity
            out["cavity"] = {
                "D": c.D,
                "Dg": c.Dg,
                "delta1": c.delta1,
                "delta2": c.delta2,
                "g": c.g,
                "l": c.l,
                "Tm": c.Tm,
                "TR": c.TR,
            }
        if self.detuning is not None:
            out["detuning"] = dict(self.detuning)
        if self.e1 is not None:
            out["e1"] = self.e1
        return out

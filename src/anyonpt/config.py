"""Experiment configuration: a single YAML tree per run.

One file drives one runner.  Any of the axes ``potential.delta``,
``params.phi``, ``params.v`` (or ``params.v_over_vc``) and ``packet.carrier``
may be a list; the runner takes the cartesian product as its sweep, capped at
10^4 points.  ``params.v_over_vc`` expresses the drift as a fraction of the
critical velocity of the configured well's ground state and is mutually
exclusive with ``params.v``.

The table ``_KEYS`` states every key once: the field it fills, its kind, its
default and its bound.  Parsing and ``to_dict`` both walk it.  Ranges that a
domain type checks (``Grid``, ``PoschlTeller``, ``PropagatorConfig``, ...)
stay in that type; rules that span several keys are code in ``validate``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import yaml

from .errors import AnyonptError, ConfigError, ContractError, DomainError
from .lasermap import CavityParams
from .model import DENSE_MAX_DIM, MAX_GRID_POINTS, AnyonicParams, Grid, PoschlTeller, Tabulated
from .nonnormal import G_T_MAX_DIM, gain_grid
from .propagation import PropagatorConfig
from .scattering import PacketSpec, _auto_range
from .spectra import critical_velocity, delocalization_margin, poschl_teller_energies

__all__ = ["ExperimentConfig", "SweepPoint", "EXPERIMENTS"]

EXPERIMENTS = ("spectrum", "delocalize", "scatter", "amplify", "lasermap")
MAX_SWEEP_POINTS = 10_000
EVOLUTION_MAX_BYTES = 16 * DENSE_MAX_DIM**2  # 1 GiB, a spectrum run's one dense copy


@dataclass(frozen=True)
class SweepPoint:
    """One resolved cell of the sweep: its delta, drift, potential and grid.

    ``params`` is the point's (phi, v); ``potential`` is its PoschlTeller
    well, or the config's Tabulated samples; ``carrier`` is set for a scatter
    sweep.  ``grid`` is the box the runner computes on, checked against its
    cap by ``validate``: for ``spectrum`` and ``delocalize`` the config grid,
    doubled above 0.9 v_c of a bound well, where localization lengths
    diverge; for ``amplify`` the box ``gain_grid(delta, nu)`` on which
    ``g_infinity`` sums the closed-form ground state (``gain_grid`` itself
    refuses a delta near pi/2); else the config grid.
    """

    index: int
    delta: float
    params: AnyonicParams
    potential: PoschlTeller | Tabulated
    grid: Grid | None
    carrier: float | None = None


_AXIS = "axis"  # kind of a sweep axis: a non-empty list of finite floats
_REQUIRED = object()
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class _Key(NamedTuple):
    """One key of the tree.

    ``kind`` is float (finite), int (integral, not a bool), bool, str, list
    (finite floats), ``_AXIS`` or a tuple of choices.  ``bound`` is a flat
    ``(op, limit, ...)`` tuple checked on the value, or on each list element.
    """

    key: str  # dotted path in the YAML tree
    kind: object
    default: object = None  # None: the field keeps its own default
    bound: tuple = ()
    field: str | None = None  # attribute path from ExperimentConfig, if not ``key``

    @property
    def attrs(self) -> list:
        return (self.field or self.key).split(".")


_SWEEP_CAP = (">=", 1, "<=", MAX_SWEEP_POINTS)
_KEYS = (
    _Key("experiment", EXPERIMENTS, _REQUIRED),
    _Key("output_dir", str),
    _Key("grid.x_min", float, _REQUIRED),
    _Key("grid.x_max", float, _REQUIRED),
    _Key("grid.n_points", int, _REQUIRED, ("<=", MAX_GRID_POINTS)),
    _Key("boundary", ("dirichlet", "periodic")),
    _Key("potential.kind", ("poschl_teller", "tabulated"), field="potential_kind"),
    _Key("potential.nu", float, field="nu"),
    _Key("potential.delta", _AXIS, field="delta"),
    _Key("potential.v0", float, field="v0"),
    _Key("potential.file", str, field="potential_file"),
    _Key("params.phi", _AXIS, field="phi"),
    _Key("params.v", _AXIS, field="v"),
    _Key("params.v_over_vc", _AXIS, field="v_over_vc"),
    _Key("propagator.dt", float),
    _Key("propagator.t_final", float),
    _Key("propagator.snapshot_every", int),
    _Key("packet.center", float, _REQUIRED, field="packet_center"),
    _Key("packet.width", float, _REQUIRED, field="packet_width"),
    _Key("packet.carrier", _AXIS, 0.0, field="carrier"),
    _Key("separatrix", float),
    _Key("density_stride", int, bound=(">=", 1)),
    _Key("rt_sweep.k_min", float, _REQUIRED),
    _Key("rt_sweep.k_max", float, _REQUIRED),
    _Key("rt_sweep.num", int, _REQUIRED, _SWEEP_CAP),
    _Key("spectrum.k_max", float, field="k_max"),
    _Key("spectrum.k_points", int, bound=(">=", 1, "<=", MAX_GRID_POINTS), field="k_points"),
    _Key("amplify.evolve", bool, field="amplify_evolve"),
    _Key("amplify.g_t_times", list, bound=(">=", 0.0), field="g_t_times"),
    _Key("amplify.g_t_grid.x_min", float, _REQUIRED, field="g_t_grid.x_min"),
    _Key("amplify.g_t_grid.x_max", float, _REQUIRED, field="g_t_grid.x_max"),
    # g_t's propagator cap
    _Key("amplify.g_t_grid.n_points", int, _REQUIRED, ("<=", G_T_MAX_DIM), "g_t_grid.n_points"),
    _Key("cavity.D", float, _REQUIRED),
    *(_Key(f"cavity.{name}", float) for name in ("Dg", "delta1", "delta2", "g", "l", "Tm", "TR")),
    _Key("detuning.start", float, _REQUIRED, (">", 0.0)),
    _Key("detuning.stop", float, _REQUIRED, (">", 0.0)),
    _Key("detuning.num", int, _REQUIRED, _SWEEP_CAP),
    _Key("e1", float, bound=("<", 0.0)),
)
_SECTIONS = dict.fromkeys(k.key.rpartition(".")[0] for k in _KEYS)
# Sections that build a domain type, which checks its own ranges; the keys of
# every other section fill ExperimentConfig fields directly.
_BUILDS = {"grid": Grid, "propagator": PropagatorConfig, "amplify.g_t_grid": Grid,
           "cavity": CavityParams, "rt_sweep": dict, "detuning": dict}
# The fields each runner needs set (amplify with evolve: true also a grid and a propagator).
_NEEDS = {"spectrum": ("grid",), "delocalize": ("grid",), "amplify": (),
          "scatter": ("grid", "propagator", "packet_center"), "lasermap": ("cavity", "e1")}


def _number(value, path: str, kind=float):
    try:
        number = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or not math.isfinite(number):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if kind is int and not number.is_integer():
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value if kind is int and isinstance(value, int) else kind(number)


def _coerce(key: _Key, value):
    """Turn a YAML value into the key's kind, then check the key's bound."""
    kind, path = key.kind, key.key
    if kind in (float, int):
        value = _number(value, path, kind)
    elif kind in (list, _AXIS):
        value = [_number(v, path) for v in (value if isinstance(value, (list, tuple)) else [value])]
        if kind is _AXIS and not value:
            raise ConfigError(f"{path} must not be empty")
    elif isinstance(kind, tuple) and value not in kind:
        raise ConfigError(f"{path} must be one of {kind}, got {value!r}")
    elif isinstance(kind, type) and not isinstance(value, kind):
        raise ConfigError(f"{path} must be a {kind.__name__}, got {value!r}")
    for op, limit in zip(key.bound[::2], key.bound[1::2]):
        for item in value if isinstance(value, list) else [value]:
            if not _OPS[op](item, limit):
                raise ConfigError(f"{path} must be {op} {limit}, got {item!r}")
    return value


def _read(raw, section: str = "") -> dict:
    """Check and coerce one mapping of the tree; return the fields it sets.

    A null value counts as an absent key.  Each subsection is read in turn,
    then built into its domain type or merged into the result.
    """
    where = section or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: must be a mapping, got {raw!r}")
    keys = {k.key.rpartition(".")[2]: k for k in _KEYS if k.key.rpartition(".")[0] == section}
    subs = {s.rpartition(".")[2]: s for s in _SECTIONS if s and s.rpartition(".")[0] == section}
    unknown = set(raw) - set(keys) - set(subs)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(map(str, unknown))}")
    out = {}
    for name, key in keys.items():
        value = key.default if raw.get(name) is None else raw[name]
        if value is _REQUIRED:
            raise ConfigError(f"{where}: missing required key {name!r}")
        if value is not None:
            out[key.attrs[-1]] = _coerce(key, value)
    for name, sub in subs.items():
        if raw.get(name) is not None:
            fields = _read(raw[name], sub)
            try:
                out.update({name: _BUILDS[sub](**fields)} if sub in _BUILDS else fields)
            except ValueError as exc:  # ContractError and DomainError are ValueErrors
                raise ConfigError(f"{sub}: {exc}") from exc
    return out


@dataclass
class ExperimentConfig:
    experiment: str
    grid: Grid | None = None
    boundary: str = "periodic"
    output_dir: str | None = None
    potential_kind: str = "poschl_teller"
    nu: float = PoschlTeller.nu
    delta: list = field(default_factory=lambda: [PoschlTeller.delta])
    v0: float | None = None
    potential_file: str | None = None
    # Samples of a tabulated potential, read once from potential_file.
    tabulated: Tabulated | None = field(default=None, compare=False, repr=False)
    phi: list = field(default_factory=lambda: [0.0])
    v: list | None = None
    v_over_vc: list | None = None
    propagator: PropagatorConfig | None = None
    packet_center: float | None = None
    packet_width: float | None = None
    carrier: list | None = None
    separatrix: float = 0.0
    density_stride: int = 1
    rt_sweep: dict | None = None
    k_max: float = 6.0
    k_points: int = 601
    amplify_evolve: bool = False
    g_t_times: list = field(default_factory=list)
    g_t_grid: Grid = Grid(-30.0, 30.0, 1024)
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
        return cls.from_dict(raw, base_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir=None) -> "ExperimentConfig":
        """Parse a config tree; a relative potential.file resolves against ``base_dir``.

        A value of the wrong type or form anywhere in the tree is a
        ConfigError, never a bare ValueError or TypeError.
        """
        try:
            cfg = cls(**_read(raw))
            given = {k for k, v in (raw.get("potential") or {}).items() if v is not None}
            if unused := sorted(given & cfg._unused_potential_keys()):
                raise ConfigError(f"potential: {', '.join(unused)} would go unused (nu and v0 "
                                  "exclude each other; a tabulated potential reads only file)")
            if cfg.v is None and cfg.v_over_vc is None:
                cfg.v = [0.0]
            if cfg.potential_file is not None:
                cfg.potential_file = str(Path(base_dir or ".", cfg.potential_file))
            if cfg.potential_kind == "tabulated":
                if not cfg.potential_file:
                    raise ConfigError("potential.kind tabulated requires potential.file")
                try:
                    cfg.tabulated = Tabulated.from_csv(cfg.potential_file)
                except (OSError, ValueError) as exc:  # ContractError is a ValueError
                    raise ConfigError(f"potential.file: {exc}") from exc
            cfg.validate()
        except (ValueError, TypeError) as exc:
            if isinstance(exc, AnyonptError):
                raise
            raise ConfigError(f"config: {exc}") from exc
        return cfg

    # ------------------------------------------------------------------ checks

    def validate(self):
        """The rules that span several keys; single-key rules live in ``_KEYS``."""
        ex = self.experiment
        if self.v is not None and self.v_over_vc is not None:
            raise ConfigError("params: give either v or v_over_vc, not both")
        evolves = ex == "amplify" and self.amplify_evolve
        needs = _NEEDS[ex] + (("grid", "propagator") if evolves else ())
        missing = [name for name in needs if getattr(self, name) is None]
        if missing:
            raise ConfigError(f"{ex}: {missing[0]} is required")
        if ex == "scatter" and not self.grid.x_min < self.separatrix < self.grid.x_max:
            raise ConfigError(f"separatrix {self.separatrix} is not strictly inside the grid")
        if self.v_over_vc is not None and any(p == 0.0 for p in self.phi):
            raise ConfigError("v_over_vc is undefined at phi = 0 (no finite v_c)")
        size = math.prod(map(len, self._axes()))  # before any point is built
        if size > MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep has {size} points, cap is {MAX_SWEEP_POINTS}")
        try:  # the domain types' own checks, as sweep_points builds every point
            e1 = self.ground_state_energy()
            if e1 is None and (self.v_over_vc is not None or ex in ("amplify", "delocalize")):
                raise ConfigError("the ground state needs a poschl_teller well (amplitude < 0)")
            points = self.sweep_points()
            for p in points:
                if ex == "scatter":  # the packet fits the grid and meets the separatrix
                    packet = self.packet(p.carrier)
                    packet.validate_on(self.grid)
                    packet.check_approach(p.params, self.separatrix)
                    if self.rt_sweep is not None:  # stationary_rt needs a decaying tail
                        _auto_range(p.potential)
                # g_infinity integrates the drifting state, normalizable only below v_c
                if ex == "amplify" and delocalization_margin(e1, p.params) <= 0:
                    v, vc = p.params.v, critical_velocity(e1, p.params.phi)
                    raise ConfigError(f"amplify: v = {v:.12g} is at or beyond v_c = {vc:.12g}")
        except (ContractError, DomainError) as exc:
            raise ConfigError(f"sweep: {exc}") from exc
        # Dirichlet ends collapse a drifting spectrum onto the undrifted one and
        # pile its band states against a wall (see the spectra module)
        drifting = [p.params for p in points if p.params.v * math.sin(p.params.phi) != 0.0]
        if ex == "spectrum" and self.boundary == "dirichlet" and drifting:
            raise ConfigError(
                f"spectrum: v = {drifting[0].v:.12g} at phi = {drifting[0].phi:.12g} "
                "needs boundary: periodic"
            )
        # a spectrum run may fall back to a real- or complex-general solve, which holds
        # an n x n copy; its other paths and the other runners take O(n) per grid point
        cap = DENSE_MAX_DIM if ex == "spectrum" else MAX_GRID_POINTS
        n = max((p.grid.n_points for p in points if p.grid is not None), default=0)
        if n > cap:
            raise ConfigError(f"{ex}: grid of {n} points (config box, doubled near v_c) > {cap}")
        # an evolution's size: its complex fields at its stops, 16 bytes a point; evolve_batch keeps
        # N(t), the last field and 8 bytes a kept density sample (at most half); text takes under 20
        if ex == "scatter" or evolves:
            snaps, n = len(self.propagator.snapshot_steps()), self.grid.n_points
            if (held := 16 * snaps * len(points) * n) > EVOLUTION_MAX_BYTES:
                raise ConfigError(f"{ex}: {snaps} snapshots x {len(points)} fields x {n} points "
                                  f"hold {held} bytes > {EVOLUTION_MAX_BYTES} (1 GiB)")

    # ------------------------------------------------------------------ access

    def bound_energies(self) -> tuple:
        """E_1 < E_2 < ... of the configured well, of ``PoschlTeller.well_nu``;
        empty without a well, and capped at MAX_SWEEP_POINTS states before any is built."""
        if self.potential_kind != "poschl_teller" or (nu := self.potential(0.0).well_nu) is None:
            return ()
        if not nu < MAX_SWEEP_POINTS:
            raise ConfigError(f"potential: nu = {nu:.12g}, cap is {MAX_SWEEP_POINTS} bound states")
        return poschl_teller_energies(nu)

    def ground_state_energy(self) -> float | None:
        """E_1 of the configured well; None without one."""
        return next(iter(self.bound_energies()), None)

    def _unused_potential_keys(self) -> set:
        """The potential keys this config's potential never reads (``to_dict`` skips them)."""
        if self.potential_kind == "tabulated":
            return {"nu", "v0", "delta"}
        return {"file", "nu"} if self.v0 is not None else {"file"}

    def potential(self, delta: float):
        if self.potential_kind == "tabulated":
            return self.tabulated
        return PoschlTeller(nu=self.nu, delta=delta, v0=self.v0)

    def packet(self, carrier: float) -> PacketSpec:
        return PacketSpec(center=self.packet_center, width=self.packet_width, carrier=carrier)

    def _axes(self) -> tuple:
        """The sweep axes in product order: delta, phi, v (or v/v_c), carrier."""
        v_axis = self.v_over_vc if self.v_over_vc is not None else self.v
        return self.delta, self.phi, v_axis, self.carrier if self.carrier is not None else [None]

    def sweep_points(self) -> list:
        """Cartesian product of the list-valued axes; each point with its params and grid."""
        ex, e1 = self.experiment, self.ground_state_energy()
        fractional = self.v_over_vc is not None
        points = []
        for i, (delta, phi, vval, carrier) in enumerate(itertools.product(*self._axes())):
            v = vval * critical_velocity(e1, phi) if fractional else vval
            params, potential, grid = AnyonicParams(phi=phi, v=v), self.potential(delta), self.grid
            near_vc = e1 is not None and abs(v) > 0.9 * critical_velocity(e1, phi)
            if ex in ("spectrum", "delocalize") and near_vc:
                grid = Grid(2.0 * grid.x_min, 2.0 * grid.x_max, 2 * grid.n_points)
            elif ex == "amplify":
                grid = gain_grid(delta, potential.well_nu)
            points.append(SweepPoint(i, delta, params, potential, grid, carrier))
        return points

    # ------------------------------------------------------------------ output

    def to_dict(self) -> dict:
        """The tree that ``from_dict`` reads back to an equal config."""
        out: dict = {}
        unused = {f"potential.{name}" for name in self._unused_potential_keys()}
        for key in _KEYS:
            value = self
            for name in key.attrs:  # None once a section is unset
                value = value.get(name) if isinstance(value, dict) else getattr(value, name, None)
            if value is None or key.key in unused:
                continue
            *sections, name = key.key.split(".")
            node = out
            for section in sections:
                node = node.setdefault(section, {})
            node[name] = list(value) if isinstance(value, list) else value
        return out

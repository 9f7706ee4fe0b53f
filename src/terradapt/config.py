"""Declarative run configuration.

One YAML file drives every CLI command. Top-level sections (all optional,
with desk-scale defaults): seed, output_dir, vehicle, world, provider, sim,
dataset, training, controller, scenario. The environment variable
TERRADAPT_OUT overrides output_dir when set. See the README for the full key
reference.

The dataclasses are the schema: each section is built as the class its
field is annotated with, the program's own parameter class where it has one
(vehicle.tracked and vehicle.ackermann, world and its classes, training,
controller.gains, controller.adaptation, scenario.fault). _build reads the
annotations and refuses an unknown key, a value of the wrong type and a
list of the wrong length with a ConfigError naming the key's path; each
class then checks its own values, and Config the pairings of two sections.
load_config also refuses a key given twice in one mapping, and a file it
cannot read.
All of it runs at load, by every command, except the checks that need a
file or what a command builds, which run before the command writes output:
a recorded world's eta width against the tracked vehicle; in simulate and
evaluate, the checkpoint against the vehicle and the world, the lengths of
controller.adaptation.q_diag and controller.theta0 against the basis, and
scenario.circle_speed against vehicle.ackermann.v_min, below which the
car has no lateral authority. gen-data drives any cruise range: the car is
defined at every forward speed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import types
import typing
from dataclasses import dataclass, field

import yaml

from .control import AdaptParams, Gains
from .training import TrainerConfig
from .vehicles import AckermannParams, FaultSchedule, TrackedParams
from .world import WorldSpec


class ConfigError(ValueError):
    """Bad or inconsistent configuration."""


# Largest dt_plant / tau at which one classic RK4 step does not amplify the
# decay mode vdot = -v / tau: the real z < 0 where the step's stability
# polynomial 1 + z + z^2/2 + z^3/6 + z^4/24 returns to 1, i.e. the real root
# of z^3 + 4 z^2 + 12 z + 24 = 0, negated.
RK4_REAL_LIMIT = 2.785293563405289


@dataclass
class VehicleConfig:
    type: str = "tracked"               # tracked | ackermann
    half_spacing: float = 0.3           # track / wheel patch lateral offset [m]
    u_v_max: float = 2.0
    u_omega_max: float = 3.0
    u_delta_max: float = 0.45
    tracked: TrackedParams = field(default_factory=TrackedParams)
    ackermann: AckermannParams = field(default_factory=AckermannParams)

    def __post_init__(self):
        if self.type not in ("tracked", "ackermann"):
            raise ValueError(f"vehicle type must be tracked or ackermann, got {self.type!r}")
        if not self.half_spacing > 0:
            raise ValueError("half_spacing must be positive")
        # a limit at or below zero clamps every command (NaN fails the compare)
        for key in ("u_v_max", "u_omega_max", "u_delta_max"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")


@dataclass
class ProviderConfig:
    noise_std: float = 0.02
    brightness: float = 1.0
    mode: str = "synthetic"             # synthetic | recorded
    world_file: str | None = None       # required for recorded mode

    def __post_init__(self):
        if self.mode not in ("synthetic", "recorded"):
            raise ValueError(f"provider mode must be synthetic or recorded, got {self.mode!r}")
        if not self.noise_std >= 0:
            raise ValueError(f"noise_std must be nonnegative, got {self.noise_std}")
        if not self.brightness > 0:
            raise ValueError(f"brightness must be positive, got {self.brightness}")
        if self.mode == "recorded" and not self.world_file:
            raise ValueError("mode 'recorded' requires world_file")
        if self.mode == "synthetic" and self.world_file is not None:
            raise ValueError("world_file is read only in mode 'recorded'; mode 'synthetic' "
                             "builds the world from the world section")


@dataclass
class SimConfig:
    dt_plant: float = 0.01
    control_period: float = 0.05
    vdot_noise_std: float = 0.05
    residual_cutoff_hz: float = 2.0

    def __post_init__(self):
        if not 0 < self.dt_plant <= 0.1:
            raise ValueError("dt_plant must lie in (0, 0.1]")
        if not (math.isfinite(self.control_period) and self.control_period > 0):
            raise ValueError(f"control_period must be positive and finite, "
                             f"got {self.control_period}")
        ratio = self.control_period / self.dt_plant
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("control_period must be an integer multiple of dt_plant")
        if not self.vdot_noise_std >= 0:
            raise ValueError(f"vdot_noise_std must be nonnegative, got {self.vdot_noise_std}")
        if not self.residual_cutoff_hz > 0:
            raise ValueError(f"residual_cutoff_hz must be positive, got {self.residual_cutoff_hz}")


@dataclass
class DatasetConfig:
    steps: int = 20000                  # recorded samples at the control rate
    n_traj: int = 1
    warmup_s: float = 1.0               # discard the residual filter transient
    hold_range_s: tuple[float, float] = (0.5, 2.0)  # random input segment durations
    u_v_range: tuple[float, float] = (-1.5, 1.5)
    u_omega_range: tuple[float, float] = (-2.0, 2.0)
    u_delta_range: tuple[float, float] = (-0.35, 0.35)
    cruise_range: tuple[float, float] = (1.0, 2.0)  # ackermann forward command range
    margin_frac: float = 0.1            # interior margin triggering the bounce turn
    file: str = "dataset.tdc"

    def __post_init__(self):
        if self.steps < 1 or self.n_traj < 1:
            raise ValueError("steps and n_traj must be positive")
        if not 0 <= self.margin_frac < 0.5:
            raise ValueError("margin_frac must lie in [0, 0.5)")
        if not self.warmup_s >= 0:
            raise ValueError(f"warmup_s must be nonnegative, got {self.warmup_s}")
        # a hold at or below zero redraws the input every tick
        if not min(self.hold_range_s) > 0:
            raise ValueError(f"hold_range_s must hold positive durations, got {self.hold_range_s}")
        for name in ("u_v_range", "u_omega_range", "u_delta_range", "cruise_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:                                      # NaN fails too
                raise ValueError(f"{name} low end above its high end: {(lo, hi)}")


def split_variant(variant: str) -> tuple[str, bool]:
    """'dnn-frozen' -> ('dnn', False); adaptation is on unless frozen. An
    unknown base name is refused."""
    base = variant.removesuffix("-frozen")
    if base not in ("pd", "constant", "dnn"):
        raise ValueError(f"unknown controller variant {variant!r}; give pd, constant "
                         "or dnn, each optionally with -frozen")
    return base, base == variant


@dataclass
class ControllerConfig:
    variant: str = "dnn"                # pd | constant | dnn, optional -frozen suffix
    checkpoint: str = "basis.tdc"       # required by the dnn variants
    theta0: tuple[float, ...] | None = None  # default: zeros (constant), theta_r (dnn)
    gains: Gains = field(default_factory=Gains)
    adaptation: AdaptParams = field(default_factory=AdaptParams)

    def __post_init__(self):
        split_variant(self.variant)
        if self.theta0 is not None and not all(math.isfinite(t) for t in self.theta0):
            raise ValueError(f"theta0 entries must be finite, got {self.theta0}")


@dataclass
class ScenarioConfig:
    kind: str = "velocity-random"       # velocity-random | figure8 | ackermann-circle
    duration_s: float = 40.0
    runs: int = 40
    start_margin_frac: float = 0.1
    v_range: tuple[float, float] = (0.4, 1.3)
    omega_range: tuple[float, float] = (-1.0, 1.0)
    hold_range_s: tuple[float, float] = (2.0, 4.0)
    fig8_amp_x: float = 3.0
    fig8_amp_y: float = 1.5
    fig8_period_s: float = 30.0
    circle_radius: float = 2.5
    circle_speed: float = 1.5
    fault: FaultSchedule = field(default_factory=FaultSchedule)
    telemetry: bool = True

    def __post_init__(self):
        if self.kind not in ("velocity-random", "figure8", "ackermann-circle"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not self.duration_s > 0 or self.runs < 1:
            raise ValueError("duration_s must be positive and runs at least 1")
        # a hold at or below zero never moves the reference draw forward
        if not min(self.hold_range_s) > 0:
            raise ValueError(f"hold_range_s must hold positive durations, got {self.hold_range_s}")
        if not 0 <= self.start_margin_frac < 0.5:
            raise ValueError(f"start_margin_frac must lie in [0, 0.5), "
                             f"got {self.start_margin_frac}")
        if not (math.isfinite(self.fig8_amp_x) and math.isfinite(self.fig8_amp_y)):
            raise ValueError(f"fig8_amp_x and fig8_amp_y must be finite, "
                             f"got {(self.fig8_amp_x, self.fig8_amp_y)}")
        if not self.fig8_period_s > 0:
            raise ValueError(f"fig8_period_s must be positive, got {self.fig8_period_s}")
        if not (self.circle_radius > 0 and self.circle_speed > 0):
            raise ValueError("circle_radius and circle_speed must be positive")
        if self.kind == "ackermann-circle" and self.fault.kind != "none":
            raise ValueError("kind ackermann-circle supports no fault, got "
                             f"fault.kind {self.fault.kind!r}")


@dataclass
class Config:
    seed: int = 0
    output_dir: str = "out"
    vehicle: VehicleConfig = field(default_factory=VehicleConfig)
    world: WorldSpec = field(default_factory=WorldSpec)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    training: TrainerConfig = field(default_factory=TrainerConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self):
        # each section has checked itself; these pair two of them
        _check_rk4_stable(self)
        _check_eta_width(self)
        _check_scenario_vehicle(self)

    def resolved_output_dir(self) -> str:
        return os.environ.get("TERRADAPT_OUT", self.output_dir)


# the scalar annotations and the YAML values each accepts; an int stands for a float
_SCALARS = {bool: bool, int: int, float: (int, float), str: str}


@functools.cache
def _schema(cls) -> dict:
    """The field types of the dataclass cls by field name, its annotations
    resolved once per process: a process that loads a config again, as
    perfbench's pass and the tests do, resolves none. A CLI process loads
    once, so it still resolves each class once."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _build(cls, data, where: str = ""):
    """cls built from the mapping data, whose key path in the file is where.

    The annotations of cls are the schema: each key is converted to its
    field's type by _convert, a missing key keeps the class default and an
    unknown key is refused. The class's own checks then run, and what they
    refuse is a ConfigError naming where.
    """
    section = where or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(data).__name__}")
    schema = _schema(cls)
    unknown = [k for k in data if k not in schema]
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}; valid keys: {sorted(schema)}")
    values = {k: _convert(schema[k], v, f"{where}.{k}" if where else k) for k, v in data.items()}
    try:
        return cls(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{section}: {e}") from e


def _convert(tp, value, where: str):
    """value checked against the annotation tp and built as it: a dataclass
    from its mapping, a list or tuple from a YAML list item by item (a
    tuple[X, Y] also checks the count), None for X | None, and a scalar kept
    as given."""
    if tp in _SCALARS:                          # most fields: tested first
        if not isinstance(value, _SCALARS[tp]) or (isinstance(value, bool) and tp is not bool):
            raise ConfigError(f"{where}: expected {tp.__name__}, got {type(value).__name__}")
        return value
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _convert(tp, value, where)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where}: expected a list of {len(args)} entries, "
                              f"got {len(value)}")
        return origin(_convert(a, v, f"{where}[{i}]")
                      for i, (a, v) in enumerate(zip(args, value)))
    raise TypeError(f"{where}: no conversion for the annotation {tp}")


def config_from_dict(raw: dict | None) -> Config:
    """The config of a parsed YAML file, checked; None gives the defaults."""
    return _build(Config, {} if raw is None else raw)


def _check_rk4_stable(cfg: Config) -> None:
    """Refuse plant time constants that fixed-step RK4 at sim.dt_plant cannot
    integrate: the velocity would grow each step until it overflows."""
    dt = cfg.sim.dt_plant
    for key, tau in (("vehicle.tracked.tau_v", cfg.vehicle.tracked.tau_v),
                     ("vehicle.tracked.tau_omega", cfg.vehicle.tracked.tau_omega),
                     ("vehicle.ackermann.tau_v", cfg.vehicle.ackermann.tau_v)):
        if dt / tau > RK4_REAL_LIMIT:
            raise ConfigError(f"{key}={tau} is too small for sim.dt_plant={dt}: "
                              f"dt_plant / tau = {dt / tau:.4g} exceeds RK4's real-axis "
                              f"stability limit {RK4_REAL_LIMIT:.4f}")


def _check_eta_width(cfg: Config) -> None:
    """Refuse a tracked vehicle on a world whose classes do not give one eta
    entry per channel. The Ackermann plant reads the first entry of any width."""
    if cfg.vehicle.type != "tracked":
        return
    bad = [c.name for c in cfg.world.classes if len(c.eta) != 2]
    if bad:
        raise ConfigError(f"world.classes {bad}: the tracked vehicle needs two eta entries "
                          "per class, one per channel")


def _check_scenario_vehicle(cfg: Config) -> None:
    """Refuse a scenario the vehicle cannot drive: ackermann-circle is the
    car's, velocity-random and figure8 the tracked vehicle's."""
    want = "ackermann" if cfg.scenario.kind == "ackermann-circle" else "tracked"
    if cfg.vehicle.type != want:
        raise ConfigError(f"scenario.kind {cfg.scenario.kind} requires vehicle.type {want}, "
                          f"got {cfg.vehicle.type}")


# libyaml's scanner and parser where the installed PyYAML was built with
# them, else PyYAML's Python ones: a fixed property of the install, not a
# setting. The resolver and SafeConstructor are the same Python code behind
# both, so a file loads as the same objects either way; only the wording of
# a YAML syntax error differs. libyaml parses several times faster, in every
# process.
_YAML_BASE = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _refuse_repeated_keys(root) -> None:
    """Refuse a key given twice in one mapping anywhere in the composed YAML
    node graph root, naming the key and the line of its second occurrence.
    The graph is checked whole before anything is constructed, because
    SafeConstructor rewrites a mapping with a '<<' merge key in place, and a
    mapping may override a key it merges in."""
    todo, done = [root], set()
    while todo:
        node = todo.pop()
        if isinstance(node, yaml.ScalarNode) or id(node) in done:
            continue
        done.add(id(node))                    # an alias shares its anchor's node
        if isinstance(node, yaml.SequenceNode):
            todo += node.value
            continue
        keys = set()
        for key, value in node.value:
            if isinstance(key, yaml.ScalarNode):
                if (key.tag, key.value) in keys:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"key {key.value!r} repeated at line "
                        f"{key.start_mark.line + 1}")
                keys.add((key.tag, key.value))
            todo += (key, value)


@functools.cache
def _refusing_repeats(base):
    """base, a PyYAML safe loader class, refusing a repeated key with
    _refuse_repeated_keys."""
    class Loader(base):
        def construct_document(self, node):
            _refuse_repeated_keys(node)
            return super().construct_document(node)
    return Loader


def load_config(path) -> Config:
    """The checked config of the UTF-8 YAML file at path. A file that cannot
    be opened or decoded, invalid YAML and a key repeated in one mapping are
    ConfigErrors naming path; config_from_dict then checks the values."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path} cannot be read: {e}") from e
    try:
        raw = yaml.load(text, Loader=_refusing_repeats(_YAML_BASE))
    except yaml.YAMLError as e:
        raise ConfigError(f"config file {path} is not valid YAML: {e}") from e
    return config_from_dict(raw)


def config_to_dict(cfg: Config) -> dict:
    """Plain-dict echo of a config for sidecar metadata files."""
    return dataclasses.asdict(cfg)

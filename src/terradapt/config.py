"""Declarative run configuration.

One YAML file drives every CLI command. Top-level sections (all optional,
with desk-scale defaults): seed, output_dir, vehicle, world, provider, sim,
dataset, training, controller, scenario. Unknown keys anywhere are an error;
the environment variable TERRADAPT_OUT overrides output_dir when set.
See the README for the full key reference.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

import yaml

from .training import TrainerConfig
from .vehicles import AckermannParams, TrackedParams
from .world import TerrainClassSpec, WorldSpec


class ConfigError(ValueError):
    """Bad or inconsistent configuration."""


def _build(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; valid keys: {sorted(names)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


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
        if self.half_spacing <= 0:
            raise ValueError("half_spacing must be positive")


@dataclass
class ProviderConfig:
    noise_std: float = 0.02
    brightness: float = 1.0
    mode: str = "synthetic"             # synthetic | recorded
    world_file: str | None = None       # required for recorded mode

    def __post_init__(self):
        if self.mode not in ("synthetic", "recorded"):
            raise ValueError(f"provider mode must be synthetic or recorded, got {self.mode!r}")


@dataclass
class SimConfig:
    dt_plant: float = 0.01
    control_period: float = 0.05
    vdot_noise_std: float = 0.05
    residual_cutoff_hz: float = 2.0

    def __post_init__(self):
        if not 0 < self.dt_plant <= 0.1:
            raise ValueError("dt_plant must lie in (0, 0.1]")
        ratio = self.control_period / self.dt_plant
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("control_period must be an integer multiple of dt_plant")


@dataclass
class DatasetConfig:
    steps: int = 20000                  # recorded samples at the control rate
    n_traj: int = 1
    warmup_s: float = 1.0               # discard the residual filter transient
    hold_range_s: tuple = (0.5, 2.0)    # random input segment durations
    u_v_range: tuple = (-1.5, 1.5)
    u_omega_range: tuple = (-2.0, 2.0)
    u_delta_range: tuple = (-0.35, 0.35)
    cruise_range: tuple = (1.0, 2.0)    # ackermann forward command range
    margin_frac: float = 0.1            # interior margin triggering the bounce turn
    file: str = "dataset.tdc"

    def __post_init__(self):
        if self.steps < 1 or self.n_traj < 1:
            raise ValueError("steps and n_traj must be positive")
        if not 0 <= self.margin_frac < 0.5:
            raise ValueError("margin_frac must lie in [0, 0.5)")
        if self.cruise_range[0] > self.cruise_range[1]:
            raise ValueError(f"cruise_range low end above its high end: {self.cruise_range}")


@dataclass
class AdaptConfig:
    law: str = "scalar"                 # scalar | matrix
    lam: float = 0.01
    r_diag: tuple = (0.1, 0.1)
    q_diag: tuple = (1.0, 1.0, 1.0, 1.0)
    gamma0: float = 0.01
    gamma_min: float = 1e-4
    gamma_max: float = 1e3

    def __post_init__(self):
        if self.law not in ("scalar", "matrix"):
            raise ValueError(f"adaptation law must be scalar or matrix, got {self.law!r}")


@dataclass
class GainConfig:
    k_px: float = 0.8
    k_py: float = 0.8
    k_psi: float = 2.3
    k_dx: float = 0.05
    k_domega: float = 0.1
    v_eps: float = 1e-3
    # ackermann loop
    k_p: float = 1.0
    k_v: float = 1.0
    k_fwd: float = 0.5
    b_min: float = 1e-3


@dataclass
class ControllerConfig:
    variant: str = "dnn"                # pd | constant | dnn, optional -frozen suffix
    checkpoint: str = "basis.tdc"       # required by the dnn variants
    theta0: tuple | None = None         # default: zeros (constant), theta_r (dnn)
    gains: GainConfig = field(default_factory=GainConfig)
    adaptation: AdaptConfig = field(default_factory=AdaptConfig)

    def __post_init__(self):
        base = self.variant.removesuffix("-frozen")
        if base not in ("pd", "constant", "dnn"):
            raise ValueError(f"unknown controller variant {self.variant!r}")


@dataclass
class FaultConfig:
    kind: str = "none"                  # none | track-square
    period_s: float = 3.0
    scale: float = 0.3                  # surviving fraction of the faulted track
    track: str = "right"
    start_s: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "track-square"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.track not in ("left", "right"):
            raise ValueError("fault track must be left or right")
        if not 0.0 <= self.scale <= 1.0:
            raise ValueError("fault scale must lie in [0, 1]")
        if self.period_s <= 0:
            raise ValueError("fault period must be positive")


@dataclass
class ScenarioConfig:
    kind: str = "velocity-random"       # velocity-random | figure8 | ackermann-circle
    duration_s: float = 40.0
    runs: int = 40
    start_margin_frac: float = 0.1
    v_range: tuple = (0.4, 1.3)
    omega_range: tuple = (-1.0, 1.0)
    hold_range_s: tuple = (2.0, 4.0)
    fig8_amp_x: float = 3.0
    fig8_amp_y: float = 1.5
    fig8_period_s: float = 30.0
    circle_radius: float = 2.5
    circle_speed: float = 1.5
    fault: FaultConfig = field(default_factory=FaultConfig)
    telemetry: bool = True

    def __post_init__(self):
        if self.kind not in ("velocity-random", "figure8", "ackermann-circle"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.duration_s <= 0 or self.runs < 1:
            raise ValueError("duration_s must be positive and runs at least 1")


@dataclass
class Config:
    seed: int = 0
    output_dir: str = "out"
    vehicle: VehicleConfig = field(default_factory=VehicleConfig)
    world: WorldSpec = field(default_factory=lambda: WorldSpec(classes=[
        TerrainClassSpec("nominal", (1.0, 1.0)),
        TerrainClassSpec("grass", (0.78, 0.84)),
        TerrainClassSpec("ice", (0.55, 0.62)),
    ]))
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    training: TrainerConfig = field(default_factory=TrainerConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def resolved_output_dir(self) -> str:
        return os.environ.get("TERRADAPT_OUT", self.output_dir)


_TUPLE_FIELDS = {"hold_range_s", "u_v_range", "u_omega_range", "u_delta_range",
                 "cruise_range", "v_range", "omega_range", "r_diag", "q_diag",
                 "theta_r", "theta0", "hidden", "eta"}


def _normalize(d):
    """Recursively convert YAML lists to tuples for fixed-size fields."""
    if isinstance(d, dict):
        return {k: (tuple(v) if k in _TUPLE_FIELDS and isinstance(v, list)
                    else _normalize(v)) for k, v in d.items()}
    if isinstance(d, list):
        return [_normalize(v) for v in d]
    return d


def config_from_dict(raw: dict) -> Config:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    raw = _normalize(raw)
    known = {"seed", "output_dir", "vehicle", "world", "provider", "sim",
             "dataset", "training", "controller", "scenario"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown top-level keys {unknown}; valid keys: {sorted(known)}")

    cfg = Config()
    cfg.seed = int(raw.get("seed", 0))
    cfg.output_dir = str(raw.get("output_dir", "out"))

    if "vehicle" in raw:
        v = dict(raw["vehicle"])
        tracked = v.pop("tracked", None)
        ackermann = v.pop("ackermann", None)
        cfg.vehicle = _build(VehicleConfig, v, "vehicle")
        if tracked is not None:
            cfg.vehicle.tracked = _build(TrackedParams, tracked, "vehicle.tracked")
        if ackermann is not None:
            cfg.vehicle.ackermann = _build(AckermannParams, ackermann, "vehicle.ackermann")

    if "world" in raw:
        w = dict(raw["world"])
        classes = w.pop("classes", None)
        cfg.world = _build(WorldSpec, w, "world")
        if classes is not None:
            cfg.world.classes = [_build(TerrainClassSpec, c, f"world.classes[{i}]")
                                 for i, c in enumerate(classes)]
        if not cfg.world.classes:
            raise ConfigError("world.classes must not be empty")
        try:
            cfg.world.validate()
        except ValueError as e:
            raise ConfigError(f"world: {e}") from e

    if "provider" in raw:
        cfg.provider = _build(ProviderConfig, raw["provider"], "provider")
    if "sim" in raw:
        cfg.sim = _build(SimConfig, raw["sim"], "sim")
    if "dataset" in raw:
        cfg.dataset = _build(DatasetConfig, raw["dataset"], "dataset")
    if "training" in raw:
        t = dict(raw["training"])
        if "hidden" in t:
            t["hidden"] = tuple(t["hidden"])
        cfg.training = _build(TrainerConfig, t, "training")

    if "controller" in raw:
        c = dict(raw["controller"])
        gains = c.pop("gains", None)
        adaptation = c.pop("adaptation", None)
        cfg.controller = _build(ControllerConfig, c, "controller")
        if gains is not None:
            cfg.controller.gains = _build(GainConfig, gains, "controller.gains")
        if adaptation is not None:
            cfg.controller.adaptation = _build(AdaptConfig, adaptation, "controller.adaptation")

    if "scenario" in raw:
        s = dict(raw["scenario"])
        fault = s.pop("fault", None)
        cfg.scenario = _build(ScenarioConfig, s, "scenario")
        if fault is not None:
            cfg.scenario.fault = _build(FaultConfig, fault, "scenario.fault")
    return cfg


def load_config(path) -> Config:
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"config file {path} is not valid YAML: {e}") from e
    return config_from_dict(raw)


def config_to_dict(cfg: Config) -> dict:
    """Plain-dict echo of a config for sidecar metadata files."""
    return dataclasses.asdict(cfg)

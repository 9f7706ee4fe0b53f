"""Closed-loop simulation harness.

Everything here is deterministic given the config seed. Random streams are
derived per purpose from numpy SeedSequence entropy lists, so a scenario run
r uses the same start pose, reference draw, feature noise and measurement
noise for every controller variant: comparisons are paired by construction.

Timing model per controller tick (period = sim.control_period):
  1. terrain eta and measured acceleration are sampled at the current state,
     the acceleration being the plant derivative under the input applied over
     the previous interval, plus white noise;
  2. the appearance features under the robot are queried (noisy, possibly
     darkened);
  3. the controller produces the next command;
  4. actuator faults rescale the command, and the plant integrates forward
     to the next tick in one integrate_step call of control_period / dt_plant
     substeps, looking the terrain eta up at the start of every substep.

The dataset loop keeps the same model but runs it in two passes per
trajectory. Driving (steps 3-4 with random inputs in place of a
controller) never reads an observation, so it runs first, alone; steps 1-2
and the residual are then derived for every sample at once, drawing each
noise stream in the order the per-tick loop would.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .basis import ConstantBasis, load_checkpoint
from .config import Config, ConfigError, config_to_dict
from .control import (AckermannController, AckermannGains, AdaptParams,
                      ResidualFilter, TrackedController, TrackedGains)
from .serialize import write_csv, read_csv
from .training import TrajectoryDataset
from .vehicles import (AckermannInput, AckermannState, NonFiniteError,
                       TrackedInput, TrackedState, apply_track_fault,
                       integrate_step, tracked_derivative,
                       ackermann_derivative, wrap_angle)
from .world import (FeatureProvider, TerrainWorldMap, build_world, eta_along,
                    eta_under_robot, load_world)

log = logging.getLogger(__name__)

_DATASET_DOMAIN = 101
_SCENARIO_DOMAIN = 202

_SPEED_ABORT = 50.0     # |v| beyond this is treated as a diverged run


# ---------------------------------------------------------------- plumbing

def resolve_out_dir(cfg: Config) -> str:
    out = cfg.resolved_output_dir()
    os.makedirs(out, exist_ok=True)
    return out


def resolve_path(name: str, out_dir: str) -> str:
    """Config file names resolve against the output dir unless absolute."""
    if os.path.isabs(name) or os.path.exists(name):
        return name
    return os.path.join(out_dir, name)


def build_world_for(cfg: Config) -> TerrainWorldMap:
    if cfg.provider.mode == "recorded":
        if not cfg.provider.world_file:
            raise ValueError("provider mode 'recorded' requires provider.world_file")
        return load_world(resolve_path(cfg.provider.world_file, resolve_out_dir(cfg)))
    return build_world(cfg.world)


def split_variant(variant: str) -> tuple[str, bool]:
    """'dnn-frozen' -> ('dnn', False); adaptation is on unless frozen."""
    base = variant.removesuffix("-frozen")
    return base, not variant.endswith("-frozen")


def _adapt_params_for(cfg: Config, n_theta: int) -> AdaptParams:
    a = cfg.controller.adaptation
    q = tuple(a.q_diag)
    if len(q) != n_theta:
        q = (float(a.q_diag[0]),) * n_theta
    return AdaptParams(lam=a.lam, r_diag=tuple(a.r_diag), q_diag=q,
                       gamma0=a.gamma0, gamma_min=a.gamma_min, gamma_max=a.gamma_max)


def _load_basis(cfg: Config, out_dir: str):
    """(net, theta_r) from the configured checkpoint."""
    net, meta = load_checkpoint(resolve_path(cfg.controller.checkpoint, out_dir))
    return net, meta.get("theta_r")


def build_controller(cfg: Config, variant: str, out_dir: str, checkpoint=None):
    """Controller for one variant on the configured vehicle. A dnn variant
    uses checkpoint, the (net, theta_r) pair of _load_basis, or reads it from
    out_dir when None."""
    base, adapt = split_variant(variant)
    vehicle = _vehicle(cfg)
    basis = None
    theta0 = cfg.controller.theta0
    if base == "constant":
        basis = ConstantBasis(2, vehicle.n_input)
    elif base == "dnn":
        basis, theta_r = checkpoint or _load_basis(cfg, out_dir)
        if theta0 is None:
            theta0 = theta_r
    n_theta = basis.n_theta if basis is not None else 1
    return vehicle.controller(
        _adapt_params_for(cfg, n_theta), basis=basis,
        law=cfg.controller.adaptation.law, theta0=theta0, adapt=adapt,
        residual_cutoff_hz=cfg.sim.residual_cutoff_hz,
        control_period=cfg.sim.control_period)


class FaultSchedule:
    """Actuator fault as a function of time; returns per-track scale factors."""

    def __init__(self, kind: str = "none", period_s: float = 3.0,
                 scale: float = 0.3, track: str = "right", start_s: float = 0.0):
        self.kind = kind
        self.period_s = period_s
        self.scale = scale
        self.track = track
        self.start_s = start_s

    @classmethod
    def from_config(cls, fc) -> "FaultSchedule":
        return cls(fc.kind, fc.period_s, fc.scale, fc.track, fc.start_s)

    def scales(self, t: float) -> tuple[float, float]:
        if self.kind == "none" or t < self.start_s:
            return 1.0, 1.0
        # square wave: fault active during the first half of each period
        phase = (t - self.start_s) % self.period_s
        if phase >= 0.5 * self.period_s:
            return 1.0, 1.0
        if self.track == "left":
            return self.scale, 1.0
        return 1.0, self.scale


# ---------------------------------------------------------------- references

class RandomVelocityReference:
    """Piecewise-constant [v_x, omega] reference with a border turn-back.

    Segments are drawn up front from the supplied rng, so two runs built from
    identically seeded rngs track the same reference. Near the map border the
    yaw reference is overridden to steer toward the map center, keeping long
    runs on the map without terminating them.
    """

    mode = "velocity"

    def __init__(self, rng, duration_s: float, v_range, omega_range,
                 hold_range_s, world: TerrainWorldMap, margin_frac: float = 0.1):
        self.segments = []          # (t_start, v, omega)
        t = 0.0
        while t < duration_s:
            hold = rng.uniform(hold_range_s[0], hold_range_s[1])
            self.segments.append((t, rng.uniform(v_range[0], v_range[1]),
                                  rng.uniform(omega_range[0], omega_range[1])))
            t += hold
        w, h = world.extent
        self.world = world
        self.margin_frac = margin_frac
        self.center = np.array([0.5 * w, 0.5 * h])
        self.margin = (margin_frac * w, margin_frac * h)
        self.extent = (w, h)
        self.omega_cap = max(abs(omega_range[0]), abs(omega_range[1]), 1.0)

    def start_pose(self, rng) -> TrackedState:
        x, y, psi = _interior_start(rng, self.world, self.margin_frac)
        return TrackedState(x, y, psi, 0.0, 0.0)

    def refs(self, t: float, state) -> tuple[np.ndarray, np.ndarray]:
        seg = self.segments[0]
        for cand in self.segments:
            if cand[0] <= t:
                seg = cand
            else:
                break
        v_ref, omega_ref = seg[1], seg[2]
        mx, my = self.margin
        if not (mx <= state.p_x <= self.extent[0] - mx
                and my <= state.p_y <= self.extent[1] - my):
            bearing = math.atan2(self.center[1] - state.p_y,
                                 self.center[0] - state.p_x)
            err = wrap_angle(bearing - state.psi)
            omega_ref = float(np.clip(2.0 * err, -self.omega_cap, self.omega_cap))
            v_ref = max(0.4, min(abs(v_ref), 0.8))
        return np.array([v_ref, omega_ref]), np.zeros(2)


class Figure8Reference:
    """Lemniscate position reference: x = Ax sin(w t), y = Ay sin(2 w t)."""

    mode = "position"

    def __init__(self, center, amp_x: float, amp_y: float, period_s: float):
        self.center = np.asarray(center, dtype=float)
        self.amp_x = amp_x
        self.amp_y = amp_y
        self.w = 2.0 * math.pi / period_s

    def refs(self, t: float, state=None):
        w = self.w
        p_d = self.center + np.array([self.amp_x * math.sin(w * t),
                                      self.amp_y * math.sin(2.0 * w * t)])
        v_d = np.array([self.amp_x * w * math.cos(w * t),
                        2.0 * self.amp_y * w * math.cos(2.0 * w * t)])
        psi_d = math.atan2(v_d[1], v_d[0])
        return p_d, v_d, psi_d

    def start_pose(self, rng) -> TrackedState:
        p_d, _, psi_d = self.refs(0.0)
        off = rng.uniform(-0.3, 0.3, size=2)
        dpsi = rng.uniform(-0.2, 0.2)
        return TrackedState(p_d[0] + off[0], p_d[1] + off[1],
                            wrap_angle(psi_d + dpsi), 0.0, 0.0)


class CircleReference:
    """Constant-speed circle for the Ackermann vehicle (counterclockwise)."""

    mode = "ackermann"

    def __init__(self, center, radius: float, speed: float, phase0: float = 0.0):
        if radius <= 0 or speed <= 0:
            raise ValueError("circle radius and speed must be positive")
        self.center = np.asarray(center, dtype=float)
        self.radius = radius
        self.speed = speed
        self.phase0 = phase0
        self.omega_d = speed / radius

    def refs(self, t: float, state=None):
        ang = self.phase0 + self.omega_d * t
        p_d = self.center + self.radius * np.array([math.cos(ang), math.sin(ang)])
        psi_d = wrap_angle(ang + 0.5 * math.pi)
        return p_d, psi_d, self.omega_d, self.speed

    def start_pose(self, rng) -> AckermannState:
        ang = self.phase0
        radial = rng.uniform(-0.2, 0.2)
        dpsi = rng.uniform(-0.1, 0.1)
        p = self.center + (self.radius + radial) * np.array([math.cos(ang), math.sin(ang)])
        return AckermannState(p[0], p[1], wrap_angle(ang + 0.5 * math.pi + dpsi),
                              self.speed, 0.0, self.omega_d)


# ---------------------------------------------------------------- metrics

@dataclass
class RunResult:
    """Per-run quality and health counters for one controller variant."""

    variant: str
    run: int
    ticks: int
    aborted: bool
    position_rmse: float
    velocity_rmse: float
    cum_tracking_error: float
    fallback_ticks: int
    clamp_ticks: int
    rejected_ticks: int
    feature_clamps: int


def compute_metrics(period: float, s_rows, p_rows=None, pd_rows=None):
    """(position RMSE, velocity RMSE, cumulative tracking error).

    position RMSE is nan when no position reference exists. The cumulative
    tracking error integrates ||s|| over time with the rectangle rule.
    """
    s = np.asarray(s_rows, dtype=float)
    if s.size == 0:
        return float("nan"), float("nan"), 0.0
    sq = np.sum(s * s, axis=1)
    velocity_rmse = float(np.sqrt(np.mean(sq)))
    cum = float(np.sum(np.sqrt(sq)) * period)
    position_rmse = float("nan")
    if p_rows is not None and pd_rows is not None:
        err = np.asarray(p_rows, dtype=float) - np.asarray(pd_rows, dtype=float)
        if err.size and np.all(np.isfinite(err)):
            position_rmse = float(np.sqrt(np.mean(np.sum(err * err, axis=1))))
    return position_rmse, velocity_rmse, cum


def metrics_from_telemetry(path, period: float):
    """Recompute the run metrics from a telemetry CSV."""
    cols, rows = read_csv(path)
    idx = {c: i for i, c in enumerate(cols)}
    s_cols = [idx[c] for c in cols if c.startswith("s_")]
    s = [[row[i] for i in s_cols] for row in rows]
    p = pd = None
    if "p_d_x" in idx:
        p = [[row[idx["p_x"]], row[idx["p_y"]]] for row in rows]
        pd = [[row[idx["p_d_x"]], row[idx["p_d_y"]]] for row in rows]
    return compute_metrics(period, s, p, pd)


# ---------------------------------------------------------------- vehicles

def _interior_start(rng, world: TerrainWorldMap, margin_frac: float):
    w, h = world.extent
    x = rng.uniform(margin_frac * w, (1.0 - margin_frac) * w)
    y = rng.uniform(margin_frac * h, (1.0 - margin_frac) * h)
    psi = rng.uniform(-math.pi, math.pi)
    return x, y, psi


class _Vehicle:
    """What the shared episode and dataset loops need to know about one
    vehicle type. The plant and terrain functions are looked up in this
    module on every call, not bound at import, so a wrapper installed on the
    module name sees every call; the per-substep terrain lookups are made
    inside the plant call, through terrain(world)."""

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.ds = cfg.dataset
        self.vp = getattr(cfg.vehicle, cfg.vehicle.type)
        self.half = cfg.vehicle.half_spacing

    def advance(self, world: TerrainWorldMap, state, u, n_sub: int, dt: float):
        """n_sub plant steps under input u, terrain looked up every step, in
        one plant call."""
        return integrate_step(state, u, self.vp, dt, n_sub=n_sub,
                              terrain=self.terrain(world))


class _Tracked(_Vehicle):
    tick_errors = (NonFiniteError, np.linalg.LinAlgError)    # abort the run
    n_input = 2
    state_cls, input_cls = TrackedState, TrackedInput
    # the dataset logs x = [v_x, omega] under both inputs
    x_cols, u_cols = slice(3, 5), slice(0, 2)
    tele_cols = ["v_ref_x", "omega_ref", "s_vx", "s_omega",
                 "u_v", "u_omega", "y_vx", "y_omega"]
    fault_cols = ["fault_left", "fault_right"]

    @staticmethod
    def eta(eta) -> list:
        """The looked-up eta row as two Python floats, the form the plant
        checks with scalar compares."""
        return eta.tolist()

    @staticmethod
    def terrain(world: TerrainWorldMap):
        return world.eta_at

    def measured(self, state, u, eta) -> np.ndarray:
        """Noise-free [vdot_x, omegadot] under input u."""
        return tracked_derivative(state, u, self.vp, self.eta(eta))[self.x_cols]

    def dataset_start(self, rng, world: TerrainWorldMap):
        x, y, psi = _interior_start(rng, world, self.ds.margin_frac)
        return TrackedState(x, y, psi, 0.0, 0.0), TrackedInput(0.0, 0.0)

    def redraw(self, rng) -> TrackedInput:
        return TrackedInput(rng.uniform(*self.ds.u_v_range), rng.uniform(*self.ds.u_omega_range))

    def turn_back(self, u: TrackedInput, err: float) -> TrackedInput:
        return TrackedInput(max(0.4, abs(u.u_v) * 0.7), float(np.clip(2.0 * err, -2.0, 2.0)))

    def actuate(self, u_cmd: TrackedInput, fault: FaultSchedule, t: float):
        """(applied input, fault telemetry) for the commanded input at time t."""
        left, right = fault.scales(t)
        return apply_track_fault(u_cmd, left, right, self.half), [left, right]

    def controller(self, adapt_params: AdaptParams, **kwargs) -> TrackedController:
        g = self.cfg.controller.gains
        gains = TrackedGains(k_px=g.k_px, k_py=g.k_py, k_psi=g.k_psi,
                             k_dx=g.k_dx, k_domega=g.k_domega, v_eps=g.v_eps)
        limits = (self.cfg.vehicle.u_v_max, self.cfg.vehicle.u_omega_max)
        return TrackedController(self.vp, gains, adapt_params, u_limits=limits, **kwargs)

    @staticmethod
    def tele_row(state, refs, tele) -> list:
        # v_ref = v - s reconstructs the reference actually used this tick
        return [state.v_x - tele.s[0], state.omega - tele.s[1], *tele.s, *tele.u, *tele.y]


class _Ackermann(_Vehicle):
    # the lateral law raises ValueError when engaged at or below v_min
    tick_errors = (NonFiniteError, ValueError, np.linalg.LinAlgError)
    n_input = 1
    state_cls, input_cls = AckermannState, AckermannInput
    # the dataset logs x = [v_y, omega] under the steering input
    x_cols, u_cols = slice(4, 6), slice(1, 2)
    tele_cols = ["psi_d", "e_par", "e_perp", "psi_e", "s_perp",
                 "u_v", "u_delta", "y_vy", "y_omega"]
    fault_cols = []

    @staticmethod
    def eta(eta) -> float:
        return float(eta[0])

    @staticmethod
    def terrain(world: TerrainWorldMap):
        eta_at = world.eta_at
        return lambda x, y: eta_at(x, y)[0]

    def measured(self, state, u, eta) -> np.ndarray:
        """Noise-free [vdot_y, omegadot] under input u."""
        return ackermann_derivative(state, u, self.vp, self.eta(eta))[self.x_cols]

    def dataset_start(self, rng, world: TerrainWorldMap):
        if self.ds.cruise_range[0] <= self.vp.v_min:
            # refused before driving: the car would slow to where slip is undefined
            raise ConfigError(f"dataset.cruise_range {self.ds.cruise_range} must lie above "
                              f"vehicle.ackermann.v_min={self.vp.v_min}")
        x, y, psi = _interior_start(rng, world, self.ds.margin_frac)
        cruise = rng.uniform(*self.ds.cruise_range)
        return AckermannState(x, y, psi, cruise, 0.0, 0.0), AckermannInput(cruise, 0.0)

    def redraw(self, rng) -> AckermannInput:
        return AckermannInput(rng.uniform(*self.ds.cruise_range),
                              rng.uniform(*self.ds.u_delta_range))

    def turn_back(self, u: AckermannInput, err: float) -> AckermannInput:
        return AckermannInput(u.u_v, float(np.clip(err, *self.ds.u_delta_range)))

    @staticmethod
    def actuate(u_cmd: AckermannInput, fault: FaultSchedule, t: float):
        return u_cmd, []

    def controller(self, adapt_params: AdaptParams, **kwargs) -> AckermannController:
        g = self.cfg.controller.gains
        gains = AckermannGains(k_p=g.k_p, k_v=g.k_v, k_fwd=g.k_fwd, b_min=g.b_min)
        return AckermannController(self.vp, gains, adapt_params,
                                   u_delta_max=self.cfg.vehicle.u_delta_max, **kwargs)

    @staticmethod
    def tele_row(state, refs, tele) -> list:
        lat = tele.lat
        return [refs[1], lat.e_par, lat.e_perp, lat.psi_e, lat.s_perp, *tele.u, *tele.y]


_VEHICLES = {"tracked": _Tracked, "ackermann": _Ackermann}

# controller method each reference mode drives; refs(t, state) supplies the
# arguments after (state, measured derivative, features)
_TICK = {"velocity": "tick_velocity", "position": "tick_position",
         "ackermann": "tick"}


def _vehicle(cfg: Config) -> _Vehicle:
    return _VEHICLES[cfg.vehicle.type](cfg)


# ---------------------------------------------------------------- sim loops

def _finite_state(state) -> bool:
    vals = tuple(vars(state).values())      # the state's fields, in order
    return all(math.isfinite(v) for v in vals) and \
        max(abs(v) for v in vals[3:]) < _SPEED_ABORT


def simulate_episode(world: TerrainWorldMap, cfg: Config, controller, policy,
                     provider: FeatureProvider, meas_rng, start, duration_s: float,
                     fault: FaultSchedule | None = None):
    """Run one closed-loop episode of the configured vehicle.

    Returns (RunResult fields as a dict, telemetry rows, telemetry columns).
    """
    sim = cfg.sim
    period = sim.control_period
    n_sub = int(round(period / sim.dt_plant))
    n_ticks = int(round(duration_s / period))
    fault = fault or FaultSchedule()
    vehicle = _vehicle(cfg)
    tick = getattr(controller, _TICK[policy.mode])
    has_position = policy.mode != "velocity"
    controller.reset()

    state = start
    u_applied = None
    aborted = False
    fallback = clamp = rejected = 0
    clamp0 = provider.clamp_count

    # telemetry: time, state, desired position, vehicle terms, adaptation, flags
    n_theta = controller.state.theta_hat.shape[0] if controller.state is not None else 0
    cols = ["t", *(f.name for f in dataclasses.fields(start))]
    if has_position:
        cols += ["p_d_x", "p_d_y"]
    cols += vehicle.tele_cols
    cols += [f"theta_{i}" for i in range(n_theta)]
    cols += [f"gamma_{i}" for i in range(n_theta)]
    cols += vehicle.fault_cols + ["fallback", "clamped", "rejected"]

    rows, s_rows, p_rows, pd_rows = [], [], [], []
    for k in range(n_ticks):
        t = k * period
        eta = eta_under_robot(world, state.p_x, state.p_y)
        if k == 0:
            xdot_meas = np.zeros(2)
        else:
            xdot_meas = (vehicle.measured(state, u_applied, eta)
                         + meas_rng.normal(0.0, sim.vdot_noise_std, 2))
        feats = provider.features_under_robot(state.p_x, state.p_y, state.psi,
                                              vehicle.half)
        refs = policy.refs(t, state)
        try:
            u_cmd, tele = tick(state, xdot_meas, feats, *refs)
        except vehicle.tick_errors as e:
            log.warning("run aborted at t=%.2f: %s", t, e)
            aborted = True
            break
        u_applied, fault_row = vehicle.actuate(u_cmd, fault, t)

        fallback += tele.fallback
        clamp += tele.clamped
        rejected += tele.rejected
        row = [t, *vars(state).values()]
        if has_position:
            p_d = [refs[0][0], refs[0][1]]
            row += p_d
            p_rows.append([state.p_x, state.p_y])
            pd_rows.append(p_d)
        row += vehicle.tele_row(state, refs, tele)
        row += list(tele.theta_hat) + list(tele.gain_diag)
        row += fault_row + [tele.fallback, tele.clamped, tele.rejected]
        rows.append(row)
        s_rows.append(tele.s)

        try:
            state = vehicle.advance(world, state, u_applied, n_sub, sim.dt_plant)
        except NonFiniteError as e:
            log.warning("plant diverged at t=%.2f: %s", t, e)
            aborted = True
            break
        if not _finite_state(state):
            log.warning("state left the trust region at t=%.2f", t)
            aborted = True
            break

    if fallback or rejected:
        log.warning("run of %d ticks had %d fallback, %d rejected and %d clamped ticks",
                    len(rows), fallback, rejected, clamp)
    pos_rmse, vel_rmse, cum = compute_metrics(period, s_rows, p_rows, pd_rows)
    result = {
        "ticks": len(rows), "aborted": aborted,
        "position_rmse": pos_rmse, "velocity_rmse": vel_rmse,
        "cum_tracking_error": cum,
        "fallback_ticks": fallback, "clamp_ticks": clamp,
        "rejected_ticks": rejected,
        "feature_clamps": provider.clamp_count - clamp0,
    }
    return result, rows, cols


# ---------------------------------------------------------------- datasets

def generate_dataset(cfg: Config, world: TerrainWorldMap) -> TrajectoryDataset:
    """Drive random piecewise-constant inputs and log (x, u, e, y) samples.

    Samples are taken at the control rate; each logged input is the one that
    was applied over the interval ending at the sample, i.e. the input that
    produced the measured acceleration the residual is built from. A border
    turn-back keeps the robot on the map, and the first warmup_s seconds are
    dropped while the residual filter settles. The tracked vehicle logs
    x = [v_x, omega] under both inputs; the Ackermann vehicle drives at a
    random cruise speed and logs x = [v_y, omega] under the steering input.

    Each trajectory is made in two passes: _drive runs the plant alone, then
    _observe derives everything logged from the states it kept. Driving never
    reads an observation, so the split changes no value.
    """
    ds = cfg.dataset
    sim = cfg.sim
    warmup = int(round(ds.warmup_s / sim.control_period))
    vehicle = _vehicle(cfg)
    shape = (ds.n_traj, ds.steps)
    xs, ys = np.empty(shape + (2,)), np.empty(shape + (2,))
    us = np.empty(shape + (vehicle.n_input,))
    es = np.empty(shape + (world.features.shape[-1],))
    for traj in range(ds.n_traj):
        ss = np.random.SeedSequence([cfg.seed, _DATASET_DOMAIN, traj])
        in_rng, meas_rng, prov_ss = ss.spawn(3)
        states, inputs = _drive(vehicle, world, np.random.default_rng(in_rng),
                                warmup + ds.steps)
        provider = FeatureProvider(world, cfg.provider.noise_std,
                                   cfg.provider.brightness, seed=prov_ss)
        logged = _observe(vehicle, provider, np.random.default_rng(meas_rng), states, inputs)
        for out, rows in zip((xs, us, es, ys), logged):
            out[traj] = rows[warmup:]
    return TrajectoryDataset(xs, us, es, ys, sim.control_period)


def _drive(vehicle: _Vehicle, world: TerrainWorldMap, rng, n: int):
    """Pass 1 of generate_dataset: the plant, the input redraws and the
    border turn-back only. Returns (states, inputs) of the n samples as float
    arrays, row k of inputs holding the input applied over the interval that
    ends at sample k."""
    ds, sim = vehicle.ds, vehicle.cfg.sim
    period = sim.control_period
    n_sub = int(round(period / sim.dt_plant))
    w, h = world.extent
    mx, my = ds.margin_frac * w, ds.margin_frac * h
    state, u = vehicle.dataset_start(rng, world)
    states = np.empty((n, len(vars(state))))
    inputs = np.empty((n, len(vars(u))))
    next_redraw = 0.0
    for k in range(n):
        t = k * period
        states[k] = tuple(vars(state).values())
        inputs[k] = tuple(vars(u).values())
        # choose the input for the next interval
        if t >= next_redraw:
            u = vehicle.redraw(rng)
            next_redraw = t + rng.uniform(*ds.hold_range_s)
        if not (mx <= state.p_x <= w - mx and my <= state.p_y <= h - my):
            bearing = math.atan2(0.5 * h - state.p_y, 0.5 * w - state.p_x)
            u = vehicle.turn_back(u, wrap_angle(bearing - state.psi))
        state = vehicle.advance(world, state, u, n_sub, sim.dt_plant)
    return states, inputs


def _observe(vehicle: _Vehicle, provider: FeatureProvider, meas_rng, states, inputs):
    """Pass 2 of generate_dataset: the logged (x, u, e, y) of every sample
    of one trajectory, equal to observing one sample at a time. Terrain and
    features are one gather each, each noise stream one block draw; the
    measured derivative and the nominal model are taken per sample (the
    plant's math.atan2 is not np.arctan2's), the residual over all of them."""
    sim = vehicle.cfg.sim
    n = len(states)
    eta = eta_along(provider.world, states[:, 0], states[:, 1])
    feats = provider.features_along(states[:, 0], states[:, 1], states[:, 2], vehicle.half)
    xdot = np.zeros((n, 2))                 # sample 0 has no previous input
    a_n = np.empty((n, 2, 2))
    b_n = np.empty((n, 2, vehicle.n_input))
    for k in range(n):
        state = vehicle.state_cls(*states[k].tolist())
        if k:
            xdot[k] = vehicle.measured(state, vehicle.input_cls(*inputs[k].tolist()), eta[k])
        a_n[k], b_n[k] = vehicle.vp.residual_model(state)
    xdot[1:] += meas_rng.normal(0.0, sim.vdot_noise_std, (n - 1, 2))
    x, u = states[:, vehicle.x_cols], inputs[:, vehicle.u_cols]
    y = ResidualFilter(sim.residual_cutoff_hz).residuals(xdot, x, u, a_n, b_n,
                                                         sim.control_period)
    return x, u, feats, y


# ---------------------------------------------------------------- scenarios

def _policy_for_run(cfg: Config, world: TerrainWorldMap, ref_rng):
    sc = cfg.scenario
    w, h = world.extent
    center = np.array([0.5 * w, 0.5 * h])
    if sc.kind == "velocity-random":
        return RandomVelocityReference(ref_rng, sc.duration_s, sc.v_range,
                                       sc.omega_range, sc.hold_range_s, world,
                                       sc.start_margin_frac)
    if sc.kind == "figure8":
        return Figure8Reference(center, sc.fig8_amp_x, sc.fig8_amp_y, sc.fig8_period_s)
    if sc.kind == "ackermann-circle":
        return CircleReference(center, sc.circle_radius, sc.circle_speed,
                               phase0=float(ref_rng.uniform(0.0, 2.0 * math.pi)))
    raise ValueError(f"unknown scenario kind {sc.kind!r}")


def run_scenario(cfg: Config, variants: list | None = None,
                 out_dir: str | None = None) -> dict:
    """Run the configured scenario for one or more controller variants.

    Every run index r shares its start pose, reference draw, feature noise
    and measurement noise across the variants. Writes per-run metrics
    (runs.csv), a summary (summary.json), an execution sidecar
    (run_info.json) and optional per-run telemetry CSVs.
    """
    out_dir = out_dir or resolve_out_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    sc = cfg.scenario
    variants = list(variants) if variants else [cfg.controller.variant]
    world = build_world_for(cfg)
    is_ackermann = sc.kind == "ackermann-circle"
    if is_ackermann and cfg.vehicle.type != "ackermann":
        raise ValueError("scenario ackermann-circle requires vehicle.type ackermann")
    if is_ackermann and sc.fault.kind != "none":
        raise ValueError("scenario ackermann-circle supports no fault, got "
                         f"scenario.fault.kind {sc.fault.kind!r}")
    if not is_ackermann and cfg.vehicle.type != "tracked":
        raise ValueError(f"scenario {sc.kind} requires vehicle.type tracked")

    tele_dir = os.path.join(out_dir, "telemetry")
    if sc.telemetry:
        os.makedirs(tele_dir, exist_ok=True)

    # one network for every dnn episode: controllers only evaluate it
    checkpoint = (_load_basis(cfg, out_dir)
                  if any(split_variant(v)[0] == "dnn" for v in variants) else None)
    fault = FaultSchedule.from_config(sc.fault)
    results: list[RunResult] = []
    for r in range(sc.runs):
        ss = np.random.SeedSequence([cfg.seed, _SCENARIO_DOMAIN, r])
        start_ss, ref_ss, prov_ss, meas_ss = ss.spawn(4)
        policy = _policy_for_run(cfg, world, np.random.default_rng(ref_ss))
        start = policy.start_pose(np.random.default_rng(start_ss))
        for variant in variants:
            provider = FeatureProvider(world, cfg.provider.noise_std,
                                       cfg.provider.brightness, seed=prov_ss)
            meas_rng = np.random.default_rng(meas_ss)
            controller = build_controller(cfg, variant, out_dir, checkpoint)
            res, rows, cols = simulate_episode(world, cfg, controller, policy,
                                               provider, meas_rng, start,
                                               sc.duration_s, fault)
            results.append(RunResult(variant=variant, run=r, **res))
            if sc.telemetry:
                write_csv(os.path.join(tele_dir, f"{variant}_run{r:03d}.csv"),
                          cols, rows)

    clamp_only = [r for r in results
                  if r.clamp_ticks and not (r.fallback_ticks or r.rejected_ticks)]
    if clamp_only:
        # clamping alone is routine: one line per evaluate, not one per run
        log.warning("%d of %d runs had clamped ticks only, %d in all",
                    len(clamp_only), len(results), sum(r.clamp_ticks for r in clamp_only))
    summary = summarize_results(cfg, variants, results)
    _write_run_outputs(cfg, variants, results, summary, out_dir)
    return summary


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def summarize_results(cfg: Config, variants: list, results: list) -> dict:
    """Aggregate per-variant stats and paired improvements vs the first variant."""
    metrics = ("position_rmse", "velocity_rmse", "cum_tracking_error")
    by_variant = {v: [r for r in results if r.variant == v] for v in variants}
    by_run = {v: {r.run: r for r in rs} for v, rs in by_variant.items()}
    stats = {}
    for v, rs in by_variant.items():
        entry = {"runs": len(rs), "aborted": sum(r.aborted for r in rs)}
        ok = [r for r in rs if not r.aborted]
        for m in metrics:
            vals = np.array([getattr(r, m) for r in ok], dtype=float)
            vals = vals[np.isfinite(vals)]
            entry[m] = ({"mean": float(np.mean(vals)), "std": float(np.std(vals)),
                         "median": float(np.median(vals))} if vals.size else None)
        for c in ("fallback_ticks", "clamp_ticks", "rejected_ticks", "feature_clamps"):
            entry[c] = int(sum(getattr(r, c) for r in rs))
        stats[v] = entry

    improvements = {}
    base = variants[0]
    for v in variants[1:]:
        pair = {}
        for m in metrics:
            # paired over runs where both variants completed
            bvals, vvals = [], []
            for r in range(cfg.scenario.runs):
                b = by_run[base].get(r)
                c = by_run[v].get(r)
                if b and c and not b.aborted and not c.aborted:
                    bv, cv = getattr(b, m), getattr(c, m)
                    if math.isfinite(bv) and math.isfinite(cv):
                        bvals.append(bv)
                        vvals.append(cv)
            if bvals:
                bm, vm = float(np.mean(bvals)), float(np.mean(vvals))
                pair[m] = {
                    "paired_runs": len(bvals),
                    "base_mean": bm, "variant_mean": vm,
                    "improvement_pct": 100.0 * (bm - vm) / bm if bm else 0.0,
                    "base_median": float(np.median(bvals)),
                    "variant_median": float(np.median(vvals)),
                }
        improvements[f"{v}_vs_{base}"] = pair

    return {"scenario": cfg.scenario.kind, "seed": cfg.seed,
            "runs": cfg.scenario.runs, "variants": stats,
            "improvements": improvements}


def _write_run_outputs(cfg: Config, variants: list, results: list, summary: dict,
                       out_dir: str):
    # every RunResult field, run index first
    cols = ["run", "variant"] + [f.name for f in dataclasses.fields(RunResult)
                                 if f.name not in ("run", "variant")]
    rows = [[getattr(r, c) for c in cols] for r in results]
    write_csv(os.path.join(out_dir, "runs.csv"), cols, rows)
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(_json_safe(summary), f, indent=2, sort_keys=True)
        f.write("\n")
    sidecar = {"package_version": __version__, "seed": cfg.seed,
               "variants": variants, "config": config_to_dict(cfg)}
    with open(os.path.join(out_dir, "run_info.json"), "w") as f:
        json.dump(_json_safe(sidecar), f, indent=2, sort_keys=True)
        f.write("\n")

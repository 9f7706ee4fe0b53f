"""Closed-loop simulation harness.

Everything here is deterministic given the config seed. Random streams are
derived per purpose from numpy SeedSequence entropy lists, so a scenario run
r uses the same start pose, reference draw, feature noise and measurement
noise for every controller variant: comparisons are paired by construction.

Timing model per controller tick (period = sim.control_period):
  1. the measured acceleration is sampled at the current state: the plant's
     stage_rates under the input applied over the previous interval, at the
     terrain eta under the robot, plus white noise, unchecked, since the
     plant call that made the state checked it and that input;
  2. the appearance features under the robot are queried (noisy, possibly
     darkened) when the controller's basis is a network; the other
     controllers read none, so their ticks only count a patch that left
     the map;
  3. the controller produces the next command;
  4. actuator faults rescale the command, and the plant integrates forward
     to the next tick in one rk4_steps call of control_period / dt_plant
     substeps, looking the terrain eta up at the start of every substep.
Steps 1 and 4 look eta up through the same per-vehicle terrain function,
and share one stage_rates of the applied input: built for step 4, it
serves the next tick's step 1.

The tick runs on Python floats, not on small arrays. The episode carries
the state as floats from one rk4_steps call to the next: the start state
and each applied input are checked once, where they enter
(vehicles.checked_fields), and rk4_steps checks every result. The
controller sees one state object per tick, built from those floats. The
references, the control law, the adapted state (tuples) and the telemetry
rows are floats, and the basis output is converted to nested lists once
per tick. Only the basis forward pass, the feature lookups, the noise
draws, the residual's nominal-model products and the matrix law's gain
step use numpy. The measurement noise of a whole episode is one block
draw, the stream of one pair per tick; the features stay one draw per tick,
in the episodes that gather them.

The dataset loop keeps the same model in two passes per trajectory.
Driving (steps 3-4 with random inputs in place of a controller) never
reads an observation to choose its inputs; it takes the sequential part
of each one as it steps, with the tick's own code: step 1's measurement
on the stage_rates and floats it holds, plus noise, low-passed by
LowPassFilter.update. An array pass adds the rest: the features in one
gather and the residual's nominal model, stacked over the rows. Each
noise stream is drawn in the per-tick loop's order. RK4 is written only in
the plant, once per vehicle (vehicles.*Params.rk4_steps). The driving pass
carries the state as floats and checks it as the episode does. Both loops
look eta up per cell (TerrainWorldMap.eta_at, eta_first_at).

Independent episodes and dataset trajectories run on every usable CPU.
run_scenario's (run, variant) episodes and generate_dataset's trajectories
each rebuild their inputs from their own SeedSequence, so
workers.map_jobs spreads them over this process and forked children, one
process per CPU in the affinity set and at most one per job, and collects
the results in job order. No value depends on the worker count:
`taskset -c 0` runs the same jobs one after another in this process and
writes the same bytes.

Relative config file names resolve inside the output dir, never the CWD.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .basis import BasisNet, ConstantBasis, load_checkpoint
from .config import Config, ConfigError, config_to_dict, split_variant
from .control import AckermannController, LowPassFilter, TrackedController, nominal_residuals
from .serialize import write_csv, write_json
from .training import TrajectoryDataset
from .vehicles import (AckermannInput, AckermannState, FaultSchedule, NonFiniteError,
                       TrackedInput, TrackedState, apply_track_fault, checked_fields,
                       wrap_angle)
from .workers import map_jobs
from .world import FeatureProvider, TerrainWorldMap, build_world, load_world

log = logging.getLogger(__name__)

_DATASET_DOMAIN = 101
_SCENARIO_DOMAIN = 202

_SPEED_ABORT = 50.0     # |v| beyond this is treated as a diverged run


# ---------------------------------------------------------------- plumbing

def resolve_path(name: str, out_dir: str) -> str:
    """A config file name: an absolute one as given, a relative one inside
    the output dir, whatever the working directory holds."""
    return name if os.path.isabs(name) else os.path.join(out_dir, name)


def build_world_for(cfg: Config, out_dir: str | None = None) -> TerrainWorldMap:
    """The configured world; a recorded one is read from provider.world_file,
    resolved against out_dir (the config's output dir when None)."""
    if cfg.provider.mode == "recorded":
        world = load_world(resolve_path(cfg.provider.world_file,
                                        out_dir or cfg.resolved_output_dir()))
        if cfg.vehicle.type == "tracked" and world.eta_table.shape[1] != 2:
            raise ConfigError(f"provider.world_file: the tracked vehicle needs two eta "
                              f"entries per class, got {world.eta_table.shape[1]}")
        return world
    return build_world(cfg.world)


def _load_basis(cfg: Config, out_dir: str, world: TerrainWorldMap):
    """(net, theta_r) from the configured checkpoint, refused unless the net
    fits the vehicle and the world and theta_r gives n_theta finite entries."""
    net, meta = load_checkpoint(resolve_path(cfg.controller.checkpoint, out_dir))
    where = f"controller.checkpoint {cfg.controller.checkpoint}"
    # both vehicles log two velocity channels and two residual channels
    want = {"state_dim": 2, "feature_dim": world.features.shape[-1], "n": 2,
            "m": _vehicle(cfg).n_input}
    got = {k: getattr(net, k) for k in want}
    if got != want:
        raise ConfigError(f"{where}: the basis has {got}; the {cfg.vehicle.type} vehicle "
                          f"on this world needs {want}")
    theta_r = meta.get("theta_r")
    if theta_r is not None:
        theta_r = np.array(theta_r, dtype=float).reshape(-1)
        if theta_r.shape != (net.n_theta,) or not np.all(np.isfinite(theta_r)):
            raise ConfigError(f"{where}: theta_r must give n_theta={net.n_theta} finite "
                              f"entries, got {theta_r.tolist()}")
    return net, theta_r


def build_controller(cfg: Config, variant: str, out_dir: str, checkpoint=None):
    """Controller for one variant on the configured vehicle. A dnn variant
    uses checkpoint, the (net, theta_r) pair of _load_basis, or reads it from
    out_dir, on the configured world, when None."""
    base, adapt = split_variant(variant)
    vehicle = _vehicle(cfg)
    basis = None
    theta0 = cfg.controller.theta0
    if base == "constant":
        basis = ConstantBasis(2, vehicle.n_input)
    elif base == "dnn":
        basis, theta_r = checkpoint or _load_basis(cfg, out_dir, build_world_for(cfg, out_dir))
        if theta0 is None:
            theta0 = theta_r
    # the two config checks that need the basis
    if basis is not None and cfg.controller.theta0 is not None:
        n_0 = len(cfg.controller.theta0)
        if n_0 != basis.n_theta:
            raise ConfigError(f"controller.theta0 has {n_0} entries; the basis has "
                              f"n_theta={basis.n_theta}")
    if basis is not None and adapt:
        n_q = len(cfg.controller.adaptation.q_diag)
        if n_q not in (1, basis.n_theta):
            raise ConfigError(f"controller.adaptation.q_diag has {n_q} entries; the basis "
                              f"has n_theta={basis.n_theta}, so give 1 or {basis.n_theta}")
    return vehicle.controller(
        basis=basis, theta0=theta0, adapt=adapt,
        residual_cutoff_hz=cfg.sim.residual_cutoff_hz,
        control_period=cfg.sim.control_period)


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
        self.world = world
        self.margin_frac = margin_frac
        self.omega_cap = max(abs(omega_range[0]), abs(omega_range[1]), 1.0)

    def start_pose(self, rng) -> TrackedState:
        x, y, psi = _interior_start(rng, self.world, self.margin_frac)
        return TrackedState(x, y, psi, 0.0, 0.0)

    def refs(self, t: float, state) -> tuple[tuple, tuple]:
        """([v_ref, omega_ref], its derivative) at time t, as float pairs."""
        seg = self.segments[0]
        for cand in self.segments:
            if cand[0] <= t:
                seg = cand
            else:
                break
        v_ref, omega_ref = seg[1], seg[2]
        err = _turn_back_error(self.world, self.margin_frac, state.p_x, state.p_y,
                               state.psi)
        if err is not None:
            omega_ref = min(max(2.0 * err, -self.omega_cap), self.omega_cap)
            v_ref = max(0.4, min(abs(v_ref), 0.8))
        return (v_ref, omega_ref), (0.0, 0.0)


class Figure8Reference:
    """Lemniscate position reference: x = Ax sin(w t), y = Ay sin(2 w t)."""

    mode = "position"

    def __init__(self, center, amp_x: float, amp_y: float, period_s: float):
        c_x, c_y = np.asarray(center, dtype=float).tolist()
        self.center = (c_x, c_y)
        self.amp_x = amp_x
        self.amp_y = amp_y
        self.w = 2.0 * math.pi / period_s

    def refs(self, t: float, state=None):
        """(p_d, v_d, psi_d), the vectors as float pairs."""
        w = self.w
        c_x, c_y = self.center
        p_d = (c_x + self.amp_x * math.sin(w * t), c_y + self.amp_y * math.sin(2.0 * w * t))
        v_d = (self.amp_x * w * math.cos(w * t), 2.0 * self.amp_y * w * math.cos(2.0 * w * t))
        psi_d = math.atan2(v_d[1], v_d[0])
        return p_d, v_d, psi_d

    def start_pose(self, rng) -> TrackedState:
        p_d, _, psi_d = self.refs(0.0)
        off = rng.uniform(-0.3, 0.3, size=2).tolist()
        dpsi = rng.uniform(-0.2, 0.2)
        return TrackedState(p_d[0] + off[0], p_d[1] + off[1],
                            wrap_angle(psi_d + dpsi), 0.0, 0.0)


class CircleReference:
    """Constant-speed circle for the Ackermann vehicle (counterclockwise)."""

    mode = "ackermann"

    def __init__(self, center, radius: float, speed: float, phase0: float = 0.0):
        if radius <= 0 or speed <= 0:
            raise ValueError("circle radius and speed must be positive")
        c_x, c_y = np.asarray(center, dtype=float).tolist()
        self.center = (c_x, c_y)
        self.radius = radius
        self.speed = speed
        self.phase0 = phase0
        self.omega_d = speed / radius

    def refs(self, t: float, state=None):
        """(p_d as a float pair, psi_d, omega_d, speed) at time t."""
        ang = self.phase0 + self.omega_d * t
        c_x, c_y = self.center
        p_d = (c_x + self.radius * math.cos(ang), c_y + self.radius * math.sin(ang))
        psi_d = wrap_angle(ang + 0.5 * math.pi)
        return p_d, psi_d, self.omega_d, self.speed

    def start_pose(self, rng) -> AckermannState:
        ang = self.phase0
        radial = rng.uniform(-0.2, 0.2)
        dpsi = rng.uniform(-0.1, 0.1)
        r = self.radius + radial
        c_x, c_y = self.center
        return AckermannState(c_x + r * math.cos(ang), c_y + r * math.sin(ang),
                              wrap_angle(ang + 0.5 * math.pi + dpsi),
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


# ---------------------------------------------------------------- vehicles

def _interior_start(rng, world: TerrainWorldMap, margin_frac: float):
    w, h = world.extent
    x = rng.uniform(margin_frac * w, (1.0 - margin_frac) * w)
    y = rng.uniform(margin_frac * h, (1.0 - margin_frac) * h)
    psi = rng.uniform(-math.pi, math.pi)
    return x, y, psi


def _turn_back_error(world: TerrainWorldMap, margin_frac: float, p_x: float, p_y: float,
                     psi: float):
    """Heading error toward the map center once the pose has left the
    interior (margin_frac of the extent in from every border), else None."""
    w, h = world.extent
    mx, my = margin_frac * w, margin_frac * h
    if mx <= p_x <= w - mx and my <= p_y <= h - my:
        return None
    return wrap_angle(math.atan2(0.5 * h - p_y, 0.5 * w - p_x) - psi)


class _Vehicle:
    """What the shared episode and dataset loops need to know about one
    vehicle type. Stepping and measuring look eta up through the same
    terrain function, terrain(world), which each loop resolves once; the
    per-substep lookups are made inside the plant's rk4_steps call."""

    tick_errors = (NonFiniteError, np.linalg.LinAlgError)    # abort the run

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.ds = cfg.dataset
        self.vp = getattr(cfg.vehicle, cfg.vehicle.type)
        self.half = cfg.vehicle.half_spacing

    def measured(self, rates, terrain, y) -> tuple:
        """Noise-free derivative of the logged channels x at the state values
        y under an input's stage_rates, at the eta under the robot, as floats."""
        return rates(terrain(y[0], y[1]), *y[2:])[self.x_cols]


class _Tracked(_Vehicle):
    n_input = 2
    # the dataset logs x = [v_x, omega] under both inputs
    x_cols, u_cols = slice(3, 5), slice(0, 2)
    tele_cols = ["v_ref_x", "omega_ref", "s_vx", "s_omega",
                 "u_v", "u_omega", "y_vx", "y_omega"]
    fault_cols = ["fault_left", "fault_right"]

    @staticmethod
    def terrain(world: TerrainWorldMap):
        return world.eta_at

    def dataset_start(self, rng, world: TerrainWorldMap):
        x, y, psi = _interior_start(rng, world, self.ds.margin_frac)
        return TrackedState(x, y, psi, 0.0, 0.0), TrackedInput(0.0, 0.0)

    def redraw(self, rng) -> TrackedInput:
        return TrackedInput(rng.uniform(*self.ds.u_v_range), rng.uniform(*self.ds.u_omega_range))

    def turn_back(self, u: TrackedInput, err: float) -> TrackedInput:
        return TrackedInput(max(0.4, abs(u.u_v) * 0.7), min(max(2.0 * err, -2.0), 2.0))

    def actuate(self, u_cmd: TrackedInput, fault: FaultSchedule, t: float):
        """(applied input, fault telemetry) for the commanded input at time t."""
        left, right = fault.scales(t)
        return apply_track_fault(u_cmd, left, right, self.half), [left, right]

    def controller(self, **kwargs) -> TrackedController:
        c = self.cfg.controller
        limits = (self.cfg.vehicle.u_v_max, self.cfg.vehicle.u_omega_max)
        return TrackedController(self.vp, c.gains, c.adaptation, u_limits=limits, **kwargs)

    @staticmethod
    def tele_row(state, refs, tele) -> list:
        # v_ref = v - s reconstructs the reference actually used this tick
        return [state.v_x - tele.s[0], state.omega - tele.s[1], *tele.s, *tele.u, *tele.y]


class _Ackermann(_Vehicle):
    n_input = 1
    # the dataset logs x = [v_y, omega] under the steering input
    x_cols, u_cols = slice(4, 6), slice(1, 2)
    tele_cols = ["psi_d", "e_par", "e_perp", "psi_e", "s_perp",
                 "u_v", "u_delta", "y_vy", "y_omega"]
    fault_cols = []

    @staticmethod
    def terrain(world: TerrainWorldMap):
        return world.eta_first_at

    def dataset_start(self, rng, world: TerrainWorldMap):
        x, y, psi = _interior_start(rng, world, self.ds.margin_frac)
        cruise = rng.uniform(*self.ds.cruise_range)
        return AckermannState(x, y, psi, cruise, 0.0, 0.0), AckermannInput(cruise, 0.0)

    def redraw(self, rng) -> AckermannInput:
        return AckermannInput(rng.uniform(*self.ds.cruise_range),
                              rng.uniform(*self.ds.u_delta_range))

    def turn_back(self, u: AckermannInput, err: float) -> AckermannInput:
        lo, hi = self.ds.u_delta_range              # lo <= hi, checked at load
        return AckermannInput(u.u_v, min(max(err, lo), hi))

    @staticmethod
    def actuate(u_cmd: AckermannInput, fault: FaultSchedule, t: float):
        return u_cmd, []

    def controller(self, **kwargs) -> AckermannController:
        c = self.cfg.controller
        return AckermannController(self.vp, c.gains, c.adaptation,
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

def _speeds_bounded(y) -> bool:
    # the velocities follow the pose in the state values y, checked finite
    return max(map(abs, y[3:])) < _SPEED_ABORT


def simulate_episode(world: TerrainWorldMap, cfg: Config, controller, policy,
                     provider: FeatureProvider, meas_rng, start, duration_s: float,
                     fault: FaultSchedule = FaultSchedule(), telemetry: bool = True):
    """Run one closed-loop episode of the configured vehicle.

    Returns (RunResult fields as a dict, telemetry rows, telemetry columns);
    the rows are empty when telemetry is False.

    The state is carried as floats from one rk4_steps call to the next, as
    _drive carries it: the start state and each applied input are checked
    once, where they enter, and rk4_steps checks every result.
    A start that fails its check raises before the first tick (NonFiniteError,
    or TypeError for the other vehicle's state); the later checks abort the
    run. One stage_rates per tick serves that tick's plant call and the next
    tick's measurement, and the controller sees one state object per tick,
    built from the floats. The config checked dt_plant and the substep count.
    """
    sim = cfg.sim
    period, dt = sim.control_period, sim.dt_plant
    n_sub = int(round(period / dt))
    n_ticks = int(round(duration_s / period))
    vehicle = _vehicle(cfg)
    vp = vehicle.vp
    state_cls, input_cls = vp.state_cls, vp.input_cls
    terrain, step, measured = vehicle.terrain(world), vp.rk4_steps, vehicle.measured
    tick = getattr(controller, _TICK[policy.mode])
    has_position = policy.mode != "velocity"
    # pd has no basis and ConstantBasis ignores its features: only a network
    # reads them, and the provider's noise stream is this episode's own
    gather = isinstance(controller.basis, BasisNet)
    y = checked_fields(start, state_cls)
    controller.reset()
    # the measurement noise of ticks 1.. in one draw, the stream of one pair per tick
    noise = meas_rng.normal(0.0, sim.vdot_noise_std, (max(n_ticks - 1, 0), 2)).tolist()

    rates = None
    aborted = False
    fallback = clamp = rejected = 0
    clamp0 = provider.clamp_count

    # telemetry: time, state, desired position, vehicle terms, adaptation, flags
    n_theta = len(controller.state.theta_hat) if controller.state is not None else 0
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
        state = state_cls(*y)
        if k == 0:
            xdot_meas = (0.0, 0.0)
        else:
            m_x, m_w = measured(rates, terrain, y)
            n_x, n_w = noise[k - 1]
            xdot_meas = (m_x + n_x, m_w + n_w)
        if gather:
            feats = provider.features_under_robot(y[0], y[1], y[2], vehicle.half)
        else:
            provider.count_clamp(y[0], y[1], y[2], vehicle.half)
            feats = None
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
        s_rows.append(tele.s)
        if has_position:
            p_d = [refs[0][0], refs[0][1]]
            p_rows.append([y[0], y[1]])
            pd_rows.append(p_d)
        if telemetry:
            row = [t, *y, *p_d] if has_position else [t, *y]
            row += vehicle.tele_row(state, refs, tele)
            row += [*tele.theta_hat, *tele.gain_diag]
            row += fault_row + [tele.fallback, tele.clamped, tele.rejected]
            rows.append(row)

        try:
            rates = vp.stage_rates(*checked_fields(u_applied, input_cls))
            y = step(rates, y, terrain, dt, n_sub)
        except NonFiniteError as e:
            log.warning("plant diverged at t=%.2f: %s", t, e)
            aborted = True
            break
        if not _speeds_bounded(y):
            log.warning("state left the trust region at t=%.2f", t)
            aborted = True
            break

    if fallback or rejected:
        log.warning("run of %d ticks had %d fallback, %d rejected and %d clamped ticks",
                    len(s_rows), fallback, rejected, clamp)
    pos_rmse, vel_rmse, cum = compute_metrics(period, s_rows, p_rows, pd_rows)
    result = {
        "ticks": len(s_rows), "aborted": aborted,
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

    Each trajectory is made in two passes: _drive runs the plant and takes
    each sample's low-passed measurement as it steps, then _observe adds the
    features and the nominal model from the rows it kept. Driving never
    reads an observation to choose its inputs, so the split changes no
    value. Each trajectory is one job of workers.map_jobs, with its own
    SeedSequence streams, so it may run in a worker process; the
    trajectories are stacked in index order.
    """
    ds = cfg.dataset
    sim = cfg.sim
    warmup = int(round(ds.warmup_s / sim.control_period))
    vehicle = _vehicle(cfg)

    def trajectory(traj):
        ss = np.random.SeedSequence([cfg.seed, _DATASET_DOMAIN, traj])
        in_rng, meas_rng, prov_ss = ss.spawn(3)
        driven = _drive(vehicle, world, np.random.default_rng(in_rng),
                        np.random.default_rng(meas_rng), warmup + ds.steps)
        provider = FeatureProvider(world, cfg.provider.noise_std,
                                   cfg.provider.brightness, seed=prov_ss)
        logged = _observe(vehicle, provider, *driven)
        return [rows[warmup:] for rows in logged]

    x, u, e, y = (np.stack(rows) for rows in zip(*map_jobs(trajectory, ds.n_traj)))
    return TrajectoryDataset(x, u, e, y, sim.control_period)


def _drive(vehicle: _Vehicle, world: TerrainWorldMap, rng, meas_rng, n: int):
    """Pass 1 of generate_dataset: the plant, the input redraws, the border
    turn-back and the sequential part of each observation. Returns (states,
    inputs, filtered) of the n samples as float arrays; row k of inputs is
    the input applied over the interval that ends at sample k, and row k of
    filtered the low-passed measured derivative it produced.

    The state is carried as floats from one rk4_steps call to the next. The
    start state and each newly chosen input are checked once, where they
    enter, and rk4_steps checks every result; the input's stage_rates are
    built only when it changes. Each sample after the first is measured as
    the episode's tick measures, on those stage_rates and floats, plus its
    row of meas_rng's noise, and filtered by LowPassFilter.update; sample 0
    has no previous input and filters zeros. Choosing the inputs reads none
    of it. The config checked dt_plant and the substep count."""
    ds, sim, vp = vehicle.ds, vehicle.cfg.sim, vehicle.vp
    period, dt = sim.control_period, sim.dt_plant
    n_sub = int(round(period / dt))
    # its own stream, so drawn up front; one row is converted per sample, as
    # a whole trajectory as lists costs more memory than it saves time
    noise = meas_rng.normal(0.0, sim.vdot_noise_std, (n - 1, 2))
    lpf = LowPassFilter(sim.residual_cutoff_hz)
    state, u = vehicle.dataset_start(rng, world)
    y, u_values = checked_fields(state, vp.state_cls), checked_fields(u, vp.input_cls)
    terrain, step = vehicle.terrain(world), vp.rk4_steps
    measured, filtered = vehicle.measured, np.empty((n, 2))
    states, inputs = np.empty((n, len(y))), np.empty((n, len(u_values)))
    next_redraw, rates, xdot = 0.0, None, (0.0, 0.0)
    for k in range(n):
        t = k * period
        states[k] = y
        inputs[k] = u_values
        if k:
            m_x, m_w = measured(rates, terrain, y)
            n_x, n_w = noise[k - 1].tolist()
            xdot = (m_x + n_x, m_w + n_w)
        filtered[k] = lpf.update(xdot, period)
        # choose the input for the next interval
        if t >= next_redraw:
            u = vehicle.redraw(rng)
            next_redraw = t + rng.uniform(*ds.hold_range_s)
            rates = None
        err = _turn_back_error(world, ds.margin_frac, y[0], y[1], y[2])
        if err is not None:
            u = vehicle.turn_back(u, err)
            rates = None
        if rates is None:
            u_values = checked_fields(u, vp.input_cls)
            rates = vp.stage_rates(*u_values)
        y = step(rates, y, terrain, dt, n_sub)
    return states, inputs, filtered


def _observe(vehicle: _Vehicle, provider: FeatureProvider, states, inputs, filtered):
    """Pass 2 of generate_dataset: the logged (x, u, e, y) of every sample
    of one trajectory, equal to observing one sample at a time. It adds to
    the drive's low-passed measurements what needs no sequential pass, in
    array form: the features in one gather, and the residual's nominal
    model once, stacked over the rows."""
    vp = vehicle.vp
    feats = provider.features_along(states[:, 0], states[:, 1], states[:, 2], vehicle.half)
    a_n, b_n = vp.residual_model(vp.state_cls(*states.T))
    x, u = states[:, vehicle.x_cols], inputs[:, vehicle.u_cols]
    return x, u, feats, nominal_residuals(filtered, x, u, a_n, b_n)


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
    return CircleReference(center, sc.circle_radius, sc.circle_speed,
                           phase0=float(ref_rng.uniform(0.0, 2.0 * math.pi)))


def run_scenario(cfg: Config, variants: list | None = None,
                 out_dir: str | None = None) -> dict:
    """Run the configured scenario for one or more controller variants.

    Every run index r shares its start pose, reference draw, feature noise
    and measurement noise across the variants. Writes per-run metrics
    (runs.csv), a summary (summary.json), an execution sidecar
    (run_info.json) and optional per-run telemetry CSVs into out_dir, which
    is made after an unknown or a repeated variant name is refused.

    Each (run, variant) episode is one job of workers.map_jobs, which
    rebuilds the run's reference, start pose, feature provider and
    measurement stream from the run's SeedSequence, so the episodes may run
    in any process.
    The process that runs an episode writes its telemetry CSV, into the
    telemetry/ dir made here first; this process collects the RunResults
    in (run, variant) order and writes the rest.
    """
    variants = list(variants) if variants else [cfg.controller.variant]
    try:
        bases = [split_variant(v)[0] for v in variants]
    except ValueError as e:
        raise ConfigError(f"variants: {e}") from e
    if len(set(variants)) < len(variants):
        raise ConfigError(f"variants: each may be named once, got {variants}")
    out_dir = out_dir or cfg.resolved_output_dir()
    os.makedirs(out_dir, exist_ok=True)
    sc = cfg.scenario
    if sc.kind == "ackermann-circle" and sc.circle_speed <= cfg.vehicle.ackermann.v_min:
        # the car would hold its steering for the whole run
        raise ConfigError(f"scenario.circle_speed {sc.circle_speed} must lie above "
                          f"vehicle.ackermann.v_min={cfg.vehicle.ackermann.v_min}: at or "
                          "below it the car has no lateral authority")
    world = build_world_for(cfg, out_dir)
    # one network for every dnn episode: controllers only evaluate it
    checkpoint = _load_basis(cfg, out_dir, world) if "dnn" in bases else None
    # one controller per variant, checked before any output; every episode
    # resets it to its fresh state
    controllers = [build_controller(cfg, v, out_dir, checkpoint) for v in variants]
    tele_dir = os.path.join(out_dir, "telemetry")
    if sc.telemetry:
        os.makedirs(tele_dir, exist_ok=True)

    def episode(j):
        r, v = divmod(j, len(variants))
        ss = np.random.SeedSequence([cfg.seed, _SCENARIO_DOMAIN, r])
        start_ss, ref_ss, prov_ss, meas_ss = ss.spawn(4)
        policy = _policy_for_run(cfg, world, np.random.default_rng(ref_ss))
        start = policy.start_pose(np.random.default_rng(start_ss))
        provider = FeatureProvider(world, cfg.provider.noise_std,
                                   cfg.provider.brightness, seed=prov_ss)
        res, rows, cols = simulate_episode(world, cfg, controllers[v], policy, provider,
                                           np.random.default_rng(meas_ss), start,
                                           sc.duration_s, sc.fault, sc.telemetry)
        if sc.telemetry:
            write_csv(os.path.join(tele_dir, f"{variants[v]}_run{r:03d}.csv"), cols, rows)
        return RunResult(variant=variants[v], run=r, **res)

    results = map_jobs(episode, sc.runs * len(variants))
    clamp_only = [r for r in results
                  if r.clamp_ticks and not (r.fallback_ticks or r.rejected_ticks)]
    if clamp_only:
        # clamping alone is routine: one line per evaluate, not one per run
        log.warning("%d of %d runs had clamped ticks only, %d in all",
                    len(clamp_only), len(results), sum(r.clamp_ticks for r in clamp_only))
    summary = summarize_results(cfg, variants, results)
    _write_run_outputs(cfg, variants, results, summary, out_dir)
    return summary


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
    write_json(os.path.join(out_dir, "summary.json"), summary)
    write_json(os.path.join(out_dir, "run_info.json"),
               {"package_version": __version__, "seed": cfg.seed,
                "variants": variants, "config": config_to_dict(cfg)})

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
     at dt_plant with the terrain eta looked up every substep.
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
from .config import Config, config_to_dict
from .control import (AckermannController, AckermannGains, AdaptParams,
                      ResidualFilter, TrackedController, TrackedGains)
from .serialize import write_csv, read_csv
from .training import TrajectoryDataset
from .vehicles import (AckermannInput, AckermannState, NonFiniteError,
                       TrackedInput, TrackedState, apply_track_fault,
                       integrate_step, tracked_derivative,
                       ackermann_derivative, wrap_angle)
from .world import FeatureProvider, TerrainWorldMap, build_world, eta_under_robot, load_world

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


def build_tracked_controller(cfg: Config, variant: str, out_dir: str,
                             checkpoint=None) -> TrackedController:
    """Controller for one variant. A dnn variant uses checkpoint, the
    (net, theta_r) pair of _load_basis, or reads it from out_dir when None."""
    base, adapt = split_variant(variant)
    g = cfg.controller.gains
    gains = TrackedGains(k_px=g.k_px, k_py=g.k_py, k_psi=g.k_psi,
                         k_dx=g.k_dx, k_domega=g.k_domega, v_eps=g.v_eps)
    basis = None
    theta0 = cfg.controller.theta0
    if base == "constant":
        basis = ConstantBasis(2, 2)
    elif base == "dnn":
        basis, theta_r = checkpoint or _load_basis(cfg, out_dir)
        if theta0 is None:
            theta0 = theta_r
    n_theta = basis.n_theta if basis is not None else 1
    return TrackedController(
        cfg.vehicle.tracked, gains, _adapt_params_for(cfg, n_theta),
        basis=basis, law=cfg.controller.adaptation.law, theta0=theta0,
        adapt=adapt, u_limits=(cfg.vehicle.u_v_max, cfg.vehicle.u_omega_max),
        residual_cutoff_hz=cfg.sim.residual_cutoff_hz,
        control_period=cfg.sim.control_period)


def build_ackermann_controller(cfg: Config, variant: str, out_dir: str,
                               checkpoint=None) -> AckermannController:
    """Ackermann counterpart of build_tracked_controller."""
    base, adapt = split_variant(variant)
    g = cfg.controller.gains
    gains = AckermannGains(k_p=g.k_p, k_v=g.k_v, k_fwd=g.k_fwd, b_min=g.b_min)
    basis = None
    theta0 = cfg.controller.theta0
    if base == "constant":
        basis = ConstantBasis(2, 1)
    elif base == "dnn":
        basis, theta_r = checkpoint or _load_basis(cfg, out_dir)
        if theta0 is None:
            theta0 = theta_r
    n_theta = basis.n_theta if basis is not None else 1
    return AckermannController(
        cfg.vehicle.ackermann, gains, _adapt_params_for(cfg, n_theta),
        basis=basis, law=cfg.controller.adaptation.law, theta0=theta0,
        adapt=adapt, u_delta_max=cfg.vehicle.u_delta_max,
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
        self.center = np.array([0.5 * w, 0.5 * h])
        self.margin = (margin_frac * w, margin_frac * h)
        self.extent = (w, h)
        self.omega_cap = max(abs(omega_range[0]), abs(omega_range[1]), 1.0)

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


# ---------------------------------------------------------------- sim loops

def _finite_state(state) -> bool:
    vals = dataclasses.astuple(state)
    return all(math.isfinite(v) for v in vals) and \
        max(abs(v) for v in vals[3:]) < _SPEED_ABORT


def simulate_tracked(world: TerrainWorldMap, cfg: Config, controller: TrackedController,
                     policy, provider: FeatureProvider, meas_rng,
                     start: TrackedState, duration_s: float,
                     fault: FaultSchedule | None = None):
    """Run one tracked closed-loop episode.

    Returns (RunResult fields as a dict, telemetry rows, telemetry columns).
    """
    sim = cfg.sim
    period = sim.control_period
    n_sub = int(round(period / sim.dt_plant))
    n_ticks = int(round(duration_s / period))
    fault = fault or FaultSchedule()
    half = cfg.vehicle.half_spacing
    vp = cfg.vehicle.tracked
    controller.reset()

    state = start
    u_applied = TrackedInput(0.0, 0.0)
    aborted = False
    fallback = clamp = rejected = 0
    clamp0 = provider.clamp_count

    n_theta = controller.state.theta_hat.shape[0] if controller.state is not None else 0
    cols = ["t", "p_x", "p_y", "psi", "v_x", "omega",
            "v_ref_x", "omega_ref", "s_vx", "s_omega",
            "u_v", "u_omega", "y_vx", "y_omega"]
    if policy.mode == "position":
        cols[6:6] = ["p_d_x", "p_d_y"]
    cols += [f"theta_{i}" for i in range(n_theta)]
    cols += [f"gamma_{i}" for i in range(n_theta)]
    cols += ["fault_left", "fault_right", "fallback", "clamped", "rejected"]

    rows = []
    s_rows, p_rows, pd_rows = [], [], []
    for k in range(n_ticks):
        t = k * period
        eta = eta_under_robot(world, state.p_x, state.p_y)
        if k == 0:
            vdot_meas = np.zeros(2)
        else:
            d = tracked_derivative(state, u_applied, vp, tuple(eta))
            vdot_meas = np.array(d[3:5]) + meas_rng.normal(0.0, sim.vdot_noise_std, 2)
        feats = provider.features_under_robot(state.p_x, state.p_y, state.psi, half)

        try:
            if policy.mode == "position":
                p_d, v_d, psi_d = policy.refs(t, state)
                u_cmd, tele = controller.tick_position(state, vdot_meas, feats,
                                                       p_d, v_d, psi_d)
            else:
                v_ref, vdot_ref = policy.refs(t, state)
                p_d = None
                u_cmd, tele = controller.tick_velocity(state, vdot_meas, feats,
                                                       v_ref, vdot_ref)
        except (NonFiniteError, np.linalg.LinAlgError) as e:
            log.warning("run aborted at t=%.2f: %s", t, e)
            aborted = True
            break

        left, right = fault.scales(t)
        u_applied = apply_track_fault(u_cmd, left, right, half)

        fallback += tele.fallback
        clamp += tele.clamped
        rejected += tele.rejected
        row = [t, state.p_x, state.p_y, state.psi, state.v_x, state.omega]
        if policy.mode == "position":
            row += [p_d[0], p_d[1]]
        # v_ref = v - s reconstructs the reference actually used this tick
        row += [state.v_x - tele.s[0], state.omega - tele.s[1]]
        row += [tele.s[0], tele.s[1], tele.u[0], tele.u[1], tele.y[0], tele.y[1]]
        row += list(tele.theta_hat) + list(tele.gain_diag)
        row += [left, right, tele.fallback, tele.clamped, tele.rejected]
        rows.append(row)
        s_rows.append([tele.s[0], tele.s[1]])
        if policy.mode == "position":
            p_rows.append([state.p_x, state.p_y])
            pd_rows.append([p_d[0], p_d[1]])

        try:
            for _ in range(n_sub):
                eta_step = eta_under_robot(world, state.p_x, state.p_y)
                state = integrate_step(state, u_applied, vp, sim.dt_plant, tuple(eta_step))
        except NonFiniteError as e:
            log.warning("plant diverged at t=%.2f: %s", t, e)
            aborted = True
            break
        if not _finite_state(state):
            log.warning("state left the trust region at t=%.2f", t)
            aborted = True
            break

    pos_rmse, vel_rmse, cum = compute_metrics(
        period, s_rows,
        p_rows if policy.mode == "position" else None,
        pd_rows if policy.mode == "position" else None)
    result = {
        "ticks": len(rows), "aborted": aborted,
        "position_rmse": pos_rmse, "velocity_rmse": vel_rmse,
        "cum_tracking_error": cum,
        "fallback_ticks": fallback, "clamp_ticks": clamp,
        "rejected_ticks": rejected,
        "feature_clamps": provider.clamp_count - clamp0,
    }
    return result, rows, cols


def simulate_ackermann(world: TerrainWorldMap, cfg: Config,
                       controller: AckermannController, policy: CircleReference,
                       provider: FeatureProvider, meas_rng,
                       start: AckermannState, duration_s: float):
    """Run one Ackermann circle-tracking episode."""
    sim = cfg.sim
    period = sim.control_period
    n_sub = int(round(period / sim.dt_plant))
    n_ticks = int(round(duration_s / period))
    half = cfg.vehicle.half_spacing
    vp = cfg.vehicle.ackermann
    controller.reset()

    state = start
    u_applied = None
    aborted = False
    fallback = clamp = rejected = 0
    clamp0 = provider.clamp_count

    n_theta = controller.state.theta_hat.shape[0] if controller.state is not None else 0
    cols = ["t", "p_x", "p_y", "psi", "v_x", "v_y", "omega",
            "p_d_x", "p_d_y", "psi_d", "e_par", "e_perp", "psi_e",
            "s_perp", "u_v", "u_delta", "y_vy", "y_omega"]
    cols += [f"theta_{i}" for i in range(n_theta)]
    cols += [f"gamma_{i}" for i in range(n_theta)]
    cols += ["fallback", "clamped", "rejected"]

    rows, s_rows, p_rows, pd_rows = [], [], [], []
    for k in range(n_ticks):
        t = k * period
        eta = eta_under_robot(world, state.p_x, state.p_y)
        if k == 0 or u_applied is None:
            xdot_meas = np.zeros(2)
        else:
            d = ackermann_derivative(state, u_applied, vp, float(eta[0]))
            xdot_meas = np.array(d[4:6]) + meas_rng.normal(0.0, sim.vdot_noise_std, 2)
        feats = provider.features_under_robot(state.p_x, state.p_y, state.psi, half)
        p_d, psi_d, omega_d, speed_d = policy.refs(t, state)

        try:
            u_cmd, tele = controller.tick(state, xdot_meas, feats,
                                          p_d, psi_d, omega_d, speed_d)
        except (NonFiniteError, ValueError, np.linalg.LinAlgError) as e:
            log.warning("ackermann run aborted at t=%.2f: %s", t, e)
            aborted = True
            break
        u_applied = u_cmd

        fallback += tele.fallback
        clamp += tele.clamped
        rejected += tele.rejected
        lat = tele.lat
        row = [t, state.p_x, state.p_y, state.psi, state.v_x, state.v_y,
               state.omega, p_d[0], p_d[1], psi_d,
               lat.e_par, lat.e_perp, lat.psi_e, lat.s_perp,
               tele.u[0], tele.u[1], tele.y[0], tele.y[1]]
        row += list(tele.theta_hat) + list(tele.gain_diag)
        row += [tele.fallback, tele.clamped, tele.rejected]
        rows.append(row)
        s_rows.append([lat.s_perp])
        p_rows.append([state.p_x, state.p_y])
        pd_rows.append([p_d[0], p_d[1]])

        try:
            for _ in range(n_sub):
                eta_step = eta_under_robot(world, state.p_x, state.p_y)
                state = integrate_step(state, u_applied, vp, sim.dt_plant,
                                       float(eta_step[0]))
        except NonFiniteError as e:
            log.warning("ackermann plant diverged at t=%.2f: %s", t, e)
            aborted = True
            break
        if not _finite_state(state):
            aborted = True
            break

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

def _interior_start(rng, world: TerrainWorldMap, margin_frac: float):
    w, h = world.extent
    x = rng.uniform(margin_frac * w, (1.0 - margin_frac) * w)
    y = rng.uniform(margin_frac * h, (1.0 - margin_frac) * h)
    psi = rng.uniform(-math.pi, math.pi)
    return x, y, psi


def generate_tracked_dataset(cfg: Config, world: TerrainWorldMap) -> TrajectoryDataset:
    """Drive random piecewise-constant inputs and log (x, u, e, y) samples.

    Samples are taken at the control rate; each logged input is the one that
    was applied over the interval ending at the sample, i.e. the input that
    produced the measured acceleration the residual is built from. A border
    turn-back keeps the robot on the map, and the first warmup_s seconds are
    dropped while the residual filter settles.
    """
    ds = cfg.dataset
    sim = cfg.sim
    period = sim.control_period
    n_sub = int(round(period / sim.dt_plant))
    warmup = int(round(ds.warmup_s / period))
    vp = cfg.vehicle.tracked
    half = cfg.vehicle.half_spacing
    a_n, b_n = vp.a_n(), vp.b_n()

    xs, us, es, ys = [], [], [], []
    for traj in range(ds.n_traj):
        ss = np.random.SeedSequence([cfg.seed, _DATASET_DOMAIN, traj])
        in_rng, meas_rng, prov_ss = ss.spawn(3)
        in_rng = np.random.default_rng(in_rng)
        meas_rng = np.random.default_rng(meas_rng)
        provider = FeatureProvider(world, cfg.provider.noise_std,
                                   cfg.provider.brightness, seed=prov_ss,
                                   mode=cfg.provider.mode)
        res = ResidualFilter(sim.residual_cutoff_hz)
        x0, y0, psi0 = _interior_start(in_rng, world, ds.margin_frac)
        state = TrackedState(x0, y0, psi0, 0.0, 0.0)
        u = TrackedInput(0.0, 0.0)
        next_redraw = 0.0
        tx, tu, te, ty = [], [], [], []
        k = 0
        while len(tx) < ds.steps:
            t = k * period
            eta = eta_under_robot(world, state.p_x, state.p_y)
            v = np.array([state.v_x, state.omega])
            if k == 0:
                vdot_meas = np.zeros(2)
            else:
                d = tracked_derivative(state, u, vp, tuple(eta))
                vdot_meas = np.array(d[3:5]) + meas_rng.normal(0.0, sim.vdot_noise_std, 2)
            feats = provider.features_under_robot(state.p_x, state.p_y, state.psi, half)
            u_vec = u.as_array()
            y = res.residual(vdot_meas, v, u_vec, a_n, b_n, period)
            if k >= warmup:
                tx.append(v)
                tu.append(u_vec)
                te.append(feats)
                ty.append(y)
            # choose the input for the next interval
            if t >= next_redraw:
                u = TrackedInput(in_rng.uniform(*ds.u_v_range),
                                 in_rng.uniform(*ds.u_omega_range))
                next_redraw = t + in_rng.uniform(*ds.hold_range_s)
            w, h = world.extent
            mx, my = ds.margin_frac * w, ds.margin_frac * h
            if not (mx <= state.p_x <= w - mx and my <= state.p_y <= h - my):
                bearing = math.atan2(0.5 * h - state.p_y, 0.5 * w - state.p_x)
                err = wrap_angle(bearing - state.psi)
                u = TrackedInput(max(0.4, abs(u.u_v) * 0.7),
                                 float(np.clip(2.0 * err, -2.0, 2.0)))
            for _ in range(n_sub):
                eta_step = eta_under_robot(world, state.p_x, state.p_y)
                state = integrate_step(state, u, vp, sim.dt_plant, tuple(eta_step))
            k += 1
        xs.append(tx)
        us.append(tu)
        es.append(te)
        ys.append(ty)
    return TrajectoryDataset(np.array(xs), np.array(us), np.array(es),
                             np.array(ys), period)


def generate_ackermann_dataset(cfg: Config, world: TerrainWorldMap) -> TrajectoryDataset:
    """Random steering at cruise speed; logs lateral states and residuals."""
    ds = cfg.dataset
    sim = cfg.sim
    period = sim.control_period
    n_sub = int(round(period / sim.dt_plant))
    warmup = int(round(ds.warmup_s / period))
    vp = cfg.vehicle.ackermann
    half = cfg.vehicle.half_spacing

    xs, us, es, ys = [], [], [], []
    for traj in range(ds.n_traj):
        ss = np.random.SeedSequence([cfg.seed, _DATASET_DOMAIN, traj])
        in_rng, meas_rng, prov_ss = ss.spawn(3)
        in_rng = np.random.default_rng(in_rng)
        meas_rng = np.random.default_rng(meas_rng)
        provider = FeatureProvider(world, cfg.provider.noise_std,
                                   cfg.provider.brightness, seed=prov_ss,
                                   mode=cfg.provider.mode)
        res = ResidualFilter(sim.residual_cutoff_hz)
        x0, y0, psi0 = _interior_start(in_rng, world, ds.margin_frac)
        cruise = in_rng.uniform(*ds.cruise_range)
        state = AckermannState(x0, y0, psi0, cruise, 0.0, 0.0)
        u = AckermannInput(cruise, 0.0)
        next_redraw = 0.0
        tx, tu, te, ty = [], [], [], []
        k = 0
        while len(tx) < ds.steps:
            t = k * period
            eta = eta_under_robot(world, state.p_x, state.p_y)
            x_lat = np.array([state.v_y, state.omega])
            if k == 0:
                xdot_meas = np.zeros(2)
            else:
                d = ackermann_derivative(state, u, vp, float(eta[0]))
                xdot_meas = np.array(d[4:6]) + meas_rng.normal(0.0, sim.vdot_noise_std, 2)
            feats = provider.features_under_robot(state.p_x, state.p_y, state.psi, half)
            a_n = vp.a_n(max(state.v_x, vp.v_min * 1.01))
            y = res.residual(xdot_meas, x_lat, [u.u_delta], a_n,
                             vp.b_n().reshape(2, 1), period)
            if k >= warmup:
                tx.append(x_lat)
                tu.append(np.array([u.u_delta]))
                te.append(feats)
                ty.append(y)
            if t >= next_redraw:
                u = AckermannInput(in_rng.uniform(*ds.cruise_range),
                                   in_rng.uniform(*ds.u_delta_range))
                next_redraw = t + in_rng.uniform(*ds.hold_range_s)
            w, h = world.extent
            mx, my = ds.margin_frac * w, ds.margin_frac * h
            if not (mx <= state.p_x <= w - mx and my <= state.p_y <= h - my):
                bearing = math.atan2(0.5 * h - state.p_y, 0.5 * w - state.p_x)
                err = wrap_angle(bearing - state.psi)
                u = AckermannInput(u.u_v, float(np.clip(err, *ds.u_delta_range)))
            for _ in range(n_sub):
                eta_step = eta_under_robot(world, state.p_x, state.p_y)
                state = integrate_step(state, u, vp, sim.dt_plant, float(eta_step[0]))
            k += 1
        xs.append(tx)
        us.append(tu)
        es.append(te)
        ys.append(ty)
    return TrajectoryDataset(np.array(xs), np.array(us), np.array(es),
                             np.array(ys), period)


def generate_dataset(cfg: Config, world: TerrainWorldMap) -> TrajectoryDataset:
    if cfg.vehicle.type == "ackermann":
        return generate_ackermann_dataset(cfg, world)
    return generate_tracked_dataset(cfg, world)


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


def _start_for_run(cfg: Config, world: TerrainWorldMap, policy, start_rng):
    sc = cfg.scenario
    if sc.kind == "velocity-random":
        x, y, psi = _interior_start(start_rng, world, sc.start_margin_frac)
        return TrackedState(x, y, psi, 0.0, 0.0)
    return policy.start_pose(start_rng)


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
    if not is_ackermann and cfg.vehicle.type != "tracked":
        raise ValueError(f"scenario {sc.kind} requires vehicle.type tracked")

    tele_dir = os.path.join(out_dir, "telemetry")
    if sc.telemetry:
        os.makedirs(tele_dir, exist_ok=True)

    # one network for every dnn episode: controllers only evaluate it
    checkpoint = (_load_basis(cfg, out_dir)
                  if any(split_variant(v)[0] == "dnn" for v in variants) else None)
    results: list[RunResult] = []
    for r in range(sc.runs):
        ss = np.random.SeedSequence([cfg.seed, _SCENARIO_DOMAIN, r])
        start_ss, ref_ss, prov_ss, meas_ss = ss.spawn(4)
        policy = _policy_for_run(cfg, world, np.random.default_rng(ref_ss))
        start = _start_for_run(cfg, world, policy, np.random.default_rng(start_ss))
        for variant in variants:
            provider = FeatureProvider(world, cfg.provider.noise_std,
                                       cfg.provider.brightness, seed=prov_ss,
                                       mode=cfg.provider.mode)
            meas_rng = np.random.default_rng(meas_ss)
            if is_ackermann:
                controller = build_ackermann_controller(cfg, variant, out_dir, checkpoint)
                res, rows, cols = simulate_ackermann(world, cfg, controller, policy,
                                                     provider, meas_rng, start,
                                                     sc.duration_s)
            else:
                controller = build_tracked_controller(cfg, variant, out_dir, checkpoint)
                fault = FaultSchedule.from_config(sc.fault)
                res, rows, cols = simulate_tracked(world, cfg, controller, policy,
                                                   provider, meas_rng, start,
                                                   sc.duration_s, fault)
            results.append(RunResult(variant=variant, run=r, **res))
            if sc.telemetry:
                write_csv(os.path.join(tele_dir, f"{variant}_run{r:03d}.csv"),
                          cols, rows)

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
        entry["fallback_ticks"] = int(sum(r.fallback_ticks for r in rs))
        entry["clamp_ticks"] = int(sum(r.clamp_ticks for r in rs))
        entry["rejected_ticks"] = int(sum(r.rejected_ticks for r in rs))
        entry["feature_clamps"] = int(sum(r.feature_clamps for r in rs))
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
    cols = ["run", "variant", "ticks", "aborted", "position_rmse",
            "velocity_rmse", "cum_tracking_error", "fallback_ticks",
            "clamp_ticks", "rejected_ticks", "feature_clamps"]
    rows = [[r.run, r.variant, r.ticks, r.aborted, r.position_rmse,
             r.velocity_rmse, r.cum_tracking_error, r.fallback_ticks,
             r.clamp_ticks, r.rejected_ticks, r.feature_clamps]
            for r in results]
    write_csv(os.path.join(out_dir, "runs.csv"), cols, rows)
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(_json_safe(summary), f, indent=2, sort_keys=True)
        f.write("\n")
    sidecar = {"package_version": __version__, "seed": cfg.seed,
               "variants": variants, "config": config_to_dict(cfg)}
    with open(os.path.join(out_dir, "run_info.json"), "w") as f:
        json.dump(_json_safe(sidecar), f, indent=2, sort_keys=True)
        f.write("\n")

"""Closed-loop harness: faults, references, datasets, paired scenarios, CLI."""

import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml

from oracles import (derivative, metrics_from_telemetry, per_tick_episode, read_csv,
                     solve_theta_star)
from terradapt import cli, harness, workers
from terradapt.basis import BasisNet, ConstantBasis
from terradapt.config import ConfigError, config_from_dict, load_config
from terradapt.control import ResidualFilter, TrackedController
from terradapt.harness import (
    CircleReference,
    Figure8Reference,
    RandomVelocityReference,
    RunResult,
    build_controller,
    build_world_for,
    compute_metrics,
    generate_dataset,
    resolve_path,
    run_scenario,
    split_variant,
    summarize_results,
)
from terradapt.training import build_h
from terradapt.vehicles import (AckermannState, FaultSchedule, NonFiniteError, TrackedInput,
                                TrackedParams, TrackedState, integrate_step, wrap_angle)
from terradapt.world import FeatureProvider, build_world, cell_index


def base_raw(out_dir=None, **extra):
    raw = {
        "seed": 9,
        "world": {"rows": 20, "cols": 20, "cell_size": 0.25,
                  "tile_rows": 10, "tile_cols": 10,
                  "feature_dim": 4, "feature_scale": 3.0,
                  "feature_noise": 0.05, "min_separation": 2.0,
                  "classes": [{"name": "nominal", "eta": [1.0, 1.0]},
                              {"name": "soft", "eta": [0.72, 0.8]}]},
        "provider": {"noise_std": 0.01},
        "sim": {"dt_plant": 0.01, "control_period": 0.05, "vdot_noise_std": 0.02},
        "dataset": {"steps": 60, "n_traj": 2, "warmup_s": 0.5,
                    "hold_range_s": [0.4, 1.0]},
        "training": {"hidden": [8, 8], "batch_windows": 6, "max_iters": 8,
                     "window_min_s": 0.3, "window_max_s": 0.8,
                     "learning_rate": 0.01},
        "controller": {"variant": "constant",
                       "adaptation": {"r_diag": [1.0, 1.0],
                                      "q_diag": [0.05, 0.05, 0.05, 0.05],
                                      "gamma0": 0.05, "gamma_max": 0.2}},
        "scenario": {"kind": "velocity-random", "duration_s": 4.0, "runs": 2,
                     "hold_range_s": [1.0, 2.0]},
    }
    if out_dir is not None:
        raw["output_dir"] = str(out_dir)
    for key, val in extra.items():
        section, _, field = key.partition(".")
        if field:
            raw.setdefault(section, {})[field] = val
        else:
            raw[section] = val
    return raw


# the scenario kind each vehicle drives; a config pairing any other is refused
SCENARIO_OF = {"tracked": "velocity-random", "ackermann": "ackermann-circle"}


# ------------------------------------------------------------------- faults


def test_fault_schedule_square_wave():
    f = FaultSchedule("track-square", period_s=3.0, scale=0.3, track="right",
                      start_s=1.0)
    for t in np.arange(0.0, 10.0, 0.05):
        if t < 1.0:
            want = (1.0, 1.0)
        else:
            want = (1.0, 0.3) if (t - 1.0) % 3.0 < 1.5 else (1.0, 1.0)
        assert f.scales(float(t)) == want
    left = FaultSchedule("track-square", period_s=2.0, scale=0.5, track="left")
    assert left.scales(0.0) == (0.5, 1.0)
    assert left.scales(1.0) == (1.0, 1.0)
    assert FaultSchedule().scales(123.0) == (1.0, 1.0)


def test_split_variant():
    assert split_variant("dnn") == ("dnn", True)
    assert split_variant("dnn-frozen") == ("dnn", False)
    assert split_variant("pd") == ("pd", True)
    for bad in ("frozen", "dnn-frozn", "pd-frozen-frozen"):
        with pytest.raises(ValueError, match="unknown controller variant"):
            split_variant(bad)


# --------------------------------------------------------------- references


def world_for_tests():
    return build_world(config_from_dict(base_raw()).world)


def test_random_velocity_reference_is_deterministic_and_bounded():
    world = world_for_tests()
    a = RandomVelocityReference(np.random.default_rng(5), 20.0, (0.4, 1.3),
                                (-1.0, 1.0), (2.0, 4.0), world)
    b = RandomVelocityReference(np.random.default_rng(5), 20.0, (0.4, 1.3),
                                (-1.0, 1.0), (2.0, 4.0), world)
    assert a.segments == b.segments
    state = TrackedState(2.5, 2.5, 0.0, 0.0, 0.0)  # map center, no turn-back
    for t in (0.0, 3.7, 11.2, 19.9):
        v_ref, vdot_ref = a.refs(t, state)
        assert 0.4 <= v_ref[0] <= 1.3 and -1.0 <= v_ref[1] <= 1.0
        np.testing.assert_array_equal(vdot_ref, [0.0, 0.0])
    # piecewise constant within a segment
    t0 = a.segments[1][0]
    r1, _ = a.refs(t0 + 1e-3, state)
    r2, _ = a.refs(t0 + 1e-2, state)
    np.testing.assert_array_equal(r1, r2)


def test_random_velocity_reference_turns_back_at_border():
    world = world_for_tests()
    policy = RandomVelocityReference(np.random.default_rng(5), 20.0, (0.4, 1.3),
                                     (-1.0, 1.0), (2.0, 4.0), world)
    # at the left edge facing away from the center: strong corrective yaw
    state = TrackedState(0.1, 2.5, math.pi, 0.0, 0.0)
    v_ref, _ = policy.refs(0.0, state)
    assert 0.4 <= v_ref[0] <= 0.8
    assert v_ref[1] == pytest.approx(-1.0) or v_ref[1] == pytest.approx(1.0)


def test_figure8_velocity_matches_position_derivative():
    ref = Figure8Reference((2.5, 2.5), 1.0, 0.5, 12.0)
    h = 1e-6
    for t in (0.0, 1.3, 4.911, 9.0):
        p0, v, psi_d = ref.refs(t)
        pp, _, _ = ref.refs(t + h)
        pm, _, _ = ref.refs(t - h)
        fd = (np.asarray(pp) - np.asarray(pm)) / (2 * h)
        np.testing.assert_allclose(v, fd, rtol=1e-6, atol=1e-6)
        assert psi_d == pytest.approx(math.atan2(v[1], v[0]))
    start = ref.start_pose(np.random.default_rng(0))
    p_d, _, psi_d = ref.refs(0.0)
    assert abs(start.p_x - p_d[0]) <= 0.3 and abs(start.p_y - p_d[1]) <= 0.3
    assert start.v_x == 0.0


def test_circle_reference_geometry():
    ref = CircleReference((2.5, 2.5), 1.5, 1.0, phase0=0.7)
    assert ref.omega_d == pytest.approx(1.0 / 1.5)
    h = 1e-6
    for t in (0.0, 2.2, 7.9):
        p_d, psi_d, omega_d, speed = ref.refs(t)
        assert np.hypot(p_d[0] - 2.5, p_d[1] - 2.5) == pytest.approx(1.5)
        pp = ref.refs(t + h)[0]
        pm = ref.refs(t - h)[0]
        fd = (np.asarray(pp) - np.asarray(pm)) / (2 * h)
        assert np.hypot(*fd) == pytest.approx(speed, rel=1e-6)
        assert math.atan2(fd[1], fd[0]) == pytest.approx(psi_d, abs=1e-6)
    start = ref.start_pose(np.random.default_rng(1))
    r0 = np.hypot(start.p_x - 2.5, start.p_y - 2.5)
    assert 1.3 <= r0 <= 1.7
    assert start.v_x == 1.0
    with pytest.raises(ValueError):
        CircleReference((0, 0), -1.0, 1.0)


# ----------------------------------------------------------------- datasets


@pytest.mark.parametrize("vehicle, n_u", [("tracked", 2), ("ackermann", 1)],
                         ids=["tracked", "ackermann"])
def test_dataset_shapes_and_determinism(vehicle, n_u):
    cfg = config_from_dict(base_raw(**{"vehicle.type": vehicle,
                                       "scenario.kind": SCENARIO_OF[vehicle]}))
    world = build_world_for(cfg)
    ds1 = generate_dataset(cfg, world)
    ds2 = generate_dataset(cfg, world)
    assert ds1.x.shape == (2, 60, 2)
    assert ds1.u.shape == (2, 60, n_u)
    assert ds1.e.shape == (2, 60, 4)
    assert ds1.y.shape == (2, 60, 2)
    assert ds1.dt == 0.05
    for name in ("x", "u", "e", "y"):
        np.testing.assert_array_equal(getattr(ds1, name), getattr(ds2, name))
    assert not np.array_equal(ds1.x[0], ds1.x[1])  # trajectories differ


def test_ackermann_dataset_dispatch():
    cfg = config_from_dict(base_raw(**{"vehicle.type": "ackermann",
                                       "scenario.kind": "ackermann-circle",
                                       "dataset.steps": 30,
                                       "dataset.n_traj": 1}))
    world = build_world_for(cfg)
    ds = generate_dataset(cfg, world)
    assert ds.x.shape == (1, 30, 2)   # [v_y, omega]
    assert ds.u.shape == (1, 30, 1)   # steering only
    assert np.all(np.isfinite(ds.y))


def per_sample_dataset(cfg, world):
    """The sample-at-a-time dataset loop that generate_dataset replaced,
    kept as its oracle: every sample is observed while it is driven, and the
    plant takes one single-substep call per substep. Also returns the feature
    clamp count, so a test can see that off-map queries were covered. eta is
    read from the world here, not through the vehicle's terrain lookup."""
    ds, sim = cfg.dataset, cfg.sim
    period = sim.control_period
    n_sub = int(round(period / sim.dt_plant))
    warmup = int(round(ds.warmup_s / period))
    vehicle = harness._vehicle(cfg)
    tracked = cfg.vehicle.type == "tracked"

    def eta_at(x, y):
        # the tracked plant takes the class's eta pair, the car its first entry
        return world.eta_at(x, y) if tracked else world.eta_at(x, y)[0]

    w, h = world.extent
    mx, my = ds.margin_frac * w, ds.margin_frac * h
    trajs, clamps = [], 0
    for traj in range(ds.n_traj):
        ss = np.random.SeedSequence([cfg.seed, harness._DATASET_DOMAIN, traj])
        in_ss, meas_ss, prov_ss = ss.spawn(3)
        in_rng, meas_rng = np.random.default_rng(in_ss), np.random.default_rng(meas_ss)
        provider = FeatureProvider(world, cfg.provider.noise_std, cfg.provider.brightness,
                                   seed=prov_ss)
        res = ResidualFilter(sim.residual_cutoff_hz)
        state, u = vehicle.dataset_start(in_rng, world)
        next_redraw = 0.0
        rows = []
        for k in range(warmup + ds.steps):
            t = k * period
            if tracked:
                x, u_vec = np.array([state.v_x, state.omega]), np.array([u.u_v, u.u_omega])
            else:
                x, u_vec = np.array([state.v_y, state.omega]), np.array([u.u_delta])
            if k == 0:
                xdot = np.zeros(2)
            else:
                eta = eta_at(state.p_x, state.p_y)
                xdot = (derivative(state, u, vehicle.vp, eta)[vehicle.x_cols]
                        + meas_rng.normal(0.0, sim.vdot_noise_std, 2))
            feats = provider.features_under_robot(state.p_x, state.p_y, state.psi,
                                                  vehicle.half)
            a_n, b_n = vehicle.vp.residual_model(state)
            y = res.residual(xdot, x, u_vec, a_n, b_n, period)
            if k >= warmup:
                rows.append((x, u_vec, feats, y))
            if t >= next_redraw:
                u = vehicle.redraw(in_rng)
                next_redraw = t + in_rng.uniform(*ds.hold_range_s)
            if not (mx <= state.p_x <= w - mx and my <= state.p_y <= h - my):
                bearing = math.atan2(0.5 * h - state.p_y, 0.5 * w - state.p_x)
                u = vehicle.turn_back(u, wrap_angle(bearing - state.psi))
            for _ in range(n_sub):
                state = integrate_step(state, u, vehicle.vp, sim.dt_plant,
                                       eta_at(state.p_x, state.p_y))
        trajs.append(rows)
        clamps += provider.clamp_count
    x, u, e, y = (np.array([[row[i] for row in rows] for rows in trajs]) for i in range(4))
    return x, u, e, y, clamps


@pytest.mark.parametrize("vehicle", ["tracked", "ackermann"])
def test_dataset_equals_per_sample_loop(vehicle):
    """Driving first and observing the whole trajectory afterwards logs the
    same bits as observing each sample while driving, with feature and
    measurement noise on and the robot reaching the map border."""
    cfg = config_from_dict(base_raw(**{"vehicle.type": vehicle,
                                       "scenario.kind": SCENARIO_OF[vehicle],
                                       "dataset.steps": 300,
                                       "dataset.margin_frac": 0.02,
                                       "provider.noise_std": 0.05}))
    world = build_world_for(cfg)
    ds = generate_dataset(cfg, world)
    x, u, e, y, clamps = per_sample_dataset(cfg, world)
    assert clamps > 0
    for name, want in zip("xuey", (x, u, e, y)):
        np.testing.assert_array_equal(getattr(ds, name), want, err_msg=name)


@pytest.mark.parametrize("vehicle", ["tracked", "ackermann"])
def test_dataset_builds_stage_rates_only_when_the_input_changes(monkeypatch, vehicle):
    """The drive measures each sample on the stage_rates it stepped with,
    so one trajectory (run in this process) builds fewer than one per
    sample."""
    cfg = config_from_dict(base_raw(**{"vehicle.type": vehicle, "dataset.n_traj": 1,
                                       "scenario.kind": SCENARIO_OF[vehicle]}))
    params_cls = type(getattr(cfg.vehicle, vehicle))
    real, calls = params_cls.stage_rates, []

    def counted(self, *u):
        calls.append(u)
        return real(self, *u)

    monkeypatch.setattr(params_cls, "stage_rates", counted)
    generate_dataset(cfg, build_world_for(cfg))
    samples = cfg.dataset.steps + int(round(cfg.dataset.warmup_s / cfg.sim.control_period))
    assert 0 < len(calls) < samples


@pytest.mark.parametrize("vehicle", ["tracked", "ackermann"])
def test_measured_equals_the_checked_derivative(vehicle):
    """The float measurement both sim loops take is the logged channels of
    derivative() at the eta under the robot, bit for bit, inside the map and
    where the eta lookup is clamped at its border."""
    cfg = config_from_dict(base_raw(**{"vehicle.type": vehicle,
                                       "scenario.kind": SCENARIO_OF[vehicle]}))
    world = build_world_for(cfg)
    veh = harness._vehicle(cfg)
    terrain = veh.terrain(world)
    state_cls, input_cls = veh.vp.state_cls, veh.vp.input_cls
    rng = np.random.default_rng(4)
    w, h = world.extent
    for p_x, p_y, clamped in ((0.3 * w, 0.6 * h, False), (-1.0, 0.5 * h, True),
                              (w + 2.0, h + 0.5, True)):
        assert cell_index(world, p_x, p_y)[2] == clamped
        n_free = len(dataclasses.fields(state_cls)) - 2
        y = [p_x, p_y, *rng.uniform(-1.0, 1.0, n_free).tolist()]
        u = rng.uniform(-0.4, 0.4, len(dataclasses.fields(input_cls))).tolist()
        eta = world.eta_at(p_x, p_y)
        want = derivative(state_cls(*y), input_cls(*u), veh.vp,
                          eta if vehicle == "tracked" else eta[0])[veh.x_cols]
        got = veh.measured(veh.vp.stage_rates(*u), terrain, y)
        assert all(type(v) is float for v in got)
        np.testing.assert_array_equal(got, want)


def test_ackermann_dataset_drives_through_standstill_and_reverse():
    """A cruise range from reverse to slow forward drives gen-data through
    the low-speed regime: the logged arrays are finite."""
    cfg = config_from_dict(base_raw(**{"vehicle.type": "ackermann",
                                       "scenario.kind": "ackermann-circle",
                                       "dataset.cruise_range": [-0.5, 0.3],
                                       "dataset.steps": 80, "dataset.n_traj": 2}))
    ds = generate_dataset(cfg, build_world_for(cfg))
    assert ds.x.shape == (2, 80, 2)
    for name in "xuey":
        assert np.all(np.isfinite(getattr(ds, name))), name


def test_dataset_recovers_constant_basis_truth():
    """Uniform soft terrain, no noise: ridge regression over the logged
    residuals recovers the diagonal correction (eta - 1) B_n."""
    raw = base_raw(**{"provider.noise_std": 0.0, "sim.vdot_noise_std": 0.0,
                      "dataset.steps": 400, "dataset.n_traj": 1})
    raw["world"]["classes"] = [{"name": "soft", "eta": [0.72, 0.8]}]
    cfg = config_from_dict(raw)
    world = build_world_for(cfg)
    ds = generate_dataset(cfg, world)
    b_n = cfg.vehicle.tracked.b_n()
    theta_true = np.array([(0.72 - 1) * b_n[0, 0], 0.0, 0.0, (0.8 - 1) * b_n[1, 1]])
    phi = np.broadcast_to(ConstantBasis(2, 2).eval(None, None), (ds.length, 4, 2, 2))
    h = build_h(phi, ds.u[0])
    theta, _ = solve_theta_star(h, ds.y[0], 1e-8, np.zeros(4))
    rel = np.linalg.norm(theta - theta_true) / np.linalg.norm(theta_true)
    assert rel < 0.2
    # filter transients bound the pointwise mismatch but not the regression
    ideal = ((np.diag([0.72, 0.8]) - np.eye(2)) @ b_n @ ds.u[0].T).T
    assert np.median(np.abs(ds.y[0] - ideal)) < 0.25


# ------------------------------------------------------------------ metrics


def test_compute_metrics_by_hand():
    pos, vel, cum = compute_metrics(0.5, [[3.0, 4.0], [0.0, 0.0]],
                                    [[1.0, 0.0], [0.0, 0.0]],
                                    [[0.0, 0.0], [0.0, 0.0]])
    assert vel == pytest.approx(math.sqrt(12.5))
    assert cum == pytest.approx(2.5)
    assert pos == pytest.approx(math.sqrt(0.5))
    pos2, vel2, cum2 = compute_metrics(0.05, [])
    assert math.isnan(pos2) and math.isnan(vel2) and cum2 == 0.0


def test_summarize_results_paired_improvement():
    cfg = config_from_dict({"scenario": {"runs": 3}})
    nan = float("nan")
    res = [
        RunResult("pd", 0, 80, False, nan, 1.0, 2.0, 0, 0, 0, 0),
        RunResult("pd", 1, 80, False, nan, 1.0, 4.0, 0, 0, 0, 0),
        RunResult("pd", 2, 80, True, nan, 9.9, 9.9, 0, 0, 0, 0),
        RunResult("dnn", 0, 80, False, nan, 0.5, 1.0, 1, 0, 0, 0),
        RunResult("dnn", 1, 80, False, nan, 0.5, 1.0, 0, 2, 0, 0),
        RunResult("dnn", 2, 80, False, nan, 0.5, 1.0, 0, 0, 0, 0),
    ]
    summary = summarize_results(cfg, ["pd", "dnn"], res)
    imp = summary["improvements"]["dnn_vs_pd"]["cum_tracking_error"]
    assert imp["paired_runs"] == 2  # the aborted pd run drops out
    assert imp["base_mean"] == pytest.approx(3.0)
    assert imp["variant_mean"] == pytest.approx(1.0)
    assert imp["improvement_pct"] == pytest.approx(100.0 * 2.0 / 3.0)
    assert summary["variants"]["pd"]["aborted"] == 1
    assert summary["variants"]["pd"]["position_rmse"] is None  # all nan
    assert summary["variants"]["pd"]["velocity_rmse"]["mean"] == pytest.approx(1.0)
    assert summary["variants"]["dnn"]["fallback_ticks"] == 1
    assert summary["variants"]["dnn"]["clamp_ticks"] == 2


# ---------------------------------------------------------------- scenarios


def test_runs_are_paired_across_variant_sets(tmp_path):
    cfg = config_from_dict(base_raw(**{"scenario.runs": 2}))
    out_a = tmp_path / "solo"
    out_b = tmp_path / "both"
    run_scenario(cfg, ["pd"], str(out_a))
    run_scenario(cfg, ["pd", "constant"], str(out_b))
    for r in range(2):
        name = f"telemetry/pd_run{r:03d}.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_identical_controllers_show_zero_improvement(tmp_path):
    cfg = config_from_dict(base_raw(**{"scenario.runs": 2}))
    # pd has no basis, so freezing changes nothing: a perfect A/A pair
    summary = run_scenario(cfg, ["pd", "pd-frozen"], str(tmp_path))
    imp = summary["improvements"]["pd-frozen_vs_pd"]
    assert imp["velocity_rmse"]["improvement_pct"] == 0.0
    assert imp["cum_tracking_error"]["improvement_pct"] == 0.0


def test_runs_csv_matches_telemetry_recompute(tmp_path):
    raw = base_raw(scenario={"kind": "figure8", "duration_s": 4.0, "runs": 1,
                             "fig8_amp_x": 1.0, "fig8_amp_y": 0.5,
                             "fig8_period_s": 12.0,
                             "fault": {"kind": "track-square", "period_s": 2.0,
                                       "scale": 0.3, "track": "right"}})
    cfg = config_from_dict(raw)
    run_scenario(cfg, ["pd", "constant"], str(tmp_path))
    cols, rows = read_csv(tmp_path / "runs.csv")
    idx = {c: i for i, c in enumerate(cols)}
    assert len(rows) == 2
    for row in rows:
        variant, run = row[idx["variant"]], int(row[idx["run"]])
        tele = tmp_path / "telemetry" / f"{variant}_run{run:03d}.csv"
        pos, vel, cum = metrics_from_telemetry(tele, cfg.sim.control_period)
        assert float(row[idx["position_rmse"]]) == pos
        assert float(row[idx["velocity_rmse"]]) == vel
        assert float(row[idx["cum_tracking_error"]]) == cum
        assert not math.isnan(pos)


def test_velocity_scenario_metrics_have_no_position(tmp_path):
    cfg = config_from_dict(base_raw(**{"scenario.runs": 1}))
    run_scenario(cfg, ["pd"], str(tmp_path))
    pos, vel, cum = metrics_from_telemetry(
        tmp_path / "telemetry" / "pd_run000.csv", 0.05)
    assert math.isnan(pos) and vel > 0 and cum > 0


def test_telemetry_records_fault_windows(tmp_path):
    raw = base_raw(scenario={"kind": "figure8", "duration_s": 4.0, "runs": 1,
                             "fig8_amp_x": 1.0, "fig8_amp_y": 0.5,
                             "fig8_period_s": 12.0,
                             "fault": {"kind": "track-square", "period_s": 2.0,
                                       "scale": 0.3, "track": "right"}})
    cfg = config_from_dict(raw)
    run_scenario(cfg, ["pd"], str(tmp_path))
    cols, rows = read_csv(tmp_path / "telemetry" / "pd_run000.csv")
    idx = {c: i for i, c in enumerate(cols)}
    sched = FaultSchedule("track-square", 2.0, 0.3, "right", 0.0)
    assert len(rows) == 80
    for row in rows:
        t = float(row[idx["t"]])
        left, right = sched.scales(t)
        assert float(row[idx["fault_left"]]) == left
        assert float(row[idx["fault_right"]]) == right
    assert any(float(r[idx["fault_right"]]) == 0.3 for r in rows)


def test_diverging_run_is_reported_aborted(tmp_path):
    raw = base_raw(**{"scenario.runs": 1, "scenario.duration_s": 4.0})
    cfg = config_from_dict(raw)
    # time constants far below the integrator step: the plant blows up. The
    # loader refuses them (RK4 is unstable there), so they are set after it.
    cfg.vehicle.tracked = TrackedParams(tau_v=0.003, tau_omega=0.003)
    summary = run_scenario(cfg, ["pd"], str(tmp_path))
    assert summary["variants"]["pd"]["aborted"] == 1
    assert summary["variants"]["pd"]["velocity_rmse"] is None
    cols, rows = read_csv(tmp_path / "runs.csv")
    idx = {c: i for i, c in enumerate(cols)}
    assert rows[0][idx["aborted"]] == "1"
    assert int(rows[0][idx["ticks"]]) < 80


@pytest.mark.parametrize("fault", ["none", "track-square"])
def test_non_finite_command_aborts_the_run(tmp_path, monkeypatch, fault):
    """The plant call checks the applied input inside the episode's guard,
    with a track fault mixed in or not, so the run is reported aborted."""
    real_tick = TrackedController.tick_velocity

    def tick(self, state, *args):
        u, tele = real_tick(self, state, *args)
        self.n_ticks = getattr(self, "n_ticks", 0) + 1
        return (TrackedInput(float("nan"), u.u_omega) if self.n_ticks == 6 else u), tele

    monkeypatch.setattr(TrackedController, "tick_velocity", tick)
    raw = base_raw(**{"scenario.runs": 1, "scenario.duration_s": 2.0,
                      "scenario.fault": {"kind": fault}})
    run_scenario(config_from_dict(raw), ["pd"], str(tmp_path))
    cols, rows = read_csv(tmp_path / "runs.csv")
    row = dict(zip(cols, rows[0]))
    assert (row["ticks"], row["aborted"]) == ("6", "1")


def test_fallback_on_every_tick_logs_one_summary_warning(tmp_path, caplog):
    b_n = TrackedParams().b_n()
    raw = base_raw(**{"scenario.runs": 1, "scenario.duration_s": 2.0})
    # theta0 cancels B_n: B_hat = 0, so every tick falls back to B_n
    raw["controller"]["theta0"] = [-b_n[0, 0], 0.0, 0.0, -b_n[1, 1]]
    with caplog.at_level(logging.DEBUG, logger="terradapt"):
        run_scenario(config_from_dict(raw), ["constant"], str(tmp_path))
    cols, rows = read_csv(tmp_path / "runs.csv")
    row = dict(zip(cols, rows[0]))
    assert (row["ticks"], row["aborted"], row["fallback_ticks"], row["rejected_ticks"]) \
        == ("40", "0", "40", "0")
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert [r.name for r in warnings] == ["terradapt.harness"]
    assert f"40 fallback, 0 rejected and {row['clamp_ticks']} clamped" in warnings[0].getMessage()
    # the per-tick note is kept at debug level
    assert sum("falling back" in r.getMessage() for r in caplog.records) == 40


def test_clamp_only_runs_log_one_warning_per_evaluate(tmp_path, caplog):
    # a low velocity limit clamps every run, with no fallback or rejection
    raw = base_raw(**{"scenario.runs": 3}, vehicle={"u_v_max": 0.6})
    with caplog.at_level(logging.WARNING, logger="terradapt"):
        run_scenario(config_from_dict(raw), ["pd", "constant"], str(tmp_path))
    cols, rows = read_csv(tmp_path / "runs.csv")
    runs = [dict(zip(cols, row)) for row in rows]
    assert len(runs) == 6
    assert all(int(r["clamp_ticks"]) > 0 for r in runs)
    assert all(r["fallback_ticks"] == r["rejected_ticks"] == "0" for r in runs)
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert [r.name for r in warnings] == ["terradapt.harness"]
    total = sum(int(r["clamp_ticks"]) for r in runs)
    assert f"6 of 6 runs had clamped ticks only, {total} in all" in warnings[0].getMessage()


def test_scenario_vehicle_mismatch_raises():
    # refused at load, so gen-data and train refuse it too
    for vehicle, kind in (("tracked", "ackermann-circle"), ("ackermann", "velocity-random"),
                          ("ackermann", "figure8")):
        with pytest.raises(ConfigError, match=rf"scenario\.kind {kind} requires vehicle\.type"):
            config_from_dict(base_raw(**{"vehicle.type": vehicle, "scenario.kind": kind}))


def test_ackermann_scenario_rejects_fault():
    # a track fault has no meaning for the car: refuse it instead of ignoring it
    raw = base_raw(**{"vehicle.type": "ackermann"},
                   scenario={"kind": "ackermann-circle", "runs": 1,
                             "fault": {"kind": "track-square", "scale": 0.0}})
    with pytest.raises(ConfigError, match="^scenario: .*fault"):
        config_from_dict(raw)


def test_circle_speed_at_or_below_v_min_is_refused(tmp_path, capsys):
    """The car holds the circle speed, and its lateral law and slip angles
    are undefined at or below v_min: simulate and evaluate refuse the pair
    before any output (every run used to abort at t = 0 with exit 0)."""
    out = tmp_path / "c"
    raw = base_raw(out_dir=out, **{"vehicle.type": "ackermann"},
                   scenario={"kind": "ackermann-circle", "duration_s": 2.0,
                             "runs": 1, "circle_radius": 1.5, "circle_speed": 1.0})
    for v_min in (1.5, 1.0):
        raw["vehicle"]["ackermann"] = {"v_min": v_min}
        cfg_path = write_cfg(tmp_path, raw)
        for cmd in (["simulate", "--variant", "pd"], ["evaluate", "--variants", "pd"]):
            assert cli.main([cmd[0], "-c", cfg_path, *cmd[1:]]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert err["message"].startswith("scenario.circle_speed 1.0 must lie above "
                                             f"vehicle.ackermann.v_min={v_min}")
            assert os.listdir(out) == []
    raw["vehicle"]["ackermann"] = {"v_min": 0.9}
    assert cli.main(["simulate", "-c", write_cfg(tmp_path, raw), "--variant", "pd"]) == 0
    assert (out / "runs.csv").exists()


def test_ackermann_circle_scenario_runs(tmp_path):
    raw = base_raw(**{"vehicle.type": "ackermann"},
                   scenario={"kind": "ackermann-circle", "duration_s": 4.0,
                             "runs": 1, "circle_radius": 1.5,
                             "circle_speed": 1.0})
    raw["controller"]["adaptation"]["q_diag"] = [0.05, 0.05]
    cfg = config_from_dict(raw)
    summary = run_scenario(cfg, ["constant"], str(tmp_path))
    assert summary["variants"]["constant"]["aborted"] == 0
    cols, _ = read_csv(tmp_path / "telemetry" / "constant_run000.csv")
    assert "e_perp" in cols and "s_perp" in cols and "theta_1" in cols


@pytest.mark.parametrize("variant", ["pd", "constant"])
def test_ackermann_from_rest_reaches_the_circle(tmp_path, variant):
    """The shipped circle scenario, with the car started at rest: it drives
    off holding its steering while it has no lateral authority, counts those
    ticks as fallbacks, and ends the run on the circle."""
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                   "ackermann_circle.yaml"))
    world = build_world_for(cfg)
    policy = harness._policy_for_run(cfg, world, np.random.default_rng(1))
    start = dataclasses.replace(policy.start_pose(np.random.default_rng(2)),
                                v_x=0.0, v_y=0.0, omega=0.0)
    provider = FeatureProvider(world, cfg.provider.noise_std, cfg.provider.brightness, seed=3)
    res, rows, cols = harness.simulate_episode(
        world, cfg, build_controller(cfg, variant, str(tmp_path)), policy, provider,
        np.random.default_rng(4), start, cfg.scenario.duration_s)
    col = {c: i for i, c in enumerate(cols)}
    assert not res["aborted"] and res["ticks"] == 400
    held = [row[col["fallback"]] for row in rows if row[col["v_x"]] <= cfg.vehicle.ackermann.v_min]
    assert rows[0][col["u_delta"]] == 0.0 and held and all(held)
    assert res["fallback_ticks"] >= len(held)
    assert abs(rows[-1][col["e_perp"]]) < 0.05


# -------------------------------------------------------------- episodes

# the last three replace the command from the fifth tick on: a finite one the
# plant cannot integrate, one that drives the speed past the abort bound, NaN
EPISODE_CASES = {"velocity-random": None, "figure8-fault-matrix": None, "car-from-rest": None,
                 "plant-diverges": 1e308, "speed-bound": 1e3, "non-finite-command": math.nan}
EPISODE_ABORT = {"plant-diverges": "plant diverged", "speed-bound": "left the trust region",
                 "non-finite-command": "plant diverged"}


def _episode_setup(case, tmp_path):
    """(cfg, world, policy, start, controller factory) of one episode case."""
    if case == "car-from-rest":
        cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                       "ackermann_circle.yaml"))
    elif case == "figure8-fault-matrix":
        raw = base_raw(out_dir=tmp_path, scenario={
            "kind": "figure8", "duration_s": 6.0, "runs": 1, "fig8_amp_x": 1.5,
            "fig8_amp_y": 0.8, "fig8_period_s": 8.0,
            "fault": {"kind": "track-square", "period_s": 1.0, "scale": 0.3}})
        raw["controller"]["adaptation"]["law"] = "matrix"
        cfg = config_from_dict(raw)
    else:
        # feature noise, and a turn-back margin narrow enough for the contact
        # patches to leave the map; the diverging plant takes one substep per
        # tick, so only the check on the plant's result can see it
        cfg = config_from_dict(base_raw(out_dir=tmp_path, **{
            "provider.noise_std": 0.05, "scenario.start_margin_frac": 0.02,
            "scenario.duration_s": 8.0,
            "sim.dt_plant": 0.05 if case == "plant-diverges" else 0.01}))
    world = build_world_for(cfg)
    policy = harness._policy_for_run(cfg, world, np.random.default_rng(1))
    start = policy.start_pose(np.random.default_rng(2))
    if case == "car-from-rest":
        start = dataclasses.replace(start, v_x=0.0, v_y=0.0, omega=0.0)

    def controller():
        ctl = build_controller(cfg, "constant", str(tmp_path))
        u_v = EPISODE_CASES[case]
        if u_v is not None:
            tick, count = ctl.tick_velocity, []

            def replaced(*args):
                u, tele = tick(*args)
                count.append(1)
                return (dataclasses.replace(u, u_v=u_v) if len(count) >= 5 else u), tele
            ctl.tick_velocity = replaced
        return ctl
    return cfg, world, policy, start, controller


def _bits(rows):
    return np.array(rows, dtype=float).view(np.int64)


@pytest.mark.parametrize("case", list(EPISODE_CASES))
def test_episode_equals_per_tick_loop(tmp_path, caplog, case):
    """The float episode loop gives the RunResult fields and telemetry rows
    of the per-tick state-object loop, bit for bit and type for type, on
    every way a run can go: noisy features at the map border, a fault on the
    matrix law, the car from rest through v_min, and each abort."""
    cfg, world, policy, start, controller = _episode_setup(case, tmp_path)
    sc = cfg.scenario

    def run(loop, **kwargs):
        caplog.clear()
        provider = FeatureProvider(world, cfg.provider.noise_std, cfg.provider.brightness,
                                   seed=3)
        out = loop(world, cfg, controller(), policy, provider, np.random.default_rng(4),
                   start, sc.duration_s, sc.fault, **kwargs)
        # the per-tick warnings: what ended the run, and when
        return out, [r.getMessage() for r in caplog.records if " at t=" in r.getMessage()]

    (want, want_rows, want_cols), want_log = run(per_tick_episode)
    (got, rows, cols), got_log = run(harness.simulate_episode)
    assert cols == want_cols
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert type(got[key]) is type(value), key
        np.testing.assert_array_equal(got[key], value, err_msg=key)
    assert len(rows) == got["ticks"] == len(want_rows)
    np.testing.assert_array_equal(_bits(rows), _bits(want_rows))
    assert [list(map(type, r)) for r in rows] == [list(map(type, r)) for r in want_rows]
    assert got_log == want_log
    abort = EPISODE_ABORT.get(case)
    assert got["aborted"] == (abort is not None)
    if abort is not None:
        assert got["ticks"] == 5 and len(got_log) == 1 and abort in got_log[0]
    if abort is None:
        # a numpy scalar prints as a float in the CSV, so only its type shows it
        assert all(type(v) is float for r in rows for v in r if isinstance(v, float))
    if case == "velocity-random":
        assert got["feature_clamps"] > 0
    if case == "car-from-rest":
        col = {c: i for i, c in enumerate(cols)}
        assert rows[0][col["v_x"]] == 0.0 and any(r[col["v_x"]] > 0.1 for r in rows)
    # telemetry off: the same result, no rows
    (quiet, quiet_rows, _), _ = run(harness.simulate_episode, telemetry=False)
    assert quiet_rows == []
    for key, value in got.items():
        np.testing.assert_array_equal(quiet[key], value, err_msg=key)


def test_episode_refuses_a_bad_start(tmp_path):
    """The start state is checked where it enters, before the first tick:
    a non-finite field and the other vehicle's state are refused."""
    cfg, world, policy, start, controller = _episode_setup("velocity-random", tmp_path)
    provider = FeatureProvider(world, 0.0, 1.0, seed=3)
    bad = {NonFiniteError: dataclasses.replace(start, v_x=math.inf),
           TypeError: AckermannState(start.p_x, start.p_y, start.psi, 0.0, 0.0, 0.0)}
    for error, state in bad.items():
        ctl = controller()
        ticks = []
        ctl.tick_velocity = lambda *args: ticks.append(args)
        with pytest.raises(error):
            harness.simulate_episode(world, cfg, ctl, policy, provider,
                                     np.random.default_rng(4), state, 1.0)
        assert ticks == []


def test_telemetry_off_changes_no_result(tmp_path):
    """scenario.telemetry false writes the runs.csv and summary.json bytes
    of telemetry on, and no telemetry directory."""
    outs = {}
    for on in (True, False):
        raw = base_raw(out_dir=tmp_path, **{"scenario.telemetry": on,
                                            "provider.noise_std": 0.05})
        outs[on] = tmp_path / f"telemetry_{on}"
        run_scenario(config_from_dict(raw), ["pd", "constant"], str(outs[on]))
    assert (outs[True] / "telemetry").is_dir()
    assert not (outs[False] / "telemetry").exists()
    for name in ("runs.csv", "summary.json"):
        assert (outs[True] / name).read_bytes() == (outs[False] / name).read_bytes(), name


def test_only_a_network_basis_gathers_features(tmp_path, monkeypatch):
    """pd has no basis and the constant basis ignores its features, so their
    episodes gather none; dnn gathers once per tick. Skipping the gathers
    moves no output: episodes that leave the map write the runs.csv and
    summary.json of gathering on every tick, feature_clamps included."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)       # count in this process
    cfg = config_from_dict(base_raw(**{
        "provider.noise_std": 0.05, "scenario.start_margin_frac": 0.02,
        "scenario.duration_s": 8.0, "scenario.telemetry": False}))
    variants = ["pd", "constant", "dnn"]
    gathers = []
    gather = FeatureProvider.features_under_robot

    def counting(self, *args):
        gathers[-1] += 1
        return gather(self, *args)

    monkeypatch.setattr(FeatureProvider, "features_under_robot", counting)
    out = tmp_path / "counted"
    out.mkdir()
    BasisNet.init(2, 4, 2, 2, 4, hidden=(8,), rng=0).save(
        out / "basis.tdc", extra_meta={"theta_r": [0.1, 0.2, 0.3, 0.4]})
    ticks = []
    for v in variants:
        gathers.append(0)
        run_scenario(cfg, [v], str(out))
        cols, rows = read_csv(out / "runs.csv")
        ticks.append(sum(int(r[cols.index("ticks")]) for r in rows))
    assert gathers == [0, 0, ticks[2]] and ticks[2] > 0

    outs = {}
    for every_tick in (False, True):
        outs[every_tick] = tmp_path / f"every_tick_{every_tick}"
        outs[every_tick].mkdir()
        (outs[every_tick] / "basis.tdc").write_bytes((out / "basis.tdc").read_bytes())
        with monkeypatch.context() as m:
            if every_tick:
                m.setattr(harness, "BasisNet", object)   # every basis, and None, gathers
            run_scenario(cfg, variants, str(outs[every_tick]))
    cols, rows = read_csv(outs[False] / "runs.csv")
    clamps = dict.fromkeys(variants, 0)
    for r in rows:
        clamps[r[cols.index("variant")]] += int(r[cols.index("feature_clamps")])
    assert clamps["pd"] > 0 and clamps["constant"] > 0
    for name in ("runs.csv", "summary.json"):
        assert (outs[False] / name).read_bytes() == (outs[True] / name).read_bytes(), name


# ------------------------------------------------------------ worker processes

def no_fork():
    raise AssertionError("forked with one usable CPU")


def on_cpus(monkeypatch, n_cpus, call):
    """call() with n_cpus usable CPUs, or with no os.sched_getaffinity when
    None; it must not fork unless n_cpus > 1, and must leave no child."""
    with monkeypatch.context() as m:
        if n_cpus is None:
            m.delattr(os, "sched_getaffinity")
        else:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        if not n_cpus or n_cpus == 1:
            m.setattr(os, "fork", no_fork)
        try:
            return call()
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)


def file_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def scenario_case(case):
    if case == "ackermann":
        raw = base_raw(**{"vehicle.type": "ackermann"},
                       scenario={"kind": "ackermann-circle", "duration_s": 2.0, "runs": 3,
                                 "circle_radius": 1.5, "circle_speed": 1.0})
        raw["controller"]["adaptation"]["q_diag"] = [0.05, 0.05]
        return config_from_dict(raw)
    raw = base_raw(**{"scenario.runs": 3, "scenario.duration_s": 2.0,
                      "scenario.fault": {"kind": "track-square", "period_s": 1.0,
                                         "scale": 0.3, "track": "right"}})
    cfg = config_from_dict(raw)
    if case == "aborted":
        # every run leaves the trust region, run 2 a tick before the others
        cfg.vehicle.tracked = TrackedParams(tau_v=0.003, tau_omega=0.003)
    return cfg


@pytest.mark.parametrize("case", ["tracked", "aborted", "ackermann"])
def test_scenario_on_two_workers_equals_one_process(tmp_path, monkeypatch, caplog, case):
    """Two worker processes write the bytes of one process, telemetry
    included, and the log records arrive in the same order."""
    cfg = scenario_case(case)
    trees, logs = {}, {}
    for n_cpus in (1, 2):
        out = tmp_path / f"cpus{n_cpus}"
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="terradapt"):
            on_cpus(monkeypatch, n_cpus, lambda: run_scenario(cfg, ["pd", "constant"], str(out)))
        trees[n_cpus] = file_bytes(out)
        logs[n_cpus] = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    assert sorted(trees[1]) == ["run_info.json", "runs.csv", "summary.json",
                                *(f"telemetry/{v}_run{r:03d}.csv"
                                  for v in ("constant", "pd") for r in range(3))]
    assert trees[2] == trees[1]
    assert logs[2] == logs[1]
    aborts = [m for _, level, m in logs[1] if level == logging.WARNING and "trust" in m]
    assert len(aborts) == (6 if case == "aborted" else 0)


@pytest.mark.parametrize("vehicle", ["tracked", "ackermann"])
def test_dataset_on_two_workers_equals_one_process(monkeypatch, vehicle):
    cfg = config_from_dict(base_raw(**{"vehicle.type": vehicle, "dataset.n_traj": 3,
                                       "scenario.kind": SCENARIO_OF[vehicle]}))
    world = build_world_for(cfg)
    one, two, no_affinity = (on_cpus(monkeypatch, n, lambda: generate_dataset(cfg, world))
                             for n in (1, 2, None))
    for name in ("x", "u", "e", "y"):
        want = getattr(one, name)
        assert want.shape[0] == 3
        for ds in (two, no_affinity):
            got = getattr(ds, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                            want.tobytes()), name


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its one stored arg is not two."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def fail_in_run(monkeypatch, how, bad_run=2):
    """simulate_episode logs its run index and, in bad_run, fails as `how`
    says; only a worker process may exit."""
    real = harness.simulate_episode
    parent = os.getpid()

    def episode(world, cfg, controller, policy, provider, meas_rng, *args):
        run = meas_rng.bit_generator.seed_seq.entropy[2]     # [seed, domain, run]
        harness.log.warning("episode of run %d", run)
        if run == bad_run:
            if how == "raise":
                raise ValueError(f"run {run} failed")
            if how == "unpicklable":
                raise ValueError(lambda: run)
            if how == "unloadable":
                raise TwoArgError(run, "b")
            assert os.getpid() != parent
            os._exit(3)
        return real(world, cfg, controller, policy, provider, meas_rng, *args)

    monkeypatch.setattr(harness, "simulate_episode", episode)
    return config_from_dict(base_raw(**{"scenario.runs": 4, "scenario.duration_s": 1.0}))


def test_first_failing_episode_raises_after_the_records_before_it(tmp_path, monkeypatch,
                                                                  caplog):
    """Worker 0 fails in job 2 while worker 1 runs job 3: the records of
    jobs 0-2 arrive, then job 2's exception, as in one process."""
    cfg = fail_in_run(monkeypatch, "raise")
    logs = {}
    for n_cpus in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="terradapt"), \
                pytest.raises(ValueError, match="^run 2 failed$"):
            on_cpus(monkeypatch, n_cpus,
                    lambda: run_scenario(cfg, ["pd"], str(tmp_path / str(n_cpus))))
        logs[n_cpus] = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    assert logs[2] == logs[1]
    assert logs[2] == [("terradapt.harness", logging.WARNING, f"episode of run {r}")
                       for r in range(3)]


@pytest.mark.parametrize("how, message", [
    ("unpicklable", r"^job 2: ValueError\(<function .* cannot be sent back from its worker"),
    ("unloadable", r"^job 2: TwoArgError\('2 and b'\) cannot be sent back from its worker"),
    ("exit", r"^job 2: its worker process ended with exit code 3 before the job returned$"),
], ids=["unpicklable", "unloadable", "exit"])
def test_worker_failures_name_the_job(tmp_path, monkeypatch, how, message):
    cfg = fail_in_run(monkeypatch, how)
    with pytest.raises(RuntimeError, match=message):
        on_cpus(monkeypatch, 2, lambda: run_scenario(cfg, ["pd"], str(tmp_path)))


def test_cli_reports_a_worker_failure_as_one_json_error(tmp_path, monkeypatch, capsys):
    """A worker that ends before its job returns is a runtime error: exit
    1 and one JSON object on stderr, not a traceback."""
    fail_in_run(monkeypatch, "exit")
    raw = base_raw(out_dir=tmp_path / "out",
                   **{"scenario.runs": 4, "scenario.duration_s": 1.0})
    argv = ["evaluate", "-c", write_cfg(tmp_path, raw), "--variants", "pd"]
    assert on_cpus(monkeypatch, 2, lambda: cli.main(argv)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RuntimeError"
    assert err["message"].startswith("job 2: its worker process ended with exit code 3")


def busy_children(monkeypatch, in_parent):
    """simulate_episode sleeps a minute in a child process and calls
    in_parent in this one."""
    parent = os.getpid()
    real = harness.simulate_episode

    def episode(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return in_parent(real, *args)

    monkeypatch.setattr(harness, "simulate_episode", episode)
    return config_from_dict(base_raw(**{"scenario.runs": 4, "scenario.duration_s": 1.0}))


def test_interrupt_while_reading_kills_and_reaps_the_workers(tmp_path, monkeypatch):
    """An interrupt stops workers that are still busy, and reaps them: this
    process has run its own episodes and is taking in the children's."""
    def interrupted(*args):
        raise KeyboardInterrupt

    cfg = busy_children(monkeypatch, lambda real, *args: real(*args))
    monkeypatch.setattr(workers, "_receive", interrupted)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        on_cpus(monkeypatch, 2, lambda: run_scenario(cfg, ["pd"], str(tmp_path)))
    assert time.monotonic() - began < 30


def test_interrupt_in_the_parents_own_jobs_kills_and_reaps_the_workers(tmp_path,
                                                                       monkeypatch):
    """An interrupt in one of this process's own episodes stops the busy
    children too."""
    def interrupted(real, *args):
        raise KeyboardInterrupt

    cfg = busy_children(monkeypatch, interrupted)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        on_cpus(monkeypatch, 2, lambda: run_scenario(cfg, ["pd"], str(tmp_path)))
    assert time.monotonic() - began < 30


def test_run_info_sidecar_has_no_absolute_paths(tmp_path):
    cfg = config_from_dict(base_raw(**{"scenario.runs": 1}))
    run_scenario(cfg, ["pd"], str(tmp_path))
    text = (tmp_path / "run_info.json").read_text()
    info = json.loads(text)
    assert info["variants"] == ["pd"]
    assert str(tmp_path) not in text


# ------------------------------------------------------------- controllers


def test_build_controllers_from_config(tmp_path):
    cfg = config_from_dict(base_raw(out_dir=tmp_path))
    pd = build_controller(cfg, "pd", str(tmp_path))
    assert pd.basis is None and pd.state is None and not pd.adapt
    const = build_controller(cfg, "constant", str(tmp_path))
    assert isinstance(const.basis, ConstantBasis) and const.adapt
    frozen = build_controller(cfg, "constant-frozen", str(tmp_path))
    assert not frozen.adapt
    net = BasisNet.init(2, 4, 2, 2, 4, hidden=(8,), rng=0)
    net.save(os.path.join(tmp_path, "basis.tdc"),
             extra_meta={"theta_r": [0.1, 0.2, 0.3, 0.4]})
    dnn = build_controller(cfg, "dnn", str(tmp_path))
    assert isinstance(dnn.basis, BasisNet)
    np.testing.assert_allclose(dnn.state.theta_hat, [0.1, 0.2, 0.3, 0.4])


def test_run_scenario_reads_checkpoint_once(tmp_path, monkeypatch):
    from terradapt import harness
    cfg = config_from_dict(base_raw(out_dir=tmp_path))
    BasisNet.init(2, 4, 2, 2, 4, hidden=(8,), rng=0).save(
        os.path.join(tmp_path, "basis.tdc"), extra_meta={"theta_r": [0.1, 0.2, 0.3, 0.4]})
    reads, bases = [], []
    load = harness.load_checkpoint
    build = harness.build_controller
    monkeypatch.setattr(harness, "load_checkpoint", lambda p: reads.append(p) or load(p))

    def recording_build(*args, **kwargs):
        ctl = build(*args, **kwargs)
        bases.append(ctl.basis)
        return ctl

    monkeypatch.setattr(harness, "build_controller", recording_build)
    summary = run_scenario(cfg, ["dnn", "dnn-frozen"], str(tmp_path))
    assert len(reads) == 1
    # one controller per variant, reused by both runs
    assert len(bases) == 2 and all(b is bases[0] for b in bases)
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written == json.loads(json.dumps(summary))


@pytest.mark.parametrize("vehicle, law", [("tracked", "scalar"), ("tracked", "matrix"),
                                          ("ackermann", "scalar"), ("ackermann", "matrix")])
def test_reused_controller_matches_fresh_ones(tmp_path, vehicle, law):
    """Two episodes on one controller give the rows of two fresh controllers:
    reset() restores the fresh theta_hat and gain, not only the filters."""
    raw = base_raw(out_dir=tmp_path, **{"vehicle.type": vehicle,
                                        "scenario.kind": SCENARIO_OF[vehicle]})
    raw["controller"]["adaptation"].update(law=law, q_diag=[0.05])
    cfg = config_from_dict(raw)
    world = build_world_for(cfg)

    def episode(controller, r):
        policy = harness._policy_for_run(cfg, world, np.random.default_rng(r))
        start = policy.start_pose(np.random.default_rng(10 + r))
        provider = FeatureProvider(world, 0.01, 1.0, seed=20 + r)
        _, rows, _ = harness.simulate_episode(world, cfg, controller, policy, provider,
                                              np.random.default_rng(30 + r), start, 2.0)
        return np.array(rows, dtype=float)

    reused = build_controller(cfg, "constant", str(tmp_path))
    first = episode(reused, 0)
    assert not np.array_equal(reused.state.theta_hat, reused.state0.theta_hat)  # adapted
    second = episode(reused, 1)
    np.testing.assert_array_equal(first, episode(build_controller(cfg, "constant",
                                                                  str(tmp_path)), 0))
    np.testing.assert_array_equal(second, episode(build_controller(cfg, "constant",
                                                                   str(tmp_path)), 1))


def test_recorded_world_mode(tmp_path):
    from terradapt.world import save_world
    cfg = config_from_dict(base_raw(out_dir=tmp_path))
    world = build_world_for(cfg)
    path = tmp_path / "w.tdc"
    save_world(path, world)
    raw = base_raw(out_dir=tmp_path,
                   provider={"mode": "recorded", "world_file": str(path)})
    cfg2 = config_from_dict(raw)
    loaded = build_world_for(cfg2)
    np.testing.assert_array_equal(loaded.class_grid, world.class_grid)
    np.testing.assert_array_equal(loaded.features, world.features)
    # a recorded provider without its world file is refused at load
    raw_bad = base_raw(out_dir=tmp_path, provider={"mode": "recorded"})
    with pytest.raises(ConfigError, match="^provider: .*world_file"):
        config_from_dict(raw_bad)


def test_recorded_world_eta_width_is_checked_at_load(tmp_path):
    """The plant trusts a looked-up eta, so a recorded world of one eta
    entry per class is refused for the tracked vehicle when it is loaded,
    as a built one is refused at config load; the car reads the first entry."""
    import dataclasses
    from terradapt.world import save_world
    world = build_world_for(config_from_dict(base_raw(out_dir=tmp_path)))
    path = tmp_path / "w1.tdc"
    save_world(path, dataclasses.replace(world, eta_table=world.eta_table[:, :1].copy()))
    recorded = {"mode": "recorded", "world_file": str(path)}
    with pytest.raises(ConfigError, match="^provider.world_file: the tracked vehicle needs two"):
        build_world_for(config_from_dict(base_raw(out_dir=tmp_path, provider=recorded)))
    car = base_raw(out_dir=tmp_path, provider=recorded,
                   **{"vehicle.type": "ackermann", "scenario.kind": "ackermann-circle"})
    assert build_world_for(config_from_dict(car)).eta_table.shape[1] == 1


def test_resolve_path_rules(tmp_path):
    assert resolve_path("/abs/file.tdc", str(tmp_path)) == "/abs/file.tdc"
    existing = tmp_path / "here.tdc"
    existing.write_text("x")
    assert resolve_path(str(existing), "/elsewhere") == str(existing)
    assert resolve_path("rel.tdc", str(tmp_path)) == str(tmp_path / "rel.tdc")


# --------------------------------------------------------------------- CLI


def write_cfg(tmp_path, raw):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_sidecar_of_an_inseparable_world_is_strict_json(tmp_path):
    """Two classes that look alike have no separable pair, so the world's
    min_margin is infinite: dataset_info.json writes it as null, and a
    parser that refuses NaN and Infinity reads the file."""
    out = tmp_path / "out"
    raw = base_raw(out_dir=out, **{"dataset.steps": 20, "dataset.n_traj": 1})
    raw["world"]["classes"] = [{"name": "nominal", "eta": [1.0, 1.0]},
                               {"name": "soft", "eta": [0.72, 0.8],
                                "features_like": "nominal"}]
    assert cli.main(["gen-data", "-c", write_cfg(tmp_path, raw)]) == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    info = json.loads((out / "dataset_info.json").read_text(), parse_constant=refuse)
    assert info["separation"]["min_margin"] is None


def test_train_refuses_a_broken_dataset_header(tmp_path, capsys):
    """A dataset whose header is cut short, or lacks its checksum, exits 1
    as a ContainerError naming the file, not as a bare JSON error or a
    KeyError traceback."""
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, base_raw(out_dir=out))
    assert cli.main(["gen-data", "-c", cfg_path]) == 0
    ds = out / "dataset.tdc"
    raw = ds.read_bytes()
    n = int(raw[5:13])
    header = json.loads(raw[13:13 + n])
    del header["checksum"]
    text = json.dumps(header).encode()
    for broken in (raw[:13 + n // 2], raw[:5] + b"%08d" % len(text) + text + raw[13 + n:]):
        ds.write_bytes(broken)
        capsys.readouterr()
        assert cli.main(["train", "-c", cfg_path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContainerError" and str(ds) in err["message"]


def test_cli_pipeline_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    raw = base_raw(out_dir=out, **{"scenario.runs": 1, "scenario.duration_s": 3.0})
    cfg_path = write_cfg(tmp_path, raw)

    assert cli.main(["gen-data", "-c", cfg_path]) == 0
    assert (out / "dataset.tdc").exists()
    assert (out / "world.tdc").exists()
    info = json.loads((out / "dataset_info.json").read_text())
    assert info["dataset"] == "dataset.tdc"  # basename, not a path
    assert info["n_traj"] == 2

    assert cli.main(["train", "-c", cfg_path]) == 0
    assert (out / "basis.tdc").exists()
    assert (out / "loss_history.csv").exists()
    tinfo = json.loads((out / "train_info.json").read_text())
    assert tinfo["iterations"] == 8
    assert tinfo["lipschitz_bound"] > 0

    capsys.readouterr()
    assert cli.main(["simulate", "-c", cfg_path, "--variant", "pd"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["variants"]["pd"]["runs"] == 1

    capsys.readouterr()
    assert cli.main(["evaluate", "-c", cfg_path, "--variants", "pd", "dnn"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "dnn_vs_pd" in summary["improvements"]
    assert (out / "runs.csv").exists()
    assert (out / "summary.json").exists()


def test_relative_file_names_resolve_inside_out_not_the_cwd(tmp_path, capsys, monkeypatch):
    """Stray files named like the dataset, the checkpoint and the world in
    the working directory are neither read nor overwritten: the outputs land
    in --out, and a recorded world named relatively is read from there."""
    monkeypatch.chdir(tmp_path)
    stray = {"dataset.tdc": b"unrelated dataset bytes", "basis.tdc": b"unrelated basis bytes",
             "world.tdc": b"unrelated world bytes"}
    for name, data in stray.items():
        (tmp_path / name).write_bytes(data)
    raw = base_raw(out_dir=tmp_path / "ignored", **{"scenario.runs": 1})
    cfg_path = write_cfg(tmp_path, raw)
    assert cli.main(["gen-data", "-c", cfg_path, "--out", "out/q"]) == 0
    assert cli.main(["train", "-c", cfg_path, "--out", "out/q"]) == 0
    raw["provider"] = {"mode": "recorded", "world_file": "world.tdc"}
    recorded_path = str(tmp_path / "recorded.yaml")
    with open(recorded_path, "w") as f:
        yaml.safe_dump(raw, f)
    assert cli.main(["simulate", "-c", recorded_path, "--out", "out/q", "--variant", "dnn"]) == 0
    for name, data in stray.items():
        assert (tmp_path / name).read_bytes() == data
        assert (tmp_path / "out" / "q" / name).stat().st_size > 0
    assert not (tmp_path / "ignored").exists()


def test_cli_out_flag_and_env(tmp_path, capsys, monkeypatch):
    raw = base_raw(out_dir=tmp_path / "ignored")
    cfg_path = write_cfg(tmp_path, raw)
    flag_dir = tmp_path / "flagged"
    assert cli.main(["gen-data", "-c", cfg_path, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "dataset.tdc").exists()
    capsys.readouterr()
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("TERRADAPT_OUT", str(env_dir))
    assert cli.main(["gen-data", "-c", cfg_path]) == 0
    assert (env_dir / "dataset.tdc").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_error_exit_codes(tmp_path, capsys):
    # missing config file: configuration error
    assert cli.main(["simulate", "-c", str(tmp_path / "none.yaml")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"

    bad = tmp_path / "bad.yaml"
    bad.write_text("unknown_section: {}\n")
    assert cli.main(["simulate", "-c", str(bad)]) == 2
    capsys.readouterr()

    # training without a dataset: runtime error
    cfg_path = write_cfg(tmp_path, base_raw(out_dir=tmp_path / "empty"))
    assert cli.main(["train", "-c", cfg_path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"

    # dnn variant without a checkpoint
    assert cli.main(["simulate", "-c", cfg_path, "--variant", "dnn"]) == 1
    capsys.readouterr()

    # scenario and vehicle type disagree: refused at load, before any output
    mism = base_raw(out_dir=tmp_path / "m", **{"scenario.kind": "ackermann-circle"})
    assert cli.main(["simulate", "-c", write_cfg(tmp_path, mism), "--variant", "pd"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["message"].startswith("scenario.kind")
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", [["evaluate", "--variants", "pd", "dnn-frozn"],
                                     ["simulate", "--variant", "frozen"],
                                     ["evaluate", "--variants", "pd", "pd"]],
                         ids=["dnn-frozn", "frozen", "pd-pd"])
def test_bad_variant_names_exit_2_before_any_output(tmp_path, capsys, command):
    """Each used to exit 0: an unknown name ran as pd and reported 0 %
    improvement, and a repeated one doubled the variant's runs in the
    summary and wrote each of its telemetry CSVs twice."""
    out = tmp_path / "v"
    cfg_path = write_cfg(tmp_path, base_raw(out_dir=out, **{"scenario.runs": 1}))
    assert cli.main([command[0], "-c", cfg_path, *command[1:]]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["message"].startswith("variants: ")
    assert not out.exists()


def test_q_diag_of_the_wrong_length_exits_2(tmp_path, capsys):
    # three entries against the constant basis' four parameters used to be
    # replaced by (q_diag[0],) * 4 without a word
    raw = base_raw(out_dir=tmp_path / "q", **{"scenario.runs": 1, "scenario.duration_s": 1.0})
    raw["controller"]["adaptation"]["q_diag"] = [0.05, 0.05, 0.05]
    cfg_path = write_cfg(tmp_path, raw)
    assert cli.main(["evaluate", "-c", cfg_path, "--variants", "constant"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "controller.adaptation.q_diag" in err["message"] and "n_theta=4" in err["message"]
    # pd has no basis to adapt, a frozen basis adapts nothing: both still run
    assert cli.main(["evaluate", "-c", cfg_path, "--variants", "pd", "constant-frozen"]) == 0
    capsys.readouterr()
    # one entry stands for every parameter
    raw["controller"]["adaptation"]["q_diag"] = [0.05]
    assert cli.main(["evaluate", "-c", write_cfg(tmp_path, raw), "--variants", "constant"]) == 0


def test_theta0_of_the_wrong_length_exits_2_before_any_run_output(tmp_path, capsys):
    """It used to stop evaluate with exit 1 ("gamma vector must match
    theta_hat length") after the pd runs had written their telemetry."""
    out = tmp_path / "t"
    raw = base_raw(out_dir=out, **{"scenario.runs": 1, "scenario.duration_s": 1.0,
                                   "controller.theta0": [0.0, 0.0, 0.0]})
    cfg_path = write_cfg(tmp_path, raw)
    for variants in (["pd", "constant"], ["constant-frozen"]):
        assert cli.main(["evaluate", "-c", cfg_path, "--variants", *variants]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "controller.theta0 has 3 entries" in err["message"]
        assert "n_theta=4" in err["message"]
        assert os.listdir(out) == []   # the CLI makes the directory, nothing in it
    # pd has no basis to start from
    assert cli.main(["evaluate", "-c", cfg_path, "--variants", "pd"]) == 0


@pytest.mark.parametrize("vehicle", ["tracked", "ackermann"])
@pytest.mark.parametrize("fault", ["feature_dim", "m", "theta_r_length", "theta_r_nan"])
def test_checkpoint_that_does_not_fit_exits_2(tmp_path, capsys, vehicle, fault):
    """A checkpoint is checked where it is loaded. The car used to abort every
    dnn run at tick 0 and exit 0; the tracked vehicle stopped with exit 1."""
    out = tmp_path / "k"
    raw = base_raw(out_dir=out, **{"vehicle.type": vehicle, "scenario.kind": SCENARIO_OF[vehicle],
                                   "scenario.runs": 1, "scenario.duration_s": 1.0})
    raw["controller"]["adaptation"]["q_diag"] = [0.05]
    m = 2 if vehicle == "tracked" else 1
    feature_dim, theta_r = 4, [1.0, 1.0]
    if fault == "feature_dim":
        feature_dim = 3
    elif fault == "m":
        m = 3 - m
    elif fault == "theta_r_length":
        theta_r = [1.0, 1.0, 1.0]
    else:
        theta_r = [1.0, math.nan]
    os.makedirs(out)
    BasisNet.init(2, feature_dim, 2, m, 2, hidden=(8,), rng=0).save(
        out / "basis.tdc", extra_meta={"theta_r": theta_r})
    cfg_path = write_cfg(tmp_path, raw)
    assert cli.main(["evaluate", "-c", cfg_path, "--variants", "pd", "dnn"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("controller.checkpoint basis.tdc: ")
    assert ("theta_r" in err["message"]) == fault.startswith("theta_r")
    assert os.listdir(out) == ["basis.tdc"]
    if fault == "feature_dim":
        return
    # the same checkpoint with the fault mended runs
    m = 2 if vehicle == "tracked" else 1
    BasisNet.init(2, 4, 2, m, 2, hidden=(8,), rng=0).save(out / "basis.tdc",
                                                          extra_meta={"theta_r": [1.0, 1.0]})
    assert cli.main(["evaluate", "-c", cfg_path, "--variants", "pd", "dnn"]) == 0


def test_non_finite_theta0_exits_2(tmp_path, capsys):
    """A NaN theta0 used to load, and every tick of every adapting run fell
    back to the nominal model."""
    raw = base_raw(out_dir=tmp_path / "n", **{"scenario.runs": 1, "scenario.duration_s": 1.0})
    raw["controller"]["theta0"] = [math.nan, 0.0, 0.0, 0.0]
    assert cli.main(["evaluate", "-c", write_cfg(tmp_path, raw), "--variants", "constant"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("controller: theta0 entries must be finite")
    assert not (tmp_path / "n").exists()


def test_module_entry_point_passes_exit_code(tmp_path):
    # `python -m terradapt` must hand main()'s return code to the shell
    r = subprocess.run([sys.executable, "-m", "terradapt", "simulate",
                        "-c", str(tmp_path / "none.yaml")],
                       capture_output=True, text=True)
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"

"""Closed-loop harness: faults, references, datasets, paired scenarios, CLI."""

import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from terradapt import cli, harness
from terradapt.basis import BasisNet, ConstantBasis
from terradapt.config import ConfigError, config_from_dict
from terradapt.control import ResidualFilter
from terradapt.harness import (
    CircleReference,
    FaultSchedule,
    Figure8Reference,
    RandomVelocityReference,
    RunResult,
    build_controller,
    build_world_for,
    compute_metrics,
    generate_dataset,
    metrics_from_telemetry,
    resolve_path,
    run_scenario,
    split_variant,
    summarize_results,
)
from terradapt.serialize import read_csv
from terradapt.training import build_h, solve_theta_star
from terradapt.vehicles import TrackedParams, TrackedState, integrate_step, wrap_angle
from terradapt.world import FeatureProvider, build_world, eta_under_robot


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
    cfg = config_from_dict(base_raw(**{"vehicle.type": vehicle}))
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
    clamp count, so a test can see that off-map queries were covered."""
    ds, sim = cfg.dataset, cfg.sim
    period = sim.control_period
    n_sub = int(round(period / sim.dt_plant))
    warmup = int(round(ds.warmup_s / period))
    vehicle = harness._vehicle(cfg)
    tracked = cfg.vehicle.type == "tracked"
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
            eta = eta_under_robot(world, state.p_x, state.p_y)
            if tracked:
                x, u_vec = np.array([state.v_x, state.omega]), np.array([u.u_v, u.u_omega])
            else:
                x, u_vec = np.array([state.v_y, state.omega]), np.array([u.u_delta])
            xdot = (np.zeros(2) if k == 0 else vehicle.measured(state, u, eta)
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
                eta = eta_under_robot(world, state.p_x, state.p_y)
                state = integrate_step(state, u, vehicle.vp, sim.dt_plant, vehicle.eta(eta))
        trajs.append(rows)
        clamps += provider.clamp_count
    x, u, e, y = (np.array([[row[i] for row in rows] for rows in trajs]) for i in range(4))
    return x, u, e, y, clamps


@pytest.mark.parametrize("vehicle", ["tracked", "ackermann"])
def test_dataset_equals_per_sample_loop(vehicle):
    """Driving first and observing the whole trajectory afterwards logs the
    same bits as observing each sample while driving, with feature and
    measurement noise on and the robot reaching the map border."""
    cfg = config_from_dict(base_raw(**{"vehicle.type": vehicle, "dataset.steps": 300,
                                       "dataset.margin_frac": 0.02,
                                       "provider.noise_std": 0.05}))
    world = build_world_for(cfg)
    ds = generate_dataset(cfg, world)
    x, u, e, y, clamps = per_sample_dataset(cfg, world)
    assert clamps > 0
    for name, want in zip("xuey", (x, u, e, y)):
        np.testing.assert_array_equal(getattr(ds, name), want, err_msg=name)


def test_ackermann_cruise_range_at_or_below_v_min_refused(tmp_path, capsys):
    """Such a range used to stop gen-data mid-trajectory with exit 1 and a
    SlipUndefinedError; it is refused before driving, as a config error. A
    scenario-only config with the same vehicle stays valid."""
    for cruise in ([0.05, 0.5], [0.1, 0.5]):
        raw = base_raw(tmp_path, **{"vehicle.type": "ackermann",
                                    "dataset.cruise_range": cruise})
        cfg = config_from_dict(raw)
        with pytest.raises(ConfigError, match="dataset.cruise_range"):
            generate_dataset(cfg, build_world_for(cfg))
        path = tmp_path / "slow.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["gen-data", "-c", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "dataset.cruise_range" in err["message"]
    raw = base_raw(**{"vehicle.type": "ackermann", "dataset.cruise_range": [0.11, 0.5],
                      "dataset.steps": 20, "dataset.n_traj": 1})
    cfg = config_from_dict(raw)
    assert generate_dataset(cfg, build_world_for(cfg)).x.shape == (1, 20, 2)


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
    # time constants far below the integrator step: the plant blows up
    raw["vehicle"] = {"tracked": {"tau_v": 0.003, "tau_omega": 0.003}}
    cfg = config_from_dict(raw)
    summary = run_scenario(cfg, ["pd"], str(tmp_path))
    assert summary["variants"]["pd"]["aborted"] == 1
    assert summary["variants"]["pd"]["velocity_rmse"] is None
    cols, rows = read_csv(tmp_path / "runs.csv")
    idx = {c: i for i, c in enumerate(cols)}
    assert rows[0][idx["aborted"]] == "1"
    assert int(rows[0][idx["ticks"]]) < 80


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


def test_scenario_vehicle_mismatch_raises(tmp_path):
    cfg = config_from_dict(base_raw(**{"scenario.kind": "ackermann-circle"}))
    with pytest.raises(ValueError, match="ackermann"):
        run_scenario(cfg, ["pd"], str(tmp_path))


def test_ackermann_scenario_rejects_fault(tmp_path):
    # a track fault has no meaning for the car: refuse it instead of ignoring it
    raw = base_raw(**{"vehicle.type": "ackermann"},
                   scenario={"kind": "ackermann-circle", "runs": 1,
                             "fault": {"kind": "track-square", "scale": 0.0}})
    with pytest.raises(ValueError, match="fault"):
        run_scenario(config_from_dict(raw), ["pd"], str(tmp_path))


def test_ackermann_controller_error_aborts_the_run(tmp_path):
    # the lateral law raises ValueError below v_min; for the car that aborts
    # the run (tracked runs abort only on NonFiniteError and LinAlgError)
    raw = base_raw(**{"vehicle.type": "ackermann"},
                   scenario={"kind": "ackermann-circle", "duration_s": 2.0,
                             "runs": 1, "circle_radius": 1.5,
                             "circle_speed": 1.0})
    raw["vehicle"]["ackermann"] = {"v_min": 1.5}
    summary = run_scenario(config_from_dict(raw), ["pd"], str(tmp_path))
    assert summary["variants"]["pd"]["aborted"] == 1
    cols, rows = read_csv(tmp_path / "runs.csv")
    idx = {c: i for i, c in enumerate(cols)}
    assert rows[0][idx["aborted"]] == "1"
    assert int(rows[0][idx["ticks"]]) == 0


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
    assert len(bases) == 4 and all(b is bases[0] for b in bases)
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written == json.loads(json.dumps(summary))


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
    raw_bad = base_raw(out_dir=tmp_path, provider={"mode": "recorded"})
    with pytest.raises(ValueError, match="world_file"):
        build_world_for(config_from_dict(raw_bad))


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

    # scenario and vehicle type disagree
    mism = base_raw(out_dir=tmp_path / "m", **{"scenario.kind": "ackermann-circle"})
    assert cli.main(["simulate", "-c", write_cfg(tmp_path, mism), "--variant", "pd"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_module_entry_point_passes_exit_code(tmp_path):
    # `python -m terradapt` must hand main()'s return code to the shell
    r = subprocess.run([sys.executable, "-m", "terradapt", "simulate",
                        "-c", str(tmp_path / "none.yaml")],
                       capture_output=True, text=True)
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"

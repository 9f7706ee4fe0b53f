"""Acceptance gate: ten end-to-end checks over the full pipeline.

Each check prints one PASS/FAIL line with its measured margin so the verdicts
are visible under plain `pytest -v`. The expensive artifacts (world, dataset,
trained basis, in-distribution evaluation) are built once and shared; every
check is seeded and therefore reproduces the same numbers on every run.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml

from oracles import (derivative, gradcheck_meta, lyapunov_value, plant_step, solve_theta_star,
                     window_cost, window_cost_and_grad)
from terradapt.basis import BasisNet, ConstantBasis
from terradapt.config import config_from_dict
from terradapt.control import AdaptParams, Gains, TrackedController
from terradapt.harness import build_world_for, generate_dataset, run_scenario
from terradapt.training import TrainerConfig, TrajectoryDataset, WindowSpec, build_h, train
from terradapt.vehicles import TrackedParams, TrackedState

CLASSES = [
    {"name": "nominal", "eta": [1.0, 1.0]},
    {"name": "grass", "eta": [0.78, 0.84]},
    {"name": "ice", "eta": [0.55, 0.62]},
]
# trap looks exactly like nominal but slips like ice
TWIN_CLASSES = CLASSES + [
    {"name": "trap", "eta": [0.55, 0.62], "features_like": "nominal"},
]
# gains sized for stable explicit integration of the update law at 20 Hz
ADAPT = {"law": "scalar", "lam": 0.01, "r_diag": [1.0, 1.0],
         "q_diag": [0.1, 0.1, 0.1, 0.1], "gamma0": 0.1, "gamma_max": 0.3}
SCENARIO = {"kind": "velocity-random", "duration_s": 30.0, "runs": 40,
            "v_range": [0.6, 1.1], "omega_range": [-0.7, 0.7],
            "hold_range_s": [3.0, 6.0], "telemetry": False}
DATASET = {"steps": 6000, "n_traj": 2, "warmup_s": 1.0, "hold_range_s": [0.5, 2.0]}
TRAINING = {"learning_rate": 5e-3, "theta_r": [1.0, 1.0, 1.0, 1.0],
            "lambda_r": 100.0, "window_min_s": 1.2, "window_max_s": 4.0,
            "batch_windows": 32, "n_theta": 4, "hidden": [24, 24],
            "max_iters": 1500, "conv_tol": 0.0, "seed": 0}
THETA_R = [1.0, 1.0, 1.0, 1.0]


def base_raw():
    return {
        "seed": 0,
        "world": {"layout": "blocks", "classes": [dict(c) for c in CLASSES]},
        "provider": {"noise_std": 0.02},
        "sim": {"vdot_noise_std": 0.05},
        "dataset": dict(DATASET),
        "training": dict(TRAINING),
    }


def scenario_raw(checkpoint, classes=None, provider=None, scenario=None):
    raw = base_raw()
    if classes is not None:
        raw["world"]["classes"] = [dict(c) for c in classes]
    if provider is not None:
        raw["provider"] = provider
    raw["controller"] = {"variant": "dnn", "checkpoint": checkpoint,
                         "adaptation": dict(ADAPT)}
    raw["scenario"] = scenario if scenario is not None else dict(SCENARIO)
    return raw


def report(capsys, line):
    with capsys.disabled():
        print(line)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def trained(workdir):
    """World + driving dataset + meta-trained basis, built once, with the
    largest weight norm after every training step's spectral projection."""
    cfg = config_from_dict(base_raw())
    world = build_world_for(cfg)
    dataset = generate_dataset(cfg, world)
    norms = []
    project = BasisNet.spectral_normalize

    def recording(net):
        project(net)
        norms.append(max(net.weight_norms()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BasisNet, "spectral_normalize", recording)
        result = train(dataset, cfg.training)
    ckpt = str(workdir / "basis.tdc")
    result.net.save(ckpt, extra_meta={"theta_r": THETA_R})
    # the first projection is BasisNet.init's, before any step
    return {"cfg": cfg, "world": world, "dataset": dataset,
            "result": result, "step_norms": norms[1:], "checkpoint": ckpt}


@pytest.fixture(scope="module")
def in_dist(trained, workdir):
    """Paired in-distribution evaluation shared by checks 1 and 2."""
    cfg = config_from_dict(scenario_raw(trained["checkpoint"]))
    t0 = time.perf_counter()
    summary = run_scenario(cfg, ["constant", "dnn"], str(workdir / "in_dist"))
    return {"summary": summary, "wall_s": time.perf_counter() - t0}


def test_c1_in_distribution_improvement(trained, in_dist, capsys):
    stats = in_dist["summary"]["variants"]
    con = stats["constant"]["cum_tracking_error"]["median"]
    dnn = stats["dnn"]["cum_tracking_error"]["median"]
    aborted = stats["constant"]["aborted"] + stats["dnn"]["aborted"]
    drop = 100.0 * (con - dnn) / con
    wall = in_dist["wall_s"]
    ok = drop >= 50.0 and wall <= 600.0 and aborted == 0
    report(capsys, f"C1 in-distribution: {'PASS' if ok else 'FAIL'}  "
                   f"median cum tracking error constant {con:.3f} -> dnn {dnn:.3f} "
                   f"(-{drop:.1f}%, bar 50%), 40 paired runs in {wall:.0f}s (bar 600s)")
    assert aborted == 0
    assert drop >= 50.0
    assert wall <= 600.0


def test_c2_feature_shift_robustness(trained, in_dist, workdir, capsys):
    raw = scenario_raw(trained["checkpoint"],
                       provider={"noise_std": 0.04, "brightness": 0.6})
    summary = run_scenario(config_from_dict(raw), ["dnn-frozen", "dnn"],
                           str(workdir / "night"))
    frozen = summary["variants"]["dnn-frozen"]["cum_tracking_error"]["median"]
    night = summary["variants"]["dnn"]["cum_tracking_error"]["median"]
    in_dist_dnn = in_dist["summary"]["variants"]["dnn"]["cum_tracking_error"]["median"]
    ratio = night / in_dist_dnn
    gap = 100.0 * (frozen - night) / frozen
    ok = ratio <= 2.0 and gap >= 30.0
    report(capsys, f"C2 feature shift: {'PASS' if ok else 'FAIL'}  "
                   f"dnn night/in-dist {ratio:.2f}x (bar 2x), "
                   f"adaptation beats frozen by {gap:.1f}% (bar 30%)")
    assert ratio <= 2.0
    assert gap >= 30.0


def test_c3_visual_twin_terrains(trained, workdir, capsys):
    raw = scenario_raw(trained["checkpoint"], classes=TWIN_CLASSES)
    summary = run_scenario(config_from_dict(raw), ["constant", "dnn"],
                           str(workdir / "twins"))
    con = summary["variants"]["constant"]["cum_tracking_error"]["median"]
    dnn = summary["variants"]["dnn"]["cum_tracking_error"]["median"]
    ok = dnn < con
    report(capsys, f"C3 visual twins: {'PASS' if ok else 'FAIL'}  "
                   f"median cum tracking error dnn {dnn:.3f} < constant {con:.3f} "
                   f"(strict, margin {100.0 * (con - dnn) / con:.1f}%)")
    assert dnn < con


def test_c4_track_fault_position_rmse(trained, workdir, capsys):
    scenario = {"kind": "figure8", "duration_s": 40.0, "runs": 12,
                "fault": {"kind": "track-square", "period_s": 3.0,
                          "scale": 0.3, "track": "right", "start_s": 0.0},
                "telemetry": False}
    raw = scenario_raw(trained["checkpoint"], scenario=scenario)
    summary = run_scenario(config_from_dict(raw), ["pd", "constant", "dnn"],
                           str(workdir / "fault"))
    pd_m = summary["variants"]["pd"]["position_rmse"]["median"]
    imps = {}
    for v in ("constant", "dnn"):
        vm = summary["variants"][v]["position_rmse"]["median"]
        imps[v] = 100.0 * (pd_m - vm) / pd_m
    ok = all(i >= 15.0 for i in imps.values())
    report(capsys, f"C4 track fault: {'PASS' if ok else 'FAIL'}  "
                   f"position RMSE vs pd: constant -{imps['constant']:.1f}%, "
                   f"dnn -{imps['dnn']:.1f}% (bar 15% each)")
    assert imps["constant"] >= 15.0
    assert imps["dnn"] >= 15.0


def test_c5_ideal_loop_exponential_convergence(capsys):
    # exactly representable plant mismatch, no noise, fixed adaptation gain
    params = TrackedParams()
    eta = (0.75, 1.25)
    b_n = params.b_n()
    theta_true = np.array([(eta[0] - 1.0) * b_n[0, 0], 0.0, 0.0,
                           (eta[1] - 1.0) * b_n[1, 1]])
    ap = AdaptParams(law="scalar", lam=0.0, r_diag=(0.3, 0.3), q_diag=(0.0,) * 4,
                     gamma0=0.3, gamma_min=1e-4, gamma_max=0.3)
    ctl = TrackedController(params, Gains(), ap,
                            basis=ConstantBasis(2, 2),
                            theta0=(0.0,) * 4, adapt=True,
                            residual_cutoff_hz=2.0, control_period=0.05)
    tp = 2.0 * math.pi

    def ref(t):
        v = 0.9 + 0.21 * math.sin(tp * 0.05 * t) + 0.28 * math.sin(tp * 0.155 * t)
        om = 0.48 * math.sin(tp * 0.07 * t + 4.1) + 0.31 * math.sin(tp * 0.42 * t + 0.75)
        vd = 0.21 * tp * 0.05 * math.cos(tp * 0.05 * t) \
            + 0.28 * tp * 0.155 * math.cos(tp * 0.155 * t)
        omd = 0.48 * tp * 0.07 * math.cos(tp * 0.07 * t + 4.1) \
            + 0.31 * tp * 0.42 * math.cos(tp * 0.42 * t + 0.75)
        return np.array([v, om]), np.array([vd, omd])

    state = TrackedState(0.0, 0.0, 0.0, 0.9, 0.0)
    vdot_meas = np.zeros(2)
    feats = np.zeros(8)
    dt_c, dt_p, T = 0.05, 0.01, 32.0
    ts, vs, rels = [], [], []
    for k in range(int(T / dt_c)):
        t = k * dt_c
        v_ref, vdot_ref = ref(t)
        u, tel = ctl.tick_velocity(state, vdot_meas, feats, v_ref, vdot_ref)
        assert not (tel.fallback or tel.clamped or tel.rejected)
        for _ in range(int(round(dt_c / dt_p))):
            state = plant_step(state, u, params, dt_p, eta=eta)
        vdot_meas = derivative(state, u, params, eta=eta)[3:5]
        s = np.array([state.v_x, state.omega]) - v_ref
        ts.append(t)
        vs.append(lyapunov_value(s, ctl.state.theta_hat, theta_true, ctl.state.gain))
        rels.append(np.linalg.norm(ctl.state.theta_hat - theta_true)
                    / np.linalg.norm(theta_true))
    ts, vs, rels = np.array(ts), np.array(vs), np.array(rels)

    # exponential envelope: straight-line fit of log V above the numeric floor
    mask = (vs > 10.0 * max(vs[-1], 1e-12)) & (ts >= 0.5)
    a = np.vstack([ts[mask], np.ones(int(mask.sum()))]).T
    coef, *_ = np.linalg.lstsq(a, np.log(vs[mask]), rcond=None)
    decay = -coef[0]
    logv = np.log(vs[mask])
    resid = logv - a @ coef
    r2 = 1.0 - np.sum(resid ** 2) / np.sum((logv - logv.mean()) ** 2)
    rel30 = rels[int(30.0 / dt_c) - 1]
    ok = decay > 0.0 and r2 >= 0.9 and rel30 < 0.05
    report(capsys, f"C5 ideal-loop convergence: {'PASS' if ok else 'FAIL'}  "
                   f"V decay {decay:.3f}/s (bar >0), log-V fit R2 {r2:.3f} "
                   f"(bar 0.9), theta err at 30s {100.0 * rel30:.1f}% (bar 5%)")
    assert decay > 0.0
    assert r2 >= 0.9
    assert rel30 < 0.05


def _complex_window_cost(weights, biases, window, lambda_r, theta_r, n_theta):
    """Identity-activation window objective in complex arithmetic.

    Mirrors the production objective but never conjugates, so an imaginary
    parameter perturbation carries the exact derivative (complex step).
    """
    xw, uw, ew, yw = window
    z = np.concatenate([xw, ew], axis=1).astype(complex)
    for w, b in zip(weights, biases):
        z = z @ w.T + b
    phi = z.reshape(z.shape[0], n_theta, yw.shape[1], uw.shape[1])
    h = np.einsum("tinm,tm->tni", phi, uw)
    g = np.einsum("tni,tnj->ij", h, h) + lambda_r * np.eye(n_theta)
    rhs = np.einsum("tni,tn->i", h, yw) + lambda_r * np.asarray(theta_r)
    theta = np.linalg.solve(g, rhs)
    r = np.einsum("tni,i->tn", h, theta) - yw
    return np.sum(r * r)


def test_c6_meta_gradient_matches_oracles(capsys):
    rng = np.random.default_rng(5)
    worst_fd = 0.0
    for _ in range(20):
        sd = int(rng.integers(1, 4))
        fd = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        nt = int(rng.integers(1, 4))
        net = BasisNet.init(sd, fd, n, m, nt, hidden=(int(rng.integers(2, 5)),),
                            activation="tanh", rng=rng)
        windows = [(rng.normal(size=(T, sd)), rng.normal(size=(T, m)),
                    rng.normal(size=(T, fd)), rng.normal(size=(T, n)))
                   for T in rng.integers(3, 9, size=3)]
        worst_fd = max(worst_fd, gradcheck_meta(net, windows, 0.5,
                                                rng.normal(size=nt)))

    rng = np.random.default_rng(17)
    worst_cs = 0.0
    for _ in range(6):
        sd, fd, n, m, nt = 2, 3, 2, 2, 3
        net = BasisNet.init(sd, fd, n, m, nt, hidden=(4,),
                            activation="identity", rng=rng)
        windows = [(rng.normal(size=(T, sd)), rng.normal(size=(T, m)),
                    rng.normal(size=(T, fd)), rng.normal(size=(T, n)))
                   for T in (5, 7)]
        theta_r = rng.normal(size=nt)
        analytic = np.zeros(net.get_flat_params().size)
        for w in windows:
            _, _, grads = window_cost_and_grad(net, w, 0.7, theta_r)
            analytic += net.grads_to_flat(grads)
        flat = net.get_flat_params()
        h = 1e-20
        oracle = np.zeros_like(flat)
        for p in range(flat.size):
            fp = flat.astype(complex)
            fp[p] += 1j * h
            ws, bs, pos = [], [], 0
            for li in range(len(net.weights)):
                w_l, b_l = net.weights[li], net.biases[li]
                ws.append(fp[pos:pos + w_l.size].reshape(w_l.shape))
                pos += w_l.size
                bs.append(fp[pos:pos + b_l.size].reshape(b_l.shape))
                pos += b_l.size
            oracle[p] = sum(_complex_window_cost(ws, bs, w, 0.7, theta_r, nt)
                            for w in windows).imag / h
        denom = np.maximum(np.abs(oracle), 1.0)
        worst_cs = max(worst_cs, float(np.max(np.abs(analytic - oracle) / denom)))

    ok = worst_fd <= 1e-4 and worst_cs <= 1e-8
    report(capsys, f"C6 meta-gradient: {'PASS' if ok else 'FAIL'}  "
                   f"finite differences worst {worst_fd:.2e} (bar 1e-4), "
                   f"complex-step linear case worst {worst_cs:.2e} (bar 1e-8)")
    assert worst_fd <= 1e-4
    assert worst_cs <= 1e-8


def test_c7_ridge_solver_matches_normal_equations(capsys):
    rng = np.random.default_rng(29)
    worst_theta = worst_cost = 0.0
    for _ in range(100):
        big_t = int(rng.integers(5, 61))
        n = int(rng.integers(1, 4))
        nt = int(rng.integers(1, 7))
        lam = float(rng.uniform(0.05, 10.0))
        h = rng.normal(size=(big_t, n, nt))
        y = rng.normal(size=(big_t, n))
        theta_r = rng.normal(size=nt)
        theta, cost = solve_theta_star(h, y, lam, theta_r)

        # dense restatement with plain loops
        g = lam * np.eye(nt)
        rhs = lam * theta_r.copy()
        for t in range(big_t):
            g += h[t].T @ h[t]
            rhs += h[t].T @ y[t]
        theta_o = np.linalg.solve(g, rhs)
        cost_o = 0.0
        for t in range(big_t):
            r = h[t] @ theta_o - y[t]
            cost_o += float(r @ r)
        worst_theta = max(worst_theta,
                          float(np.max(np.abs(theta - theta_o)))
                          / max(1.0, float(np.max(np.abs(theta_o)))))
        worst_cost = max(worst_cost, abs(cost - cost_o) / max(1.0, cost_o))
    ok = worst_theta <= 1e-8 and worst_cost <= 1e-8
    report(capsys, f"C7 ridge solver: {'PASS' if ok else 'FAIL'}  "
                   f"100 windows, worst theta err {worst_theta:.2e}, "
                   f"worst cost err {worst_cost:.2e} (bar 1e-8)")
    assert worst_theta <= 1e-8
    assert worst_cost <= 1e-8


def test_c8_spectral_constraint_and_lipschitz(trained, capsys):
    norms = np.array(trained["step_norms"])
    net = trained["result"].net

    rng = np.random.default_rng(41)
    n_pairs = 10_000
    x1 = rng.uniform(-2.0, 2.0, size=(n_pairs, 2))
    x2 = rng.uniform(-2.0, 2.0, size=(n_pairs, 2))
    e1 = rng.normal(0.0, 2.0, size=(n_pairs, 8))
    e2 = rng.normal(0.0, 2.0, size=(n_pairs, 8))
    out1 = net.forward_batch(x1, e1).reshape(n_pairs, -1)
    out2 = net.forward_batch(x2, e2).reshape(n_pairs, -1)
    din = np.linalg.norm(np.hstack([x1 - x2, e1 - e2]), axis=1)
    dout = np.linalg.norm(out1 - out2, axis=1)
    ratios = dout / din
    ok = norms.max() <= 1.0 + 1e-6 and ratios.max() <= 1.0 + 1e-5
    report(capsys, f"C8 spectral constraint: {'PASS' if ok else 'FAIL'}  "
                   f"max weight norm over {len(norms)} steps {norms.max():.8f} "
                   f"(bar 1+1e-6), empirical ratio over {n_pairs} pairs "
                   f"{ratios.max():.6f} (bar 1+1e-5)")
    assert len(norms) == trained["result"].iterations
    assert norms.max() <= 1.0 + 1e-6
    assert ratios.max() <= 1.0 + 1e-5


def test_c9_planted_basis_recovery(capsys):
    rng = np.random.default_rng(11)
    planted = BasisNet.init(2, 8, 2, 2, 4, hidden=(8, 8), rng=rng)
    theta_r = np.ones(4)

    def gen(n_traj, length, spread=0.5, sigma=0.02):
        x = rng.uniform(-1.5, 1.5, size=(n_traj, length, 2))
        e = rng.normal(0.0, 1.5, size=(n_traj, length, 8))
        u = rng.uniform(-1.5, 1.5, size=(n_traj, length, 2))
        y = np.zeros((n_traj, length, 2))
        for j in range(n_traj):
            th = theta_r + spread * rng.normal(size=4)
            h = build_h(planted.forward_batch(x[j], e[j]), u[j])
            y[j] = np.einsum("tni,i->tn", h, th) \
                + sigma * rng.normal(size=(length, 2))
        return TrajectoryDataset(x, u, e, y, 0.05)

    ds = gen(6, 400)
    held = gen(3, 400)
    tc = TrainerConfig(learning_rate=5e-3, theta_r=tuple(theta_r), lambda_r=1.0,
                       window_min_s=1.0, window_max_s=5.0, batch_windows=32,
                       n_theta=4, hidden=(16, 16), max_iters=1500,
                       conv_tol=0.0, seed=0)
    result = train(ds, tc)

    wrng = np.random.default_rng(123)
    cost_t = cost_p = 0.0
    for _ in range(40):
        traj = int(wrng.integers(held.n_traj))
        length = int(wrng.integers(40, 101))
        start = int(wrng.integers(held.length - length + 1))
        w = WindowSpec(traj, start, length).slice(held)
        cost_t += window_cost(result.net, w, 1.0, theta_r)[0]
        cost_p += window_cost(planted, w, 1.0, theta_r)[0]
    ratio = cost_t / cost_p
    ok = ratio <= 2.0 and result.iterations <= 1500
    report(capsys, f"C9 planted recovery: {'PASS' if ok else 'FAIL'}  "
                   f"held-out cost trained/planted {ratio:.2f}x (bar 2x) "
                   f"after {result.iterations} iterations (budget 1500)")
    assert result.iterations <= 1500
    assert ratio <= 2.0


def _run_cli_pipeline(cfg_path, out_dir):
    env = {k: v for k, v in os.environ.items() if k != "TERRADAPT_OUT"}
    def cli(*args):
        r = subprocess.run([sys.executable, "-m", "terradapt", *args,
                            "-c", cfg_path, "--out", out_dir],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, f"{args}: {r.stderr}"
    cli("gen-data")
    cli("train")
    cli("simulate", "--variant", "dnn")
    # keep the simulate outputs before evaluate rewrites the same names
    snap = os.path.join(out_dir, "simulate_snapshot")
    os.makedirs(snap)
    for name in ("runs.csv", "summary.json", "run_info.json"):
        shutil.copy(os.path.join(out_dir, name), os.path.join(snap, name))
    cli("evaluate", "--variants", "pd", "dnn")


def _tree_files(root):
    rel = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            rel[os.path.relpath(p, root)] = p
    return rel


def test_c10_cli_byte_determinism(workdir, capsys):
    raw = base_raw()
    raw["dataset"].update({"steps": 800, "n_traj": 1})
    raw["training"].update({"max_iters": 40, "hidden": [8, 8]})
    raw["controller"] = {"variant": "dnn", "checkpoint": "basis.tdc",
                         "adaptation": dict(ADAPT)}
    raw["scenario"] = {"kind": "velocity-random", "duration_s": 8.0, "runs": 2,
                       "v_range": [0.6, 1.1], "omega_range": [-0.7, 0.7],
                       "hold_range_s": [3.0, 6.0], "telemetry": True}
    cfg_path = str(workdir / "cli_config.yaml")
    with open(cfg_path, "w") as f:
        yaml.safe_dump(raw, f)

    dirs = [str(workdir / "cli_a"), str(workdir / "cli_b")]
    for d in dirs:
        os.makedirs(d)
        _run_cli_pipeline(cfg_path, d)

    files_a, files_b = _tree_files(dirs[0]), _tree_files(dirs[1])
    assert sorted(files_a) == sorted(files_b)
    diffs = []
    compared = 0
    for rel in sorted(files_a):
        if os.path.basename(rel) == "loss_history.csv":
            # wall time varies run to run; the metric columns must not
            with open(files_a[rel]) as fa, open(files_b[rel]) as fb:
                rows_a = list(csv.DictReader(fa))
                rows_b = list(csv.DictReader(fb))
            same = len(rows_a) == len(rows_b) and all(
                ra["iteration"] == rb["iteration"] and ra["loss"] == rb["loss"]
                for ra, rb in zip(rows_a, rows_b))
        else:
            with open(files_a[rel], "rb") as fa, open(files_b[rel], "rb") as fb:
                same = fa.read() == fb.read()
        compared += 1
        if not same:
            diffs.append(rel)
    ok = not diffs
    report(capsys, f"C10 determinism: {'PASS' if ok else 'FAIL'}  "
                   f"{compared} output files from two full CLI pipelines, "
                   f"{'all byte-identical' if ok else 'differ: ' + ', '.join(diffs)}")
    assert not diffs, diffs

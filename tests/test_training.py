"""Meta-training: ridge solutions, implicit gradients, optimizer, determinism."""

import json
import logging
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from multiprocessing.connection import Connection

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from oracles import (gradcheck_meta, read_csv, solve_theta_star, window_cost,
                     window_cost_and_grad)
from test_harness import SCENARIO_OF, base_raw, no_fork, on_cpus
import terradapt
from terradapt import cli, training, workers
from terradapt.config import config_from_dict
from terradapt.harness import build_world_for, generate_dataset
from terradapt.serialize import save_arrays
from terradapt.basis import BasisNet
from terradapt.training import (
    Adam,
    DivergenceError,
    TrainerConfig,
    TrajectoryDataset,
    WindowSpec,
    build_h,
    minibatch_cost_and_grad,
    sample_window,
    train,
    train_step,
    write_loss_history,
)


def small_cfg(**kw):
    base = dict(learning_rate=0.01, theta_r=(0.0, 0.0), lambda_r=0.05,
                window_min_s=0.3, window_max_s=1.0, batch_windows=8,
                n_theta=2, hidden=(8,), max_iters=30, conv_tol=0.0,
                conv_window=10, seed=0)
    base.update(kw)
    return TrainerConfig(**base)


def planted_dataset(seed=0, length=400, noise=0.0, teacher=None,
                    theta_true=(0.8, -0.5), dt=0.05):
    """Residuals generated by a known basis and parameter vector."""
    rng = np.random.default_rng(seed)
    teacher = teacher or BasisNet.init(2, 3, 2, 2, 2, hidden=(8,), rng=1234)
    theta_true = np.asarray(theta_true, dtype=float)
    x = rng.uniform(-1, 1, (1, length, teacher.state_dim))
    e = rng.uniform(-1, 1, (1, length, teacher.feature_dim))
    u = rng.uniform(-1, 1, (1, length, teacher.m))
    h = build_h(teacher.forward_batch(x[0], e[0]), u[0])
    y = np.einsum("tni,i->tn", h, theta_true)
    if noise:
        y = y + noise * rng.standard_normal(y.shape)
    return TrajectoryDataset(x, u, e, y[None], dt), teacher


# ----------------------------------------------------------------- dataset


def test_dataset_validation():
    ok = dict(x=np.zeros((1, 5, 2)), u=np.zeros((1, 5, 2)),
              e=np.zeros((1, 5, 3)), y=np.zeros((1, 5, 2)), dt=0.05)
    TrajectoryDataset(**ok)
    with pytest.raises(ValueError, match="n_traj"):
        TrajectoryDataset(**{**ok, "u": np.zeros((1, 6, 2))})
    with pytest.raises(ValueError, match="\\(n_traj, length, dim\\)"):
        TrajectoryDataset(**{**ok, "x": np.zeros((5, 2))})
    for dt in (0.0, -1.0, math.nan, math.inf):   # NaN used to pass a plain dt <= 0
        with pytest.raises(ValueError, match="dt"):
            TrajectoryDataset(**{**ok, "dt": dt})
    bad = np.zeros((1, 5, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        TrajectoryDataset(**{**ok, "y": bad})


def test_cli_train_on_a_dataset_of_nan_dt_is_one_json_error(tmp_path, capsys):
    """The container header is JSON, whose reader takes NaN: train refuses
    the dataset with exit 1 and one JSON error that names dt."""
    arrays = {"x": np.zeros((1, 40, 5)), "u": np.zeros((1, 40, 2)),
              "e": np.zeros((1, 40, 4)), "y": np.zeros((1, 40, 2))}
    save_arrays(tmp_path / "dataset.tdc", arrays, kind="dataset", meta={"dt": math.nan})
    assert b'"dt":NaN' in (tmp_path / "dataset.tdc").read_bytes()
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(base_raw(out_dir=tmp_path)))
    assert cli.main(["train", "-c", str(cfg_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError" and "dt" in err["message"]
    assert not (tmp_path / "basis.tdc").exists()


def test_dataset_save_load_roundtrip(tmp_path):
    ds, _ = planted_dataset(length=20)
    path = tmp_path / "d.tdc"
    ds.save(path, meta={"vehicle": "tracked"})
    ds2 = TrajectoryDataset.load(path)
    np.testing.assert_array_equal(ds.x, ds2.x)
    np.testing.assert_array_equal(ds.y, ds2.y)
    assert ds2.dt == ds.dt
    assert ds2.n_traj == 1 and ds2.length == 20


def test_window_spec_validation():
    ds, _ = planted_dataset(length=50)
    WindowSpec(0, 0, 50).validate(ds)
    WindowSpec(0, 49, 1).validate(ds)
    for bad in [WindowSpec(1, 0, 10), WindowSpec(0, -1, 10),
                WindowSpec(0, 45, 10), WindowSpec(0, 0, 0)]:
        with pytest.raises(ValueError):
            bad.validate(ds)
    xw, uw, ew, yw = WindowSpec(0, 5, 7).slice(ds)
    np.testing.assert_array_equal(xw, ds.x[0, 5:12])
    np.testing.assert_array_equal(yw, ds.y[0, 5:12])


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        small_cfg(learning_rate=0.0)
    with pytest.raises(ValueError):
        small_cfg(window_min_s=2.0, window_max_s=1.0)
    with pytest.raises(ValueError):
        small_cfg(theta_r=(1.0,))  # n_theta = 2
    with pytest.raises(ValueError):
        small_cfg(batch_windows=0)


def test_sample_window_always_valid():
    ds, _ = planted_dataset(length=60)
    cfg = small_cfg(window_max_s=10.0)  # longer than the trajectory: clipped
    rng = np.random.default_rng(2)
    lengths = []
    for _ in range(500):
        w = sample_window(rng, ds, cfg)
        w.validate(ds)
        lengths.append(w.length)
    assert min(lengths) >= round(cfg.window_min_s / ds.dt)
    assert max(lengths) <= ds.length


# -------------------------------------------------------------- ridge solve


def test_build_h_matches_loop():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((6, 3, 2, 4))
    u = rng.standard_normal((6, 4))
    h = build_h(phi, u)
    assert h.shape == (6, 2, 3)
    for t in range(6):
        for i in range(3):
            np.testing.assert_allclose(h[t, :, i], phi[t, i] @ u[t], rtol=1e-14)


def test_solve_theta_star_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        t_len, n, k = rng.integers(2, 12), 2, 4
        h = rng.standard_normal((t_len, n, k))
        y = rng.standard_normal((t_len, n))
        theta_r = rng.standard_normal(k)
        lam = float(rng.uniform(0.01, 1.0))
        theta, cost = solve_theta_star(h, y, lam, theta_r)
        # dense restatement: stack rows, solve the regularized normal equations
        big_h = h.reshape(-1, k)
        big_y = y.reshape(-1)
        lhs = big_h.T @ big_h + lam * np.eye(k)
        rhs = big_h.T @ big_y + lam * theta_r
        np.testing.assert_allclose(theta, np.linalg.solve(lhs, rhs), rtol=1e-10)
        assert cost == pytest.approx(np.sum((big_h @ theta - big_y) ** 2), rel=1e-12)


def test_strong_regularization_pins_theta_to_prior():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((10, 2, 3))
    y = rng.standard_normal((10, 2))
    theta_r = np.array([1.0, -2.0, 0.5])
    theta, _ = solve_theta_star(h, y, 1e6, theta_r)
    np.testing.assert_allclose(theta, theta_r, atol=1e-3)


def test_exact_fit_recovers_planted_theta():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((20, 2, 3))
    theta0 = np.array([0.3, -1.1, 2.0])
    y = np.einsum("tni,i->tn", h, theta0)
    theta, cost = solve_theta_star(h, y, 0.0, np.zeros(3))
    np.testing.assert_allclose(theta, theta0, rtol=1e-10)
    assert cost < 1e-18


def test_theta_star_minimizes_regularized_objective():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((8, 2, 4))
    y = rng.standard_normal((8, 2))
    theta_r = rng.standard_normal(4)
    lam = 0.3
    theta, cost = solve_theta_star(h, y, lam, theta_r)

    def full(th):
        r = np.einsum("tni,i->tn", h, th) - y
        return np.sum(r * r) + lam * np.sum((th - theta_r) ** 2)

    best = full(theta)
    assert best == pytest.approx(cost + lam * np.sum((theta - theta_r) ** 2), rel=1e-12)
    for _ in range(100):
        perturbed = theta + rng.normal(scale=rng.uniform(1e-4, 1.0), size=4)
        assert full(perturbed) >= best * (1.0 - 1e-10)


def test_solve_theta_star_shape_errors():
    with pytest.raises(ValueError, match="empty"):
        solve_theta_star(np.zeros((0, 2, 3)), np.zeros((0, 2)), 0.1, np.zeros(3))
    with pytest.raises(ValueError):
        solve_theta_star(np.zeros((4, 2, 3)), np.zeros((5, 2)), 0.1, np.zeros(3))
    with pytest.raises(ValueError):
        solve_theta_star(np.zeros((4, 2, 3)), np.zeros((4, 2)), 0.1, np.zeros(2))


def test_window_cost_matches_manual_pipeline():
    ds, teacher = planted_dataset(length=40)
    window = WindowSpec(0, 3, 12).slice(ds)
    theta_r = np.zeros(2)
    cost, theta = window_cost(teacher, window, 0.05, theta_r)
    phi = teacher.forward_batch(window[0], window[2])
    want_theta, want_cost = solve_theta_star(build_h(phi, window[1]), window[3], 0.05, theta_r)
    assert cost == pytest.approx(want_cost, rel=1e-14)
    np.testing.assert_allclose(theta, want_theta, rtol=1e-14)


# ------------------------------------------------------------ meta-gradient


def test_meta_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    net = BasisNet.init(2, 2, 2, 2, 2, hidden=(4,), rng=11)
    windows = []
    for t_len in (1, 3, 6):
        windows.append((rng.standard_normal((t_len, 2)), rng.standard_normal((t_len, 2)),
                        rng.standard_normal((t_len, 2)), rng.standard_normal((t_len, 2))))
    windows.append((np.zeros((0, 2)),) * 4)  # empty window contributes nothing
    err = gradcheck_meta(net, windows, lambda_r=0.1, theta_r=np.zeros(2))
    assert err < 1e-4


def test_meta_gradient_identity_activation():
    rng = np.random.default_rng(6)
    net = BasisNet.init(2, 2, 2, 2, 2, hidden=(3,), activation="identity", rng=12)
    windows = [(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)),
                rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))]
    assert gradcheck_meta(net, windows, 0.2, np.ones(2)) < 1e-6


def test_empty_window_gives_zero_gradient():
    net = BasisNet.init(2, 3, 2, 2, 2, hidden=(4,), rng=0)
    theta_r = np.array([0.7, -0.3])
    cost, theta, grads = window_cost_and_grad(
        net, (np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 2))),
        0.1, theta_r)
    assert cost == 0.0
    np.testing.assert_array_equal(theta, theta_r)
    for g in grads["W"] + grads["b"]:
        assert np.all(g == 0.0)


def test_costs_of_near_exact_fits_are_residual_norms():
    """Windows the basis fits to about 1e-3 of the signal, at lambda_r > 0
    and at lambda_r = 0: each cost is the sum of its rows' squared
    residuals at the returned theta* (a quadratic form in the Gram would
    cancel), it is never negative, and the meta-gradient matches finite
    differences."""
    ds, teacher = planted_dataset(length=300, noise=1e-3)
    x, u, e, y = (a[0] for a in (ds.x, ds.u, ds.e, ds.y))
    h = build_h(teacher.forward_batch(x, e), u)
    at, lengths = np.array([0, 10, 10, 150, 295]), np.array([300, 40, 5, 100, 5])
    theta_r = np.array([0.8, -0.5])   # the planted theta
    for lam in (0.05, 0.0):
        costs, theta, _ = training._pack_cost_and_grad(teacher, x, u, e, y, at, lengths,
                                                       lam, theta_r)
        for j, (first, length) in enumerate(zip(at, lengths)):
            want = 0.0
            for t in range(first, first + length):
                r = h[t] @ theta[j] - y[t]
                want += r @ r
            assert costs[j] == pytest.approx(want, rel=1e-12, abs=0.0), (lam, j)
            assert 0.0 <= costs[j] < 1e-4 * np.sum(y[first:first + length] ** 2)
        windows = [(x[a:a + n], u[a:a + n], e[a:a + n], y[a:a + n])
                   for a, n in zip(at[1:], lengths[1:])]
        # central differences at the default step of 1e-5 carry a truncation
        # error of 1.8e-6 on this data; it falls as the step squared
        assert gradcheck_meta(teacher, windows, lam, theta_r, h_step=1e-6) < 1e-6, lam


def test_step_of_windows_over_the_same_rows_copies_no_window_rows():
    """70 windows that all cover the same 600 rows cost a Gram and one
    product each on the pack's rows: the step peaks below 2 MiB (0.5 MiB
    measured), where copies of every window's rows and of their per-row
    outer products would take 17 MiB."""
    ds = two_traj_dataset(length=600)
    net = BasisNet.init(2, 3, 2, 2, 4, hidden=(8,), rng=21)
    specs = [WindowSpec(0, 0, 600)] * 70
    minibatch_cost_and_grad(net, ds, specs, 0.3, np.zeros(4))   # imports and caches
    tracemalloc.start()
    try:
        minibatch_cost_and_grad(net, ds, specs, 0.3, np.zeros(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


# ----------------------------------------------------------- minibatch path


def two_traj_dataset(length=700, seed=13):
    rng = np.random.default_rng(seed)
    return TrajectoryDataset(rng.uniform(-1, 1, (2, length, 2)),
                             rng.uniform(-1, 1, (2, length, 2)),
                             rng.uniform(-1, 1, (2, length, 3)),
                             rng.standard_normal((2, length, 2)), 0.05)


def test_minibatch_matches_per_window_path():
    ds = two_traj_dataset(length=1000)
    net = BasisNet.init(2, 3, 2, 2, 3, hidden=(8,), rng=21)
    theta_r = np.array([0.5, -0.2, 1.0])
    budget = training._PACK_ROWS
    cases = {
        "one window": [WindowSpec(0, 5, 7)],
        "overlapping": [WindowSpec(0, 40, 60), WindowSpec(0, 10, 50), WindowSpec(0, 70, 45)],
        "nested": [WindowSpec(1, 100, 200), WindowSpec(1, 150, 20), WindowSpec(1, 100, 1),
                   WindowSpec(1, 299, 1)],
        "drawn twice": [WindowSpec(0, 300, 40), WindowSpec(1, 2, 9), WindowSpec(0, 300, 40)],
        # the last row of trajectory 0 and the first of trajectory 1 are neighbours
        "trajectory boundary": [WindowSpec(1, 0, 30), WindowSpec(0, 975, 25),
                                WindowSpec(0, 999, 1), WindowSpec(1, 0, 1)],
        # the long window is a pack of its own, though the next one nests in it
        "longer than the budget": [WindowSpec(1, 3, 20), WindowSpec(1, 0, budget + 50),
                                   WindowSpec(1, 600, 30), WindowSpec(0, 0, 1)],
        "one-row windows": [WindowSpec(0, 999, 1), WindowSpec(1, 0, 1), WindowSpec(0, 5, 1),
                            WindowSpec(0, 5, 1)],
        # more rows than the budget: the packs split between neighbours
        "several packs": [WindowSpec(j % 2, 30 * j, 40 + 5 * j) for j in range(24)],
    }
    for name, specs in cases.items():
        costs, grad = minibatch_cost_and_grad(net, ds, specs, 0.3, theta_r)
        want_grad = np.zeros_like(grad)
        for w, cost in zip(specs, costs):
            window = w.slice(ds)
            want_cost, _, grads = window_cost_and_grad(net, window, 0.3, theta_r)
            want_grad += net.grads_to_flat(grads)
            assert cost == pytest.approx(want_cost, rel=1e-12, abs=0.0), name
            # dense restatement of the same ridge fit
            h = build_h(net.forward_batch(window[0], window[2]), window[1]).reshape(-1, 3)
            theta = np.linalg.solve(h.T @ h + 0.3 * np.eye(3),
                                    h.T @ window[3].reshape(-1) + 0.3 * theta_r)
            r = h @ theta - window[3].reshape(-1)
            assert cost == pytest.approx(r @ r, rel=1e-10), name
        assert len(costs) == len(specs)
        err = np.max(np.abs(grad - want_grad)) / np.max(np.abs(want_grad))
        assert err <= 1e-12, name


def test_minibatch_forwards_each_row_once(monkeypatch):
    """Windows that overlap share one forward pass over the rows they cover,
    and one backward pass over the same rows."""
    ds = two_traj_dataset(length=300)
    net = BasisNet.init(2, 3, 2, 2, 3, hidden=(8,), rng=21)
    cfg = small_cfg(batch_windows=40, window_min_s=1.0, window_max_s=5.0)
    specs = [sample_window(np.random.default_rng(4), ds, cfg) for _ in range(cfg.batch_windows)]
    covered = {w.traj * ds.length + t for w in specs for t in range(w.start, w.start + w.length)}
    assert len(covered) <= training._PACK_ROWS < sum(w.length for w in specs)
    forwarded, backward_rows = [], []
    forward, backward = BasisNet.forward_batch, BasisNet.backward

    def counting_forward(self, x, e, want_cache=False):
        forwarded.append(len(x))
        return forward(self, x, e, want_cache)

    def counting_backward(self, acts, upstream):
        backward_rows.append(len(upstream))
        return backward(self, acts, upstream)

    monkeypatch.setattr(BasisNet, "forward_batch", counting_forward)
    monkeypatch.setattr(BasisNet, "backward", counting_backward)
    minibatch_cost_and_grad(net, ds, specs, 0.3, np.zeros(3))
    assert forwarded == backward_rows == [len(covered)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 59), st.integers(1, 60)),
                min_size=1, max_size=25),
       st.integers(1, 90))
def test_packs_hold_each_window_once(windows, target):
    """Every window lands in exactly one pack, as a contiguous slice of the
    pack's distinct rows. The windows' U distinct rows make at most
    P = round(U / target) packs, exactly P when no window is longer than
    U / P; a window opens a pack where the running count of distinct rows
    passes k U / P, and a pack covers at most ceil(U / P) + 2 L rows,
    where L is the longest window."""
    length = 60
    first, lengths = zip(*sorted((traj * length + start, min(n, length - start))
                                 for traj, start, n in windows))
    seen, counts = set(), []
    for s, n in zip(first, lengths):
        seen.update(range(s, s + n))
        counts.append(len(seen))
    total = counts[-1]
    n_packs = max(1, math.floor(Fraction(total, target) + Fraction(1, 2)))
    opens = [j for j in range(1, len(first))
             if any(counts[j - 1] * n_packs <= k * total < counts[j] * n_packs
                    for k in range(1, n_packs))]
    longest = max(lengths)
    bounds = training._packs(list(first), list(lengths), target)
    packs = list(zip(bounds, bounds[1:]))
    assert [lo for lo, _ in packs] == [0, *opens]
    packed = []
    for lo, hi in packs:
        rows, at = training._pack_rows(first[lo:hi], lengths[lo:hi])
        packed.extend(range(lo, hi))
        assert np.all(np.diff(rows) > 0)
        covered = set()
        for i, j in enumerate(range(lo, hi)):
            np.testing.assert_array_equal(rows[at[i]:at[i] + lengths[j]],
                                          np.arange(first[j], first[j] + lengths[j]))
            covered.update(range(first[j], first[j] + lengths[j]))
        assert len(rows) == len(covered)
        assert len(rows) <= math.ceil(total / n_packs) + 2 * longest
    assert packed == list(range(len(first)))
    assert len(packs) <= n_packs
    if longest * n_packs <= total:
        assert len(packs) == n_packs


def test_rank_deficient_window_raises():
    ds = two_traj_dataset(length=40)
    ds.u[0, :10] = 0.0  # h = Phi u vanishes, so the normal matrix is zero
    net = BasisNet.init(2, 3, 2, 2, 3, hidden=(4,), rng=3)
    spec = WindowSpec(0, 0, 10)
    with pytest.raises(np.linalg.LinAlgError):
        window_cost_and_grad(net, spec.slice(ds), 0.0, np.zeros(3))
    with pytest.raises(np.linalg.LinAlgError):
        minibatch_cost_and_grad(net, ds, [WindowSpec(1, 0, 5), spec], 0.0, np.zeros(3))
    with pytest.raises(np.linalg.LinAlgError):
        solve_theta_star(np.zeros((4, 2, 3)), np.ones((4, 2)), 0.0, np.zeros(3))


def test_minibatch_validates_every_window():
    ds = two_traj_dataset(length=40)
    net = BasisNet.init(2, 3, 2, 2, 3, hidden=(4,), rng=3)
    with pytest.raises(ValueError, match="exceeds"):
        minibatch_cost_and_grad(net, ds, [WindowSpec(0, 0, 5), WindowSpec(1, 38, 5)],
                                0.1, np.zeros(3))


def test_train_step_draws_the_sampled_window_sequence(monkeypatch):
    ds = two_traj_dataset(length=120)
    cfg = small_cfg(batch_windows=11, window_max_s=5.0)
    net = BasisNet.init(2, 3, 2, 2, 2, hidden=(8,), rng=1)
    drawn = []

    def recording(rng, dataset, c):
        w = sample_window(rng, dataset, c)
        drawn.append(w)
        return w

    monkeypatch.setattr(training, "sample_window", recording)
    rng = np.random.default_rng(42)
    loss = train_step(net, Adam(net.get_flat_params().size, cfg.learning_rate),
                      ds, cfg, rng)
    replay = np.random.default_rng(42)
    want = [sample_window(replay, ds, cfg) for _ in range(cfg.batch_windows)]
    assert drawn == want
    # the step draws nothing else from the generator
    assert rng.bit_generator.state == replay.bit_generator.state
    fresh = BasisNet.init(2, 3, 2, 2, 2, hidden=(8,), rng=1)
    costs, _ = minibatch_cost_and_grad(fresh, ds, want, cfg.lambda_r, cfg.theta_r)
    running = 0.0
    for c in costs:
        running += c
    assert loss == running


# -------------------------------------------------------------------- adam


def test_adam_first_steps_closed_form():
    lr, eps = 0.1, 1e-8
    adam = Adam(3, lr, eps=eps)
    p0 = np.zeros(3)
    g = np.array([1.0, -2.0, 0.5])
    p1 = adam.step(p0, g)
    # bias correction makes the first step lr * g / (|g| + eps)
    np.testing.assert_allclose(p1, -lr * g / (np.abs(g) + eps), rtol=1e-12)
    # second step with the same gradient, from the recursions directly
    b1, b2 = 0.9, 0.999
    m2 = (b1 * (1 - b1) * g + (1 - b1) * g) / (1 - b1**2)
    v2 = (b2 * (1 - b2) * g * g + (1 - b2) * g * g) / (1 - b2**2)
    want = p1 - lr * m2 / (np.sqrt(v2) + eps)
    np.testing.assert_allclose(adam.step(p1, g), want, rtol=1e-12)


# ------------------------------------------------------------------ training


def test_training_reduces_planted_loss():
    ds, _ = planted_dataset(seed=7, length=400, noise=0.01)
    cfg = small_cfg(max_iters=120)
    result = train(ds, cfg)
    losses = [h["loss"] for h in result.history]
    head = np.mean(losses[:10])
    tail = np.mean(losses[-10:])
    assert tail < 0.5 * head
    # moving average is mostly monotone: allow occasional minibatch upticks
    avg = np.convolve(losses, np.ones(10) / 10, mode="valid")
    upticks = np.sum(np.diff(avg) > 0.05 * avg[:-1])
    assert upticks < 0.2 * avg.size


def test_training_is_deterministic():
    ds, _ = planted_dataset(seed=8, length=120)
    cfg = small_cfg(max_iters=12)
    r1 = train(ds, cfg)
    r2 = train(ds, cfg)
    assert [h["loss"] for h in r1.history] == [h["loss"] for h in r2.history]
    for w1, w2 in zip(r1.net.weights, r2.net.weights):
        np.testing.assert_array_equal(w1, w2)
    for b1, b2 in zip(r1.net.biases, r2.net.biases):
        np.testing.assert_array_equal(b1, b2)


def record_projected_norms(monkeypatch) -> list:
    """Wrap BasisNet.spectral_normalize so that every projection appends the
    largest weight norm it leaves; train() projects once in BasisNet.init,
    then once per step."""
    norms = []
    project = BasisNet.spectral_normalize

    def recording(net):
        project(net)
        norms.append(max(net.weight_norms()))

    monkeypatch.setattr(BasisNet, "spectral_normalize", recording)
    return norms


def test_training_keeps_spectral_constraint(monkeypatch):
    ds, _ = planted_dataset(seed=9, length=150)
    norms = record_projected_norms(monkeypatch)
    result = train(ds, small_cfg(max_iters=25))
    assert result.iterations == 25 and len(norms) == 1 + 25
    assert max(norms) <= 1.0 + 1e-6


def test_training_norms_exact_after_every_step(monkeypatch):
    # a learning rate large enough to push layers past the bound on every
    # step: each projection must land on it to rounding, not an estimate above
    ds, _ = planted_dataset(seed=9, length=150)
    norms = record_projected_norms(monkeypatch)
    result = train(ds, small_cfg(max_iters=30, learning_rate=0.05, hidden=(24, 24)))
    assert result.iterations == 30 and len(norms) == 1 + 30
    assert max(norms) <= 1.0 + 8 * np.finfo(float).eps


def test_training_convergence_flag():
    ds, _ = planted_dataset(seed=10, length=120)
    # huge tolerance: declared converged at the first comparison point
    res = train(ds, small_cfg(max_iters=50, conv_tol=1e6, conv_window=5))
    assert res.converged and res.iterations == 10
    # zero tolerance: never converges
    res2 = train(ds, small_cfg(max_iters=15, conv_tol=0.0))
    assert not res2.converged and res2.iterations == 15


def test_training_divergence_error():
    ds, _ = planted_dataset(seed=11, length=80)
    huge = TrajectoryDataset(ds.x, ds.u, ds.e, ds.y * 1e200, ds.dt)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError, match="non-finite"):
            train(huge, small_cfg(max_iters=5))


def test_training_resumes_from_given_net():
    ds, _ = planted_dataset(seed=12, length=120)
    cfg = small_cfg(max_iters=5)
    warm = BasisNet.init(2, 3, 2, 2, 2, hidden=(8,), rng=99)
    marker = warm.weights[0].copy()
    res = train(ds, cfg, net=warm)
    assert res.net is warm
    assert not np.array_equal(res.net.weights[0], marker)  # actually trained


def test_loss_history_csv(tmp_path):
    history = [{"iteration": 0, "loss": 1.5, "wall_time_s": 0.1},
               {"iteration": 1, "loss": 0.75, "wall_time_s": 0.2}]
    path = tmp_path / "loss.csv"
    write_loss_history(path, history)
    cols, rows = read_csv(path)
    assert cols == ["iteration", "loss", "wall_time_s"]
    assert rows[0] == ["0", "1.5", "0.1"]
    assert float(rows[1][1]) == 0.75


# ------------------------------------------------------------ worker processes

def count_messages(monkeypatch) -> list:
    """Record the size of every message this process sends on a pipe: a
    round's payloads, as children record theirs in their own memory."""
    sent = []
    send_bytes = Connection.send_bytes

    def recording(conn, data, *args):
        sent.append(len(data))
        send_bytes(conn, data, *args)

    monkeypatch.setattr(Connection, "send_bytes", recording)
    return sent


def vehicle_raw(vehicle, **extra):
    """A two-trajectory log with 16 windows of 2-30 s per step: the steps
    hold 3 packs, so their gradient sums have an order to keep."""
    return base_raw(**{"vehicle.type": vehicle, "scenario.kind": SCENARIO_OF[vehicle],
                       "dataset.steps": 1500,
                       "training": {"hidden": [8, 8], "batch_windows": 16, "max_iters": 6,
                                    "window_min_s": 2.0, "window_max_s": 30.0,
                                    "learning_rate": 0.01}},
                    **extra)


@pytest.mark.parametrize("vehicle", ["tracked", "ackermann"])
def test_training_on_two_workers_equals_one_process(monkeypatch, vehicle):
    cfg = config_from_dict(vehicle_raw(vehicle))
    ds = generate_dataset(cfg, build_world_for(cfg))
    sent = count_messages(monkeypatch)
    runs = {n: on_cpus(monkeypatch, n, lambda: train(ds, cfg.training)) for n in (1, 2)}
    assert sent, "no step ran on the second worker"
    assert runs[1].iterations == runs[2].iterations == 6
    assert ([h["loss"] for h in runs[2].history]
            == [h["loss"] for h in runs[1].history])
    assert runs[2].net.get_flat_params().tobytes() == runs[1].net.get_flat_params().tobytes()


def test_cli_train_checkpoint_is_the_same_on_two_workers(tmp_path, monkeypatch):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(vehicle_raw("tracked", output_dir=str(tmp_path))))
    assert cli.main(["gen-data", "-c", str(path)]) == 0
    sent = count_messages(monkeypatch)
    checkpoints = {}
    for n in (1, 2):
        assert on_cpus(monkeypatch, n, lambda: cli.main(["train", "-c", str(path)])) == 0
        checkpoints[n] = (tmp_path / "basis.tdc").read_bytes()
    assert sent
    assert checkpoints[2] == checkpoints[1]


def one_blas_thread_checkpoint(tmp_path, raw) -> bytes:
    """The basis.tdc that `terradapt train` writes for raw on one CPU at one
    BLAS thread, after gen-data here. It is made in a process of its own,
    as setting the affinity of this one would not change its BLAS's
    thread count."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["gen-data", "-c", str(path)]) == 0
    src = os.path.dirname(os.path.dirname(terradapt.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    one_cpu = {min(os.sched_getaffinity(0))}
    r = subprocess.run([sys.executable, "-m", "terradapt", "train", "-c", str(path)],
                       capture_output=True, text=True, env=env,
                       preexec_fn=lambda: os.sched_setaffinity(0, one_cpu))
    assert r.returncode == 0, r.stderr
    return (tmp_path / "basis.tdc").read_bytes()


def test_cli_train_checkpoint_on_two_workers_is_that_of_one_blas_thread(tmp_path,
                                                                        monkeypatch):
    """Hidden layers of 37, at which two BLAS threads per process change
    this log's checkpoint on a 2-CPU host: the pool runs BLAS at one
    thread, so two CPUs write the basis.tdc of a run on one CPU at one
    BLAS thread."""
    raw = vehicle_raw("tracked", output_dir=str(tmp_path))
    raw["training"]["hidden"] = [37, 37]
    want = one_blas_thread_checkpoint(tmp_path, raw)
    sent = count_messages(monkeypatch)
    args = ["train", "-c", str(tmp_path / "cfg.yaml")]
    assert on_cpus(monkeypatch, 2, lambda: cli.main(args)) == 0
    assert sent
    assert (tmp_path / "basis.tdc").read_bytes() == want


def test_cli_train_of_one_window_per_step_is_that_of_one_blas_thread(tmp_path):
    """With batch_windows: 1 the pool is this process alone, and it still
    runs BLAS at one thread: at hidden layers of 64, which BLAS threads,
    a process whose BLAS has two threads writes the checkpoint of one."""
    blas = workers._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no thread count to set here")
    get, set_count = blas
    raw = vehicle_raw("tracked", output_dir=str(tmp_path))
    raw["training"].update(hidden=[64, 64], batch_windows=1)
    want = one_blas_thread_checkpoint(tmp_path, raw)
    saved = get()
    set_count(2)
    try:
        assert cli.main(["train", "-c", str(tmp_path / "cfg.yaml")]) == 0
        assert get() == 2
    finally:
        set_count(saved)
    assert (tmp_path / "basis.tdc").read_bytes() == want


def test_train_whose_every_step_is_one_pack_forks_nothing(tmp_path, monkeypatch):
    """On 2 x 500 rows a step covers fewer than 1.5 x _PACK_ROWS rows, so
    each step is one pack: with two usable CPUs `terradapt train` forks no
    process and writes the checkpoint of one CPU."""
    raw = vehicle_raw("tracked", output_dir=str(tmp_path))
    raw["dataset"]["steps"] = 500
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["gen-data", "-c", str(path)]) == 0
    assert on_cpus(monkeypatch, 1, lambda: cli.main(["train", "-c", str(path)])) == 0
    want = (tmp_path / "basis.tdc").read_bytes()
    monkeypatch.setattr(os, "fork", no_fork)
    assert on_cpus(monkeypatch, 2, lambda: cli.main(["train", "-c", str(path)])) == 0
    assert (tmp_path / "basis.tdc").read_bytes() == want


def test_pool_without_a_round_for_a_child_forks_and_pins_nothing(monkeypatch):
    """A pool closed after no round, or after a round of one job, forks no
    process and sets no CPU affinity."""
    pinned = []
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append(cpus))

    def run():
        with workers.Pool(lambda n: (lambda i: i, n), 2):
            pass
        with workers.Pool(lambda n: (lambda i: i, n), 2) as pool:
            return pool.round(1)

    assert on_cpus(monkeypatch, 2, run) == [0]
    assert pinned == []


def test_fork_that_fails_in_the_first_round_kills_and_reaps_the_children(monkeypatch):
    """Of three processes, the first child forks and the second fork fails:
    the round raises that failure, and the child is gone."""
    fork, pids = os.fork, []

    def second_fails():
        if pids:
            raise OSError("out of processes")
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", second_fails)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    with pytest.raises(OSError, match="out of processes"):
        on_cpus(monkeypatch, 3, lambda: workers.map_jobs(lambda i: i, 3))
    assert len(pids) == 1


def test_every_pool_process_runs_blas_at_one_thread(monkeypatch):
    """While a pool of two lives, this process and its child run BLAS at one
    thread; this process gets its own count back at close()."""
    blas = workers._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no thread count to set here")
    get, set_count = blas
    saved = get()
    set_count(2)
    try:
        def run():
            with workers.Pool(lambda payload: (lambda i: (os.getpid(), get()), 2), 2) as pool:
                return get(), pool.round(None)

        inside, jobs = on_cpus(monkeypatch, 2, run)
        assert inside == 1
        assert jobs[0] == (os.getpid(), 1)
        assert jobs[1][0] != os.getpid() and jobs[1][1] == 1
        assert get() == 2
    finally:
        set_count(saved)


def test_round_carries_messages_larger_than_a_pipe_buffer(monkeypatch):
    """A pipe buffers 64 KiB: over two rounds, the payloads and the child's
    job results of 1 MiB and more each cross their pipes whole, and the
    results are those of one process."""
    payload = np.arange(1 << 17, dtype=float)       # 1 MiB

    def run():
        with workers.Pool(lambda p: (lambda i: p * (i + 1), 4), 4) as pool:
            return pool.round(payload) + pool.round(payload[::-1].copy())

    sent = count_messages(monkeypatch)
    one, two = (on_cpus(monkeypatch, n, run) for n in (1, 2))
    assert len(sent) == 2 and min(sent) > 1 << 20
    assert [r.nbytes for r in two] == [1 << 20] * 8
    assert [r.tobytes() for r in two] == [r.tobytes() for r in one]


def test_pool_without_blas_control_pins_no_cpu(monkeypatch, caplog):
    """Where numpy's BLAS thread count cannot be set, a warning says so once,
    and the pool's processes keep their CPUs."""
    def no_library(path):
        raise OSError("no such library")

    monkeypatch.setattr(workers.ctypes, "CDLL", no_library)
    workers._blas_threads.cache_clear()
    pinned = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append(cpus))
    try:
        with caplog.at_level(logging.WARNING, logger="terradapt"):
            for _ in range(2):
                jobs = on_cpus(monkeypatch, 2, lambda: workers.map_jobs(
                    lambda i: list(pinned), 2))
                assert jobs == [[], []] and pinned == []
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1 and "cannot be set" in warnings[0]
    finally:
        workers._blas_threads.cache_clear()


def test_rank_deficient_window_in_a_workers_pack_raises_as_in_one_process(monkeypatch):
    """The windows cover 1210 rows, so they make two packs; in row order,
    the second window passes half of them and opens pack 1, which holds
    the deficient window and which the child runs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # the pool caps at these
    ds = two_traj_dataset(length=1200)
    ds.u[1, :10] = 0.0
    net = BasisNet.init(2, 3, 2, 2, 3, hidden=(4,), rng=3)
    specs = [WindowSpec(1, 0, 10), WindowSpec(0, 0, 600), WindowSpec(0, 600, 600)]
    with pytest.raises(np.linalg.LinAlgError) as one:
        minibatch_cost_and_grad(net, ds, specs, 0.0, np.zeros(3))
    with training._pack_pool(net, ds, 2) as pool, \
            pytest.raises(np.linalg.LinAlgError) as two:
        minibatch_cost_and_grad(net, ds, specs, 0.0, np.zeros(3), pool)
    assert str(two.value) == str(one.value)
    # raised in the child: the traceback that came back does not reach the solve
    assert "_ridge" in {entry.name for entry in one.traceback}
    assert "_ridge" not in {entry.name for entry in two.traceback}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_pack_step_sends_no_message(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # the pool caps at these
    ds = two_traj_dataset(length=900)
    net = BasisNet.init(2, 3, 2, 2, 3, hidden=(4,), rng=3)
    sent = count_messages(monkeypatch)
    with training._pack_pool(net, ds, 2) as pool:
        for specs, messages in (([WindowSpec(0, 0, 40), WindowSpec(0, 20, 40)], 0),
                                ([WindowSpec(0, 0, 600), WindowSpec(1, 0, 600)], 1)):
            sent.clear()
            want = minibatch_cost_and_grad(net, ds, specs, 0.1, np.zeros(3))
            got = minibatch_cost_and_grad(net, ds, specs, 0.1, np.zeros(3), pool)
            assert len(sent) == messages
            assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


def long_window_cfg(**kw):
    """Windows of 20-45 s on a 0.05 s log: most are packs of their own."""
    return small_cfg(**{"window_min_s": 20.0, "window_max_s": 45.0, "max_iters": 3, **kw})


def test_no_worker_is_left_after_training_returns_or_diverges(monkeypatch):
    ds = two_traj_dataset(length=1000)
    sent = count_messages(monkeypatch)
    on_cpus(monkeypatch, 2, lambda: train(ds, long_window_cfg()))
    assert len(sent) == 3
    huge = TrajectoryDataset(ds.x, ds.u, ds.e, ds.y * 1e200, ds.dt)
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(DivergenceError, match="non-finite"):
        on_cpus(monkeypatch, 2, lambda: train(huge, long_window_cfg()))
    assert len(sent) == 4


def test_interrupt_in_training_kills_and_reaps_the_workers(monkeypatch):
    """The packs of children sleep a minute; the interrupt arrives in this
    process's own pack."""
    parent = os.getpid()

    def pack(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(training, "_pack_cost_and_grad", pack)
    sent = count_messages(monkeypatch)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        on_cpus(monkeypatch, 2, lambda: train(two_traj_dataset(length=1000), long_window_cfg()))
    assert time.monotonic() - began < 30
    assert len(sent) == 1


def test_train_on_two_workers_draws_the_windows_of_sequential_sampling(monkeypatch):
    """Each step's windows, the next step's drawn during the round before,
    are those that one draw after another from the seed gives, step by
    step. No batch is drawn past the iteration cap; a converged run draws
    one batch it does not use."""
    ds = two_traj_dataset(length=1000)
    drawn, steps = [], []
    minibatch = training.minibatch_cost_and_grad

    def recording_draw(rng, dataset, c):
        w = sample_window(rng, dataset, c)
        drawn.append(w)
        return w

    def recording_step(net, dataset, specs, *args):
        steps.append(list(specs))
        return minibatch(net, dataset, specs, *args)

    monkeypatch.setattr(training, "sample_window", recording_draw)
    monkeypatch.setattr(training, "minibatch_cost_and_grad", recording_step)
    sent = count_messages(monkeypatch)
    # (config, steps run, batches drawn); the second converges at its second step
    for cfg, iterations, batches in ((long_window_cfg(max_iters=4), 4, 4),
                                     (long_window_cfg(max_iters=6, conv_tol=1e6,
                                                      conv_window=1), 2, 3)):
        drawn.clear()
        steps.clear()
        net = BasisNet.init(2, 3, 2, 2, 2, hidden=(8,), rng=1)
        result = on_cpus(monkeypatch, 2, lambda: train(ds, cfg, net=net))
        assert result.iterations == len(steps) == iterations
        replay = np.random.default_rng(cfg.seed)
        want = [sample_window(replay, ds, cfg) for _ in range(batches * cfg.batch_windows)]
        assert drawn == want
        b = cfg.batch_windows
        assert steps == [want[i * b:(i + 1) * b] for i in range(len(steps))]
    assert sent, "no step ran on the second worker"


def test_round_runs_meanwhile_once_after_this_process_block(monkeypatch, caplog):
    """Once per round, on one CPU and on two: after the jobs of this
    process's block, and before the records of the children's jobs."""
    log = logging.getLogger("terradapt.test")

    def prepare(n):
        def job(i):
            log.warning("job %d", i)
            return i
        return job, n

    def run():
        with workers.Pool(prepare, 2) as pool:
            return [pool.round(n, lambda: log.warning("meanwhile")) for n in (1, 3, 2)]

    want = {1: ["job 0", "meanwhile", "job 0", "job 1", "job 2", "meanwhile",
                "job 0", "job 1", "meanwhile"],
            2: ["job 0", "meanwhile", "job 0", "meanwhile", "job 1", "job 2",
                "job 0", "meanwhile", "job 1"]}
    for n_cpus, order in want.items():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="terradapt"):
            assert on_cpus(monkeypatch, n_cpus, run) == [[0], [0, 1, 2], [0, 1]]
        assert [r.getMessage() for r in caplog.records] == order


def test_exception_in_meanwhile_kills_and_reaps_the_children(monkeypatch):
    """The child's job sleeps a minute; meanwhile raises in this process."""
    def prepare(payload):
        return (lambda i: time.sleep(60) if i else i), 2

    def fails():
        raise ValueError("no next batch")

    def run():
        with workers.Pool(prepare, 2) as pool:
            pool.round(None, fails)

    began = time.monotonic()
    with pytest.raises(ValueError, match="no next batch"):
        on_cpus(monkeypatch, 2, run)
    assert time.monotonic() - began < 30

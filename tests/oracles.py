"""Reference computations and entry points that only the tests use.

Most restate a quantity the package reports, or one the paper's analysis
uses, from its definition, so that a test can check the program against
it. The trainer's entry points below drive its private batched ridge and
meta-gradient (`training._ridge`, `training._pack_cost_and_grad`) on one
window, the unit the tests and criteria C6, C7 and C9 reason in. No code
under src calls anything here.
"""

import copy
import dataclasses

import numpy as np

from terradapt.basis import BasisNet, DimensionError
from terradapt.harness import compute_metrics
from terradapt.training import _pack_cost_and_grad, _ridge, build_h


def as_array(obj) -> np.ndarray:
    """The fields of a state or input dataclass, in order, as a float array."""
    return np.array(dataclasses.astuple(obj), dtype=float)


def lyapunov_value(s, theta_hat, theta_true, gain) -> float:
    """V = s^T s + theta_err^T gain^-1 theta_err, for either gain form."""
    s = np.asarray(s, dtype=float)
    err = np.asarray(theta_hat, dtype=float) - np.asarray(theta_true, dtype=float)
    if np.asarray(gain).ndim == 1:
        return float(s @ s + np.sum(err * err / np.asarray(gain, dtype=float)))
    return float(s @ s + err @ np.linalg.solve(np.asarray(gain, dtype=float), err))


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


def contract(phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sum_i theta_i Phi_i for a single stack (n_theta, n, m) or a batch.

    Batched input has shape (T, n_theta, n, m) and returns (T, n, m).
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if phi.ndim == 3:
        if phi.shape[0] != theta.shape[0]:
            raise DimensionError(f"theta has {theta.shape[0]} entries, basis has {phi.shape[0]}")
        return (theta @ phi.reshape(phi.shape[0], -1)).reshape(phi.shape[1:])
    if phi.ndim == 4:
        if phi.shape[1] != theta.shape[0]:
            raise DimensionError(f"theta has {theta.shape[0]} entries, basis has {phi.shape[1]}")
        return np.einsum("tinm,i->tnm", phi, theta)
    raise DimensionError(f"phi must have 3 or 4 dims, got {phi.ndim}")


def read_csv(path):
    """Read a CSV written by write_csv. Returns (columns, list of string rows)."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    columns = lines[0].split(",")
    return columns, [ln.split(",") for ln in lines[1:]]


def solve_theta_star(h: np.ndarray, y: np.ndarray, lambda_r: float, theta_r: np.ndarray):
    """Ridge solution of the window least squares problem.

    h is (T, n, n_theta), y is (T, n). Returns (theta_star, residual_cost)
    where the cost excludes the regularization term. Requires a nonempty
    window and lambda_r > 0 or enough excitation to keep the normal matrix
    positive definite.
    """
    h = np.asarray(h, dtype=float)
    y = np.asarray(y, dtype=float)
    if h.ndim != 3 or y.ndim != 2 or h.shape[0] != y.shape[0] or h.shape[1] != y.shape[1]:
        raise ValueError(f"inconsistent window shapes h{h.shape}, y{y.shape}")
    if h.shape[0] == 0:
        raise ValueError("window is empty")
    theta_r = np.asarray(theta_r, dtype=float).reshape(-1)
    n_theta = h.shape[2]
    if theta_r.shape[0] != n_theta:
        raise ValueError(f"theta_r has {theta_r.shape[0]} entries, expected {n_theta}")
    _, theta, r = _ridge(h, y, np.array([0]), np.array([h.shape[0]]), lambda_r, theta_r)
    return theta[0], float(np.sum(r * r))


def window_cost(net, window, lambda_r: float, theta_r) -> tuple[float, np.ndarray]:
    """Meta-objective of one window under the current basis.

    window is (x, u, e, y) arrays. Returns (cost, theta_star).
    """
    xw, uw, ew, yw = window
    phi = net.forward_batch(xw, ew)
    theta, cost = solve_theta_star(build_h(phi, uw), yw, lambda_r, theta_r)
    return cost, theta


def window_cost_and_grad(net: BasisNet, window, lambda_r: float, theta_r):
    """Window cost plus exact gradient w.r.t. every network parameter.

    An empty window contributes nothing: theta* degenerates to theta_r and
    the gradient is identically zero.
    """
    xw, uw, ew, yw = (np.asarray(a, dtype=float) for a in window)
    theta_r = np.asarray(theta_r, dtype=float).reshape(-1)
    if xw.shape[0] == 0:
        zero = {"W": [np.zeros_like(w) for w in net.weights],
                "b": [np.zeros_like(b) for b in net.biases]}
        return 0.0, theta_r.copy(), zero
    costs, theta, grads = _pack_cost_and_grad(net, xw, uw, ew, yw, np.array([0]),
                                              np.array([xw.shape[0]]), lambda_r, theta_r)
    return float(costs[0]), theta[0], grads


def gradcheck_meta(net: BasisNet, windows, lambda_r: float, theta_r,
                   h_step: float = 1e-5) -> float:
    """Compare the analytic meta-gradient against central finite differences.

    windows is a list of (x, u, e, y) tuples; the objective is the summed
    window cost. Returns the maximum elementwise relative error over all
    parameters. Everything runs in float64.
    """
    theta_r = np.asarray(theta_r, dtype=float)

    def total_cost(candidate: BasisNet) -> float:
        c = 0.0
        for w in windows:
            xw = np.asarray(w[0])
            if xw.shape[0] == 0:
                continue
            c += window_cost(candidate, w, lambda_r, theta_r)[0]
        return c

    grad_flat = np.zeros(net.get_flat_params().size)
    for w in windows:
        _, _, grads = window_cost_and_grad(net, w, lambda_r, theta_r)
        grad_flat += net.grads_to_flat(grads)

    probe = copy.deepcopy(net)
    base = net.get_flat_params()
    fd = np.zeros_like(base)
    for i in range(base.size):
        p = base.copy()
        p[i] = base[i] + h_step
        probe.set_flat_params(p)
        up = total_cost(probe)
        p[i] = base[i] - h_step
        probe.set_flat_params(p)
        down = total_cost(probe)
        fd[i] = (up - down) / (2.0 * h_step)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(grad_flat)), 1e-8)
    return float(np.max(np.abs(grad_flat - fd) / denom))

"""Offline meta-training of the basis network.

The trainer learns basis weights w such that, for any short window of logged
driving, a window-specific linear parameter vector solved in closed form
explains the measured dynamics residuals:

    theta*(w) = argmin_theta  sum_t ||y_t - (Phi_w(x_t, e_t) theta) u_t||^2
                              + lambda_r ||theta - theta_r||^2

    J(w) = sum_t ||y_t - (Phi_w theta*(w)) u_t||^2

With h_i = Phi_i u the per-sample model is linear in theta, y_t ~ H_t theta,
so theta* solves the ridge normal equations

    (sum_t H_t^T H_t + lambda_r I) theta* = sum_t H_t^T y_t + lambda_r theta_r

by Cholesky factorization (never an explicit inverse). The gradient of J
through theta* uses the implicit-function adjoint of that linear system:
one extra solve with the already-factored matrix per window, after which

    dJ/dH_t = r_t (2 theta* - mu)^T - (H_t mu) theta*^T,   r_t = H_t theta* - y_t,
    G mu = 2 sum_t H_t^T r_t,

and the chain rule pushes dJ/dH into the network. Each optimizer step is
followed by spectral normalization, so the constraint holds after every
training step, not just at the end.

Window costs in a minibatch are independent given the (read-only) network,
so a training step evaluates them together. It samples every window first,
sorts them by their first dataset row and packs neighbouring windows until
the distinct rows they cover would pass _PACK_ROWS. Windows of a step
overlap heavily (70 windows of up to 30 s on a log of a few minutes), so
each pack runs the network forward and backward once per distinct row, not
once per window row. Each window's rows are a contiguous slice of its
pack's sorted rows; the ridge fits and their adjoints run over those
slices in one batched Cholesky factorization, and each window's dJ/dH is
summed onto the rows it covers before the one backward pass.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import _ACTIVATIONS, BasisNet
from .serialize import load_arrays, save_arrays, write_csv

log = logging.getLogger(__name__)

# Distinct dataset rows per forward/backward pass in a training step.
# Neighbouring windows are packed while the rows they cover stay within this
# budget, and a longer window is a pack of its own. Larger packs share more
# rows between windows and amortize the per-call cost of the passes and the
# solves; the activations and the windows' rows of a pack grow with it. On
# the default trainer shape over 8000 rows (2-core host, one BLAS thread) a
# step took 68, 43, 31 and 28 ms at budgets 256, 512, 768 and 1024, and its
# traced peak memory was 1.8, 1.9, 2.3 and 3.1 MiB.
_PACK_ROWS = 768


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries diagnostics."""


@dataclass
class TrajectoryDataset:
    """Uniformly sampled driving logs: states, inputs, features, residuals.

    Arrays are stacked (n_traj, length, dim); dt is the sample period.
    """

    x: np.ndarray
    u: np.ndarray
    e: np.ndarray
    y: np.ndarray
    dt: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.e = np.asarray(self.e, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if not (self.x.ndim == self.u.ndim == self.e.ndim == self.y.ndim == 3):
            raise ValueError("dataset arrays must be (n_traj, length, dim)")
        shapes = {a.shape[:2] for a in (self.x, self.u, self.e, self.y)}
        if len(shapes) != 1:
            raise ValueError(f"dataset arrays disagree on (n_traj, length): {shapes}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        for name, a in (("x", self.x), ("u", self.u), ("e", self.e), ("y", self.y)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"dataset array {name} contains non-finite values")

    @property
    def n_traj(self):
        return self.x.shape[0]

    @property
    def length(self):
        return self.x.shape[1]

    def save(self, path, meta: dict | None = None):
        m = {"dt": self.dt}
        m.update(meta or {})
        save_arrays(path, {"x": self.x, "u": self.u, "e": self.e, "y": self.y},
                    kind="dataset", meta=m)

    @classmethod
    def load(cls, path) -> "TrajectoryDataset":
        arrays, meta = load_arrays(path, expect_kind="dataset")
        return cls(arrays["x"], arrays["u"], arrays["e"], arrays["y"], float(meta["dt"]))


@dataclass
class WindowSpec:
    """A contiguous slice of one trajectory: traj index, start, length."""

    traj: int
    start: int
    length: int

    def validate(self, dataset: TrajectoryDataset):
        if not 0 <= self.traj < dataset.n_traj:
            raise ValueError(f"trajectory index {self.traj} out of range")
        if self.length < 1 or self.length > dataset.length:
            raise ValueError(f"window length {self.length} invalid for trajectory "
                             f"of length {dataset.length}")
        if self.start < 0 or self.start + self.length > dataset.length:
            raise ValueError(f"window [{self.start}, {self.start + self.length}) "
                             f"exceeds trajectory length {dataset.length}")

    def slice(self, dataset: TrajectoryDataset):
        self.validate(dataset)
        sl = slice(self.start, self.start + self.length)
        return (dataset.x[self.traj, sl], dataset.u[self.traj, sl],
                dataset.e[self.traj, sl], dataset.y[self.traj, sl])


@dataclass
class TrainerConfig:
    """Meta-training settings. Defaults follow the published recipe where one
    exists (learning rate, regularization pull point, window bounds, windows
    per batch); sizes are desk scale."""

    learning_rate: float = 0.001
    theta_r: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    lambda_r: float = 0.1
    window_min_s: float = 1.2
    window_max_s: float = 30.0
    batch_windows: int = 70
    n_theta: int = 4
    hidden: tuple[int, ...] = (64, 64)
    activation: str = "tanh"
    max_iters: int = 1500
    conv_tol: float = 1e-5
    conv_window: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.lambda_r < 0:
            raise ValueError("learning_rate must be positive and lambda_r nonnegative")
        if not 0 < self.window_min_s <= self.window_max_s:
            raise ValueError("need 0 < window_min_s <= window_max_s")
        if self.batch_windows < 1 or self.max_iters < 1:
            raise ValueError("batch_windows and max_iters must be at least 1")
        if len(self.theta_r) != self.n_theta:
            raise ValueError(f"theta_r has {len(self.theta_r)} entries, n_theta={self.n_theta}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be at least 1, got {list(self.hidden)}")
        if self.conv_window < 1:
            raise ValueError(f"conv_window must be at least 1, got {self.conv_window}")
        if not self.conv_tol >= 0:
            raise ValueError(f"conv_tol must be nonnegative, got {self.conv_tol}")
        log.info(
            "trainer settings accepted: lr=%g theta_r=%s lambda_r=%g "
            "window=[%g, %g]s batch=%d n_theta=%d hidden=%s",
            self.learning_rate, tuple(self.theta_r), self.lambda_r,
            self.window_min_s, self.window_max_s, self.batch_windows,
            self.n_theta, tuple(self.hidden))


def build_h(phi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Stack h_i = Phi_i u as columns: (T, n_theta, n, m), (T, m) -> (T, n, n_theta)."""
    return np.einsum("tinm,tm->tni", phi, u)


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for a stack of lower Cholesky factors.

    chol is (W, k, k) and b is (W, k): one batched solve with L, then one
    with L^T.
    """
    z = np.linalg.solve(chol, b[:, :, None])
    return np.linalg.solve(chol.transpose(0, 2, 1), z)[:, :, 0]


def _ridge(h: np.ndarray, y: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
           lambda_r: float, theta_r: np.ndarray):
    """Ridge fits of windows stored back to back.

    h is (T, n, k) and y is (T, n); window j owns lengths[j] >= 1 rows from
    row starts[j]. Returns (chol, theta, r): the lower Cholesky factors of
    the windows' normal matrices (W, k, k), theta* (W, k) and the residual
    rows r_t = H_t theta* - y_t (T, n). Raises np.linalg.LinAlgError when a
    normal matrix is not positive definite.
    """
    n, k = h.shape[1:]
    rows = h.reshape(-1, k)
    gram = (np.add.reduceat(rows[:, :, None] * rows[:, None, :], starts * n)
            + lambda_r * np.eye(k))
    rhs = np.add.reduceat(np.einsum("tni,tn->ti", h, y), starts) + lambda_r * theta_r
    chol = np.linalg.cholesky(gram)
    theta = _cho_solve(chol, rhs)
    r = np.einsum("tni,ti->tn", h, np.repeat(theta, lengths, axis=0)) - y
    return chol, theta, r


def _pack_cost_and_grad(net: BasisNet, x, u, e, y, at, lengths,
                        lambda_r: float, theta_r: np.ndarray):
    """Costs, theta* and summed gradient of windows over one set of rows.

    x, u, e, y hold distinct rows; window j owns the lengths[j] >= 1 rows
    from row at[j]. One forward and one backward pass over the rows, one
    batched ridge solve plus adjoint over the windows' rows, with each
    window's dJ/dH summed onto the rows it covers. Returns (costs (W,),
    theta (W, n_theta), grads) where grads is the backward() dict, summed
    over every window.
    """
    phi, acts = net.forward_batch(x, e, want_cache=True)
    h = build_h(phi, u)
    starts = np.cumsum(lengths) - lengths
    take = np.arange(starts[-1] + lengths[-1]) + np.repeat(at - starts, lengths)
    h_w = h[take]
    chol, theta, r = _ridge(h_w, y[take], starts, lengths, lambda_r, theta_r)
    costs = np.add.reduceat(np.einsum("tn,tn->t", r, r), starts)
    # adjoint of the linear solves: one more solve with the same factors
    mu = _cho_solve(chol, 2.0 * np.add.reduceat(np.einsum("tni,tn->ti", h_w, r), starts))
    theta_t = np.repeat(theta, lengths, axis=0)
    mu_t = np.repeat(mu, lengths, axis=0)
    h_mu = np.einsum("tni,ti->tn", h_w, mu_t)
    d_h_w = (r[:, :, None] * (2.0 * theta_t - mu_t)[:, None, :]
             - h_mu[:, :, None] * theta_t[:, None, :])
    d_h = np.zeros_like(h)
    for first, start, length in zip(at.tolist(), starts.tolist(), lengths.tolist()):
        d_h[first:first + length] += d_h_w[start:start + length]
    d_phi = np.einsum("tni,tm->tinm", d_h, u)
    return costs, theta, net.backward(acts, d_phi)


def _packs(first, lengths, budget: int):
    """Pack windows sorted by first row into runs of neighbours.

    first and lengths are lists of ints, one per window, with first
    nondecreasing. Yields (lo, hi, rows, at): windows lo..hi-1 form a pack,
    rows are the distinct rows they cover in increasing order, and window
    lo + i owns rows[at[i]:at[i] + lengths[lo + i]]. Windows join a pack
    while its rows stay within budget; a pack covers more rows only when it
    is one window.
    """
    lo, runs, at, n = 0, [], [], 0
    for j, (s, length) in enumerate(zip(first, lengths)):
        joins = bool(runs) and s <= runs[-1][1]
        grow = max(s + length - runs[-1][1], 0) if joins else length
        if at and n + grow > budget:
            yield lo, j, _run_rows(runs), np.array(at)
            lo, runs, at, n = j, [], [], 0
            joins, grow = False, length
        if joins:   # overlaps or touches the last run of rows
            at.append(n - (runs[-1][1] - s))
            runs[-1][1] += grow
        else:
            at.append(n)
            runs.append([s, s + length])
        n += grow
    if at:
        yield lo, len(first), _run_rows(runs), np.array(at)


def _run_rows(runs):
    """The rows of disjoint [start, stop) runs, in order."""
    return np.concatenate([np.arange(a, b) for a, b in runs])


def minibatch_cost_and_grad(net: BasisNet, dataset: TrajectoryDataset, specs,
                            lambda_r: float, theta_r):
    """Per-window costs and the summed flat gradient of a list of windows.

    Sorts the windows by first row (stably) and runs packs of neighbours
    (see _PACK_ROWS), each over the distinct rows its windows cover.
    Returns (costs, grad) with costs in the order of specs.
    """
    for w in specs:
        w.validate(dataset)
    theta_r = np.asarray(theta_r, dtype=float).reshape(-1)
    first = [w.traj * dataset.length + w.start for w in specs]
    order = sorted(range(len(specs)), key=first.__getitem__)
    lengths = np.array([specs[j].length for j in order])
    flat = [a.reshape(-1, a.shape[2]) for a in (dataset.x, dataset.u, dataset.e, dataset.y)]
    costs = [0.0] * len(specs)
    grad = np.zeros(net.get_flat_params().size)
    for lo, hi, rows, at in _packs([first[j] for j in order], lengths.tolist(), _PACK_ROWS):
        c, _, grads = _pack_cost_and_grad(net, *(a[rows] for a in flat), at,
                                          lengths[lo:hi], lambda_r, theta_r)
        for j, cost in zip(order[lo:hi], c.tolist()):
            costs[j] = cost
        grad += net.grads_to_flat(grads)
    return costs, grad


def sample_window(rng, dataset: TrajectoryDataset, cfg: TrainerConfig) -> WindowSpec:
    """Random window: uniform trajectory, uniform length in seconds, uniform start."""
    traj = int(rng.integers(dataset.n_traj))
    length_s = rng.uniform(cfg.window_min_s, cfg.window_max_s)
    length = min(max(round(length_s / dataset.dt), 1), dataset.length)
    start = int(rng.integers(dataset.length - length + 1))
    return WindowSpec(traj, start, length)


class Adam:
    """Standard Adam on a flat parameter vector."""

    def __init__(self, size: int, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainResult:
    net: BasisNet
    history: list = field(default_factory=list)   # dicts: iteration, loss, wall_time_s
    converged: bool = False
    iterations: int = 0


def train_step(net: BasisNet, adam: Adam, dataset: TrajectoryDataset,
               cfg: TrainerConfig, rng) -> float:
    """One meta-iteration: sample windows, accumulate their gradients, Adam
    step, then re-project onto the spectral constraint. Returns the minibatch
    loss, the window costs summed in sampling order. A non-finite loss leaves
    the network untouched, so the caller can report the divergence instead
    of the projection failing on non-finite weights."""
    specs = [sample_window(rng, dataset, cfg) for _ in range(cfg.batch_windows)]
    costs, grad_flat = minibatch_cost_and_grad(net, dataset, specs, cfg.lambda_r, cfg.theta_r)
    total = 0.0
    for c in costs:   # a plain running sum, unlike sum() on Python >= 3.12
        total += c
    if not math.isfinite(total):
        return total
    net.set_flat_params(adam.step(net.get_flat_params(), grad_flat))
    net.spectral_normalize()
    return total


def train(dataset: TrajectoryDataset, cfg: TrainerConfig,
          net: BasisNet | None = None) -> TrainResult:
    """Run meta-training to convergence or the iteration cap.

    Deterministic for a fixed config seed: the same seed yields the same
    window sequence, loss history, and final weights. Convergence is declared
    when the mean loss over the last conv_window iterations changes by less
    than conv_tol relative to the previous conv_window block.
    """
    n = dataset.y.shape[2]
    m = dataset.u.shape[2]
    rng = np.random.default_rng(cfg.seed)
    if net is None:
        net = BasisNet.init(dataset.x.shape[2], dataset.e.shape[2], n, m,
                            cfg.n_theta, hidden=cfg.hidden,
                            activation=cfg.activation, rng=rng)
    adam = Adam(net.get_flat_params().size, cfg.learning_rate)
    result = TrainResult(net=net)
    losses = []
    t0 = time.perf_counter()
    for it in range(cfg.max_iters):
        loss = train_step(net, adam, dataset, cfg, rng)
        if not np.isfinite(loss):
            raise DivergenceError(
                f"non-finite minibatch loss at iteration {it}; "
                f"last losses: {losses[-5:]}, "
                f"max |param|: {np.max(np.abs(net.get_flat_params())):.3e}")
        losses.append(loss)
        result.history.append({"iteration": it, "loss": loss,
                               "wall_time_s": time.perf_counter() - t0})
        result.iterations = it + 1
        if len(losses) >= 2 * cfg.conv_window:
            prev = float(np.mean(losses[-2 * cfg.conv_window : -cfg.conv_window]))
            cur = float(np.mean(losses[-cfg.conv_window :]))
            if abs(prev - cur) < cfg.conv_tol * max(abs(prev), 1e-12):
                result.converged = True
                break
    return result


def write_loss_history(path, history) -> None:
    """Loss history CSV: iteration, minibatch loss, wall time since start."""
    write_csv(path, ["iteration", "loss", "wall_time_s"],
              [(h["iteration"], h["loss"], h["wall_time_s"]) for h in history])

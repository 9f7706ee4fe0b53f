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

by Cholesky factorization (never an explicit inverse). Both sides come from
one Gram: with Z = [H | y] a window's rows, Z^T Z holds sum_t H_t^T H_t and
sum_t H_t^T y_t. The gradient of J through theta* uses the implicit-function
adjoint of that linear system, with r_t = H_t theta* - y_t:

    dJ/dH_t = r_t (2 theta* - mu)^T - (H_t mu) theta*^T,   G mu = 2 sum_t H_t^T r_t,

and the normal equations give sum_t H_t^T r_t = lambda_r (theta_r - theta*),
so mu is one solve with the already-factored G, with no sum over rows. Per
window, one product Z [v | Q], with v = [theta*; -1] and
Q = v (2 theta* - mu)^T - [mu; 0] theta*^T, gives the residuals r = Z v
(the cost is r^T r, never a cancelling quadratic form) and dJ/dH = Z Q;
the chain rule pushes dJ/dH into the network. Each optimizer step is
followed by spectral normalization, so the constraint holds after every
training step, not just at the end.

Window costs in a minibatch are independent given the (read-only) network,
so a training step evaluates them together. It samples every window first,
sorts them by their first dataset row and cuts them into packs of
neighbours: windows that cover U distinct rows make round(U / _PACK_ROWS)
packs, at least one, each taking about an equal share of the new rows
(see _packs). Windows of a step overlap heavily (70 windows of up to 30 s
on a log of a few minutes), so each pack runs the network forward and
backward once per distinct row, not once per window row. Each window's
rows are a contiguous slice (a view) of its pack's sorted rows; its Gram
and its one product above run on that slice, the ridge fits and their
adjoints run in one batched Cholesky factorization, and each window's
dJ/dH is added onto the rows it covers before the one backward pass.

Given the network, the packs are independent too, so train() runs them on
one workers.Pool for all its steps: this process and a child per further
usable CPU, forked at the first step with two or more packs, once the
dataset and the network exist. A step sends the children the flat
parameters and its (traj, start, length) windows; every process cuts
them into the same packs and lists the rows of its own block of packs
only, computes them, and this process adds the packs' flat gradients in
pack order, so the result is the same bytes on any number of CPUs. A
step of one pack runs here and sends nothing, and a train() whose every
step is one pack forks nothing. Adam and the spectral projection run
here, on the sum. The window draws run here too: train() draws the
first step's windows before its first round, and each later step's
during the round before it, once this process's packs are done and
while the children finish theirs, so on a step of two or more packs
they overlap the children's work. The draws keep their order, one
after another from the seed, and none is made past the iteration cap.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .basis import _ACTIVATIONS, BasisNet
from .serialize import load_arrays, save_arrays, write_csv

log = logging.getLogger(__name__)

# Target distinct dataset rows per forward/backward pass in a training step.
# Windows that cover U distinct rows make round(U / _PACK_ROWS) packs, at
# least one, of about equal shares of those rows (see _packs), so a step of
# fewer than 1.5 x _PACK_ROWS rows is one pack and forks no worker. Larger
# packs share more rows between windows (a pack forwards again the rows it
# shares with the one before it) and amortize the per-call cost of the passes
# and the solves; a pack's activations grow with them, and fewer packs load
# the pool's CPUs less evenly. Two sweeps of train() on the benchmark
# workloads' datasets at seed 41 (2-core host, one BLAS thread, pool on both
# CPUs, 7 and 9 interleaved repeats) at targets 384, 768, 1152 and 1536 gave,
# per step and per train() (times over both sweeps):
#   circle-ackermann (U ~ 7500): 18.3, 9.9, 6.6 and 5.0 packs forwarding
#     10461, 8932, 8352 and 8145 rows, in 0.24-0.36, 0.24-0.31, 0.26-0.31 and
#     0.30-0.37 s, at traced peaks of 3.6, 4.3, 5.1 and 6.1 MiB;
#   offline-tracked (U ~ 1450): 3.9, 2.0, 1.0 and 1.0 packs, in 0.36-0.50,
#     0.38-0.47, 0.36-0.51 and 0.30-0.49 s, at 0.8, 1.4, 2.6 and 2.7 MiB;
#   closed-loop-tracked (U ~ 800): 2.0 packs at 384 and one above.
# The spread between the sweeps on that shared host is as wide as most gaps;
# only circle-ackermann was slower at 1536 than at 768 in both.
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
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dataset dt must be a positive finite period, got {self.dt}")
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
        if not (self.learning_rate > 0 and self.lambda_r >= 0):
            raise ValueError("learning_rate must be positive and lambda_r nonnegative")
        if not 0 < self.window_min_s <= self.window_max_s:
            raise ValueError("need 0 < window_min_s <= window_max_s")
        if self.batch_windows < 1 or self.max_iters < 1:
            raise ValueError("batch_windows and max_iters must be at least 1")
        if self.n_theta < 1:
            raise ValueError(f"n_theta must be at least 1, got {self.n_theta}")
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


def _ridge(gram: np.ndarray, lambda_r: float, theta_r: np.ndarray):
    """Ridge fits of windows from their Grams.

    gram is (W, k + 1, k + 1), window j's Z_j^T Z_j with Z_j = [H | y] its
    rows; its leading (k, k) block is sum_t H_t^T H_t and its last column
    sum_t H_t^T y_t. Returns (chol, theta): the lower Cholesky factors of
    the windows' normal matrices (W, k, k) and theta* (W, k). Raises
    np.linalg.LinAlgError when a normal matrix is not positive definite.
    """
    k = gram.shape[1] - 1
    chol = np.linalg.cholesky(gram[:, :k, :k] + lambda_r * np.eye(k))
    return chol, _cho_solve(chol, gram[:, :k, k] + lambda_r * theta_r)


def _pack_cost_and_grad(net: BasisNet, x, u, e, y, at, lengths,
                        lambda_r: float, theta_r: np.ndarray):
    """Costs, theta* and summed gradient of windows over one set of rows.

    x, u, e, y hold distinct rows; window j owns the lengths[j] >= 1 rows
    from row at[j]. One forward and one backward pass over the rows, and per
    window one Gram and one product on a view of its rows (see the module
    docstring). Returns (costs (W,), theta (W, n_theta), grads) where grads
    is the backward() dict, summed over every window.
    """
    phi, acts = net.forward_batch(x, e, want_cache=True)
    n, k = y.shape[1], phi.shape[1]
    z = np.concatenate([build_h(phi, u), y[:, :, None]], axis=2).reshape(-1, k + 1)
    spans = [(a * n, (a + length) * n) for a, length in zip(at.tolist(), lengths.tolist())]
    chol, theta = _ridge(np.stack([z[lo:hi].T @ z[lo:hi] for lo, hi in spans]),
                         lambda_r, theta_r)
    mu = _cho_solve(chol, 2.0 * lambda_r * (theta_r - theta))   # the adjoint
    v = np.concatenate([theta, np.full((len(spans), 1), -1.0)], axis=1)   # [theta*; -1]
    mu0 = np.concatenate([mu, np.zeros((len(spans), 1))], axis=1)         # [mu; 0]
    vq = np.concatenate([v[:, :, None], v[:, :, None] * (2.0 * theta - mu)[:, None, :]
                         - mu0[:, :, None] * theta[:, None, :]], axis=2)   # [v | Q]
    costs = np.empty(len(spans))
    d_h = np.zeros((len(z), k))
    for j, (lo, hi) in enumerate(spans):
        rq = z[lo:hi] @ vq[j]
        costs[j] = rq[:, 0] @ rq[:, 0]
        d_h[lo:hi] += rq[:, 1:]
    # dJ/dPhi_i = dJ/dh_i u^T per row, (T, n_theta, n, m), C-ordered for backward
    d_hi = np.ascontiguousarray(d_h.reshape(-1, n, k).transpose(0, 2, 1))
    return costs, theta, net.backward(acts, d_hi[:, :, :, None] * u[:, None, None, :])


def _packs(first, lengths, target: int) -> list:
    """Cut windows sorted by first row into even runs of neighbours.

    first and lengths are lists of ints, one per window, with first
    nondecreasing. Returns the bounds [0, ..., len(first)]: windows
    bounds[p] .. bounds[p + 1] - 1 form pack p, whose rows _pack_rows
    lists. The windows cover U distinct rows and make
    P = max(1, round(U / target)) packs (halves round up): a window opens
    a new pack where the running count of distinct rows passes k U / P,
    for k = 1 .. P - 1, with it. A window that passes two of these at
    once opens one pack, so windows longer than U / P can leave fewer
    than P. A pack's first window adds at most the longest window's L new
    rows, and the rest fewer than U / P; its windows start at or after
    those of the packs before it, so they share at most L rows with them.
    A pack thus covers at most ceil(U / P) + 2 L rows.
    """
    stop = np.add(first, lengths)
    reach = np.maximum.accumulate(stop)
    seen = np.concatenate([first[:1], reach[:-1]])
    count = np.cumsum(np.maximum(stop - np.maximum(first, seen), 0))
    total = int(count[-1])
    n_packs = max(1, (2 * total + target) // (2 * target))
    opens = np.searchsorted(count * n_packs, np.arange(1, n_packs) * total, side="right")
    return [0, *np.unique(opens[opens > 0]).tolist(), len(first)]


def _pack_rows(first, lengths):
    """(rows, at) of a pack: the distinct rows of windows sorted by first
    row, in order, and where each window's rows begin among them: window i
    owns rows[at[i]:at[i] + lengths[i]]."""
    runs, at, n = [], [], 0
    for s, length in zip(first, lengths):
        if runs and s <= runs[-1][1]:   # overlaps or touches the last run of rows
            at.append(n - (runs[-1][1] - s))
            grow = max(s + length - runs[-1][1], 0)
            runs[-1][1] += grow
        else:
            at.append(n)
            runs.append([s, s + length])
            grow = length
        n += grow
    return np.concatenate([np.arange(a, b) for a, b in runs]), np.array(at)


def _pack_pool(net: BasisNet, dataset: TrajectoryDataset, most: int) -> workers.Pool:
    """A pool of at most `most` processes for minibatch steps on net and dataset.

    Its payload is (flat params of net, [(traj, start, length), ...],
    lambda_r, theta_r). Every process sets its copy of net to the params
    (this one's are those already), sorts the windows by first row (stably)
    and cuts them into the same packs (see _packs), and job k lists pack
    k's rows and returns its (window indices, costs, flat gradient), so a
    process lists the rows of its own packs only.
    """
    flat = [a.reshape(-1, a.shape[2]) for a in (dataset.x, dataset.u, dataset.e, dataset.y)]

    def prepare(payload):
        params, windows, lambda_r, theta_r = payload
        net.set_flat_params(params)
        first = [traj * dataset.length + start for traj, start, _ in windows]
        order = sorted(range(len(windows)), key=first.__getitem__)
        first = [first[j] for j in order]
        lengths = [windows[j][2] for j in order]
        bounds = _packs(first, lengths, _PACK_ROWS)

        def job(k):
            lo, hi = bounds[k], bounds[k + 1]
            rows, at = _pack_rows(first[lo:hi], lengths[lo:hi])
            costs, _, grads = _pack_cost_and_grad(net, *(a[rows] for a in flat), at,
                                                  np.array(lengths[lo:hi]), lambda_r, theta_r)
            return order[lo:hi], costs.tolist(), net.grads_to_flat(grads)

        return job, len(bounds) - 1

    return workers.Pool(prepare, most)


def minibatch_cost_and_grad(net: BasisNet, dataset: TrajectoryDataset, specs,
                            lambda_r: float, theta_r, pool: workers.Pool | None = None,
                            meanwhile=None):
    """Per-window costs and the summed flat gradient of a list of windows.

    Runs the packs of neighbouring windows (see _pack_pool) on pool, a
    _pack_pool of this net and dataset, or else here, one after another;
    meanwhile(), if given, runs as workers.Pool.round runs it.
    The packs' gradients are added in pack order, so the sum does not
    depend on where they ran. Returns (costs, grad) with costs in the order
    of specs.
    """
    if pool is None:
        with _pack_pool(net, dataset, 1) as pool:
            return minibatch_cost_and_grad(net, dataset, specs, lambda_r, theta_r, pool,
                                           meanwhile)
    for w in specs:
        w.validate(dataset)
    params = net.get_flat_params()
    theta_r = np.asarray(theta_r, dtype=float).reshape(-1)
    costs = [0.0] * len(specs)
    grad = np.zeros(params.size)
    payload = (params, [(w.traj, w.start, w.length) for w in specs], lambda_r, theta_r)
    for ids, pack_costs, pack_grad in pool.round(payload, meanwhile):
        for j, cost in zip(ids, pack_costs):
            costs[j] = cost
        grad += pack_grad
    return costs, grad


def sample_window(rng, dataset: TrajectoryDataset, cfg: TrainerConfig) -> WindowSpec:
    """Random window: uniform trajectory, uniform length in seconds, uniform start."""
    traj = int(rng.integers(dataset.n_traj))
    length_s = rng.uniform(cfg.window_min_s, cfg.window_max_s)
    length = min(max(round(length_s / dataset.dt), 1), dataset.length)
    start = int(rng.integers(dataset.length - length + 1))
    return WindowSpec(traj, start, length)


def _sample_batch(rng, dataset: TrajectoryDataset, cfg: TrainerConfig) -> list:
    """A step's cfg.batch_windows windows, drawn one after another."""
    return [sample_window(rng, dataset, cfg) for _ in range(cfg.batch_windows)]


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
               cfg: TrainerConfig, rng, pool: workers.Pool | None = None,
               specs=None, meanwhile=None) -> float:
    """One meta-iteration: sample windows (unless specs gives them),
    accumulate their gradients (on pool, as minibatch_cost_and_grad does,
    with meanwhile), Adam step, then re-project onto the spectral
    constraint. Returns the minibatch loss, the window costs summed in
    sampling order. A non-finite loss leaves the network untouched, so the
    caller can report the divergence instead of the projection failing on
    non-finite weights."""
    if specs is None:
        specs = _sample_batch(rng, dataset, cfg)
    costs, grad_flat = minibatch_cost_and_grad(net, dataset, specs, cfg.lambda_r,
                                               cfg.theta_r, pool, meanwhile)
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
    window sequence, loss history, and final weights, on any number of
    CPUs. The steps' packs run on one _pack_pool of one process per usable
    CPU (at most one per window of a step), whose children are forked at
    the first step with two or more packs. Each step but the last draws
    the next step's windows while the other processes finish their packs,
    in the order of one draw after another. Convergence is declared when
    the mean loss over the last conv_window iterations changes by less
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
    specs = _sample_batch(rng, dataset, cfg)
    with _pack_pool(net, dataset, cfg.batch_windows) as pool:
        for it in range(cfg.max_iters):
            ahead = []      # the next step's windows, drawn during this step's round
            draw = None if it + 1 == cfg.max_iters else (
                lambda: ahead.extend(_sample_batch(rng, dataset, cfg)))
            loss = train_step(net, adam, dataset, cfg, rng, pool, specs, draw)
            specs = ahead
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

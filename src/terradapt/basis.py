"""Control-influence basis functions.

A basis maps (velocity state, terrain features) to a stack of n_theta
matrices of shape (n, m). Contracted with a parameter vector theta it yields
the additive correction to the nominal control influence matrix:

    B_hat = B_n + sum_i theta_i Phi_i(x, e).

Two implementations: a constant canonical indicator basis (terrain-blind,
theta carries everything), and a small fully-connected network trained
offline. The network is plain numpy with hand-written reverse-mode gradients
and a spectral-norm constraint on every weight matrix, which bounds the
network's Lipschitz constant by the product of layer norms because tanh is
1-Lipschitz. Each layer's norm is its largest singular value, computed
exactly by an SVD rather than estimated, so a projected layer sits at most
a rounding error above 1 and the bound holds as stated.

Output layout: the final layer produces a flat vector of n_theta * n * m
values, reshaped row-major with the theta index slowest, i.e. element
(i, r, c) of the stack sits at flat position i*n*m + r*m + c.
"""

from __future__ import annotations

import numpy as np

from .serialize import load_arrays, save_arrays

CHECKPOINT_KIND = "basis-checkpoint"
CHECKPOINT_VERSION = 1
_ACTIVATIONS = ("tanh", "identity")


class DimensionError(ValueError):
    """Input dimensions do not match what the basis was built for."""


def reshape_output(flat: np.ndarray, n_theta: int, n: int, m: int) -> np.ndarray:
    """Flat output vector(s) -> (..., n_theta, n, m), theta index slowest."""
    flat = np.asarray(flat)
    if flat.shape[-1] != n_theta * n * m:
        raise DimensionError(
            f"expected last dim {n_theta * n * m} (= {n_theta}*{n}*{m}), got {flat.shape[-1]}")
    return flat.reshape(flat.shape[:-1] + (n_theta, n, m))


def flatten_output(phi: np.ndarray) -> np.ndarray:
    """Inverse of reshape_output."""
    phi = np.asarray(phi)
    return phi.reshape(phi.shape[:-3] + (-1,))


class ConstantBasis:
    """Canonical indicator basis: Phi_k has a single 1 at entry (k//m, k%m).

    Terrain and state independent; with n = m = 2 the contraction with
    theta = (a, b, c, d) reconstructs [[a, b], [c, d]] exactly.
    """

    def __init__(self, n: int = 2, m: int = 2):
        self.n = n
        self.m = m
        self.n_theta = n * m
        phi = np.zeros((self.n_theta, n, m))
        for k in range(self.n_theta):
            phi[k, k // m, k % m] = 1.0
        phi.setflags(write=False)
        self._phi = phi

    def eval(self, x, e) -> np.ndarray:
        return self._phi


class BasisNet:
    """Fully-connected basis network with exact reverse-mode gradients.

    Weights are held as a list of (out, in) matrices plus bias vectors, all
    float64. Hidden layers use the configured activation; the output layer is
    affine. spectral_normalize() caps every weight matrix at unit operator
    norm (biases untouched), keeping the network 1-Lipschitz end to end.
    """

    def __init__(self, state_dim: int, feature_dim: int, n: int, m: int,
                 n_theta: int, hidden=(64, 64), activation: str = "tanh"):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {activation!r}")
        if min(state_dim, feature_dim, n, m, n_theta) < 1:
            raise ValueError("all basis dimensions must be positive")
        self.state_dim = state_dim
        self.feature_dim = feature_dim
        self.n = n
        self.m = m
        self.n_theta = n_theta
        self.hidden = tuple(int(h) for h in hidden)
        self.activation = activation
        dims = [state_dim + feature_dim, *self.hidden, n_theta * n * m]
        self.weights = [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
        self.biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]

    @classmethod
    def init(cls, state_dim, feature_dim, n, m, n_theta, hidden=(64, 64),
             activation="tanh", rng=None) -> "BasisNet":
        """Uniform fan-in initialization followed by one normalization pass."""
        rng = np.random.default_rng(rng)
        net = cls(state_dim, feature_dim, n, m, n_theta, hidden, activation)
        for i, w in enumerate(net.weights):
            bound = 1.0 / np.sqrt(w.shape[1])
            net.weights[i] = rng.uniform(-bound, bound, size=w.shape)
            net.biases[i] = rng.uniform(-bound, bound, size=net.biases[i].shape)
        net.spectral_normalize()
        return net

    # ---- forward / backward ----

    def _act(self, a):
        return np.tanh(a) if self.activation == "tanh" else a

    def _act_grad(self, z):
        # derivative expressed through the activation value z = act(a)
        return 1.0 - z * z if self.activation == "tanh" else np.ones_like(z)

    def _join(self, x, e) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        e = np.atleast_2d(np.asarray(e, dtype=float))
        if x.shape[0] != e.shape[0]:
            raise DimensionError(f"batch sizes differ: {x.shape[0]} vs {e.shape[0]}")
        return self._join_rows(x, e)

    def _join_rows(self, x: np.ndarray, e: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.state_dim:
            raise DimensionError(f"state input has dim {x.shape[1]}, expected {self.state_dim}")
        if e.shape[1] != self.feature_dim:
            raise DimensionError(f"feature input has dim {e.shape[1]}, expected {self.feature_dim}")
        return np.concatenate([x, e], axis=1)

    def forward_batch(self, x, e, want_cache: bool = False):
        """Evaluate the basis on a batch. Returns (T, n_theta, n, m).

        With want_cache=True also returns the layer activations needed by
        backward(). Never mutates the network.
        """
        return self._forward(self._join(x, e), want_cache)

    def eval(self, x, e) -> np.ndarray:
        """Single-sample forward pass, returns (n_theta, n, m); x and e are one
        sample each (a batch goes to forward_batch), run as a one-row batch."""
        x, e = np.asarray(x, dtype=float), np.asarray(e, dtype=float)
        if x.ndim != 1 or e.ndim != 1:
            raise DimensionError(f"eval takes one sample, got shapes {x.shape} and {e.shape}")
        return self._forward(self._join_rows(x[None, :], e[None, :]))[0]

    def _forward(self, z: np.ndarray, want_cache: bool = False):
        acts = [z]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = acts[-1] @ w.T + b
            acts.append(a if i == last else self._act(a))
        phi = reshape_output(acts[-1], self.n_theta, self.n, self.m)
        if want_cache:
            return phi, acts
        return phi

    def backward(self, acts, upstream) -> dict:
        """Exact gradients for a batch given upstream dJ/dPhi.

        acts is the cache from forward_batch; upstream has shape
        (T, n_theta, n, m). Returns {"W": [...], "b": [...]}, the weight
        and bias gradients summed over the batch.
        """
        g = flatten_output(np.asarray(upstream, dtype=float))
        if g.shape != (acts[0].shape[0], self.n_theta * self.n * self.m):
            raise DimensionError(
                f"upstream shape {np.asarray(upstream).shape} does not match batch "
                f"{acts[0].shape[0]} x ({self.n_theta},{self.n},{self.m})")
        d_w = [None] * len(self.weights)
        d_b = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            d_w[i] = g.T @ acts[i]
            d_b[i] = g.sum(axis=0)
            if i:
                g = (g @ self.weights[i]) * self._act_grad(acts[i])
        return {"W": d_w, "b": d_b}

    # ---- spectral constraint ----

    def spectral_normalize(self) -> None:
        """Divide each weight matrix by its operator norm when it exceeds 1.

        The norm is the largest singular value from an SVD, so every layer
        ends at most a rounding error above 1. Biases are left alone; a zero
        matrix is unchanged.
        """
        for i, sigma in enumerate(self.weight_norms()):
            if sigma > 1.0:
                self.weights[i] = self.weights[i] / sigma

    def weight_norms(self) -> list:
        """Operator norm (largest singular value) of every weight matrix."""
        return [float(np.linalg.svd(w, compute_uv=False)[0]) for w in self.weights]

    def lipschitz_bound(self) -> float:
        """Product of layer operator norms; valid because tanh is 1-Lipschitz."""
        return float(np.prod(self.weight_norms()))

    # ---- parameter vector helpers (used by training and gradchecks) ----

    def param_arrays(self) -> list:
        """(name, array) pairs in a fixed order; arrays are the live objects."""
        out = []
        for i in range(len(self.weights)):
            out.append((f"W{i}", self.weights[i]))
            out.append((f"b{i}", self.biases[i]))
        return out

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([a.reshape(-1) for _, a in self.param_arrays()])

    def set_flat_params(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        pos = 0
        for i in range(len(self.weights)):
            for holder, idx in ((self.weights, i), (self.biases, i)):
                n = holder[idx].size
                holder[idx] = vec[pos : pos + n].reshape(holder[idx].shape).copy()
                pos += n
        if pos != vec.size:
            raise DimensionError(f"parameter vector has {vec.size} entries, expected {pos}")

    def grads_to_flat(self, grads: dict) -> np.ndarray:
        parts = []
        for i in range(len(self.weights)):
            parts.append(grads["W"][i].reshape(-1))
            parts.append(grads["b"][i].reshape(-1))
        return np.concatenate(parts)

    # ---- persistence ----

    def save(self, path, extra_meta: dict | None = None) -> None:
        arrays = {}
        for i in range(len(self.weights)):
            arrays[f"W{i}"] = self.weights[i]
            arrays[f"b{i}"] = self.biases[i]
        meta = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "activation": self.activation,
            "state_dim": self.state_dim,
            "feature_dim": self.feature_dim,
            "n": self.n,
            "m": self.m,
            "n_theta": self.n_theta,
            "hidden": list(self.hidden),
        }
        if extra_meta:
            for k in extra_meta:
                if k in meta:
                    raise ValueError(f"extra_meta may not override checkpoint key {k!r}")
            meta.update(extra_meta)
        save_arrays(path, arrays, kind=CHECKPOINT_KIND, meta=meta)

    @classmethod
    def load(cls, path) -> "BasisNet":
        return load_checkpoint(path)[0]


def load_checkpoint(path) -> tuple[BasisNet, dict]:
    """Network and header of a checkpoint, from one read of the file."""
    arrays, meta = load_arrays(path, expect_kind=CHECKPOINT_KIND)
    if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('checkpoint_version')}")
    net = BasisNet(meta["state_dim"], meta["feature_dim"], meta["n"], meta["m"],
                   meta["n_theta"], hidden=tuple(meta["hidden"]), activation=meta["activation"])
    for i in range(len(net.weights)):
        w = arrays[f"W{i}"]
        b = arrays[f"b{i}"]
        if w.shape != net.weights[i].shape or b.shape != net.biases[i].shape:
            raise ValueError(f"checkpoint layer {i} has shape {w.shape}, "
                             f"expected {net.weights[i].shape}")
        net.weights[i] = w.astype(float)
        net.biases[i] = b.astype(float)
    return net, meta

"""Basis functions: output layout, contraction, spectral constraint, gradients."""

import numpy as np
import pytest

from oracles import contract
from terradapt.basis import (
    BasisNet,
    CHECKPOINT_VERSION,
    ConstantBasis,
    DimensionError,
    flatten_output,
    load_checkpoint,
    reshape_output,
)
from terradapt.serialize import ContainerError, load_arrays, save_arrays


# ------------------------------------------------------------------ layout


def test_reshape_layout_theta_index_slowest():
    n_theta, n, m = 3, 2, 2
    flat = np.arange(n_theta * n * m, dtype=float)
    phi = reshape_output(flat, n_theta, n, m)
    for i in range(n_theta):
        for r in range(n):
            for c in range(m):
                assert phi[i, r, c] == i * n * m + r * m + c
    np.testing.assert_array_equal(flatten_output(phi), flat)


def test_reshape_batch_and_errors():
    flat = np.ones((5, 12))
    assert reshape_output(flat, 3, 2, 2).shape == (5, 3, 2, 2)
    with pytest.raises(DimensionError):
        reshape_output(np.ones(11), 3, 2, 2)


def test_contract_matches_loop_oracle():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((4, 2, 3))
    theta = rng.standard_normal(4)
    want = sum(theta[i] * phi[i] for i in range(4))
    np.testing.assert_allclose(contract(phi, theta), want, rtol=1e-14)
    # batched form agrees sample by sample
    phis = rng.standard_normal((7, 4, 2, 3))
    got = contract(phis, theta)
    for t in range(7):
        np.testing.assert_allclose(got[t], contract(phis[t], theta), rtol=1e-14)


def test_contract_dimension_errors():
    with pytest.raises(DimensionError):
        contract(np.ones((4, 2, 2)), np.ones(3))
    with pytest.raises(DimensionError):
        contract(np.ones((2, 2)), np.ones(2))


def test_constant_basis_is_canonical():
    basis = ConstantBasis(2, 2)
    theta = np.array([1.5, -2.0, 0.25, 7.0])
    np.testing.assert_array_equal(contract(basis.eval(None, None), theta),
                                  [[1.5, -2.0], [0.25, 7.0]])
    phi = basis.eval(np.zeros(2), np.zeros(8))
    assert phi.shape == (4, 2, 2)
    assert np.sum(phi) == 4.0  # one unit entry per stack slice
    with pytest.raises(ValueError):
        basis.eval(None, None)[0, 0, 0] = 2.0  # frozen


def test_constant_basis_rectangular():
    basis = ConstantBasis(2, 1)
    theta = np.array([3.0, -4.0])
    np.testing.assert_array_equal(contract(basis.eval(None, None), theta), [[3.0], [-4.0]])


# ------------------------------------------------------ spectral constraint


def test_normalize_caps_every_layer_at_unit_norm():
    net = BasisNet.init(2, 8, 2, 2, 4, hidden=(32, 16), rng=0)
    # init() already normalizes once; scale a layer back up and renormalize
    net.weights[1] = net.weights[1] * 5.0
    net.spectral_normalize()
    for w in net.weights:
        assert np.linalg.svd(w, compute_uv=False)[0] <= 1.0 + 1e-6


def test_normalize_leaves_contractive_layers_alone():
    net = BasisNet(2, 4, 2, 2, 4, hidden=(8,))
    rng = np.random.default_rng(2)
    small = 0.1 * rng.standard_normal((8, 6))
    net.weights[0] = small.copy()
    net.spectral_normalize()
    np.testing.assert_array_equal(net.weights[0], small)
    # orthogonal layer (norm exactly 1) is untouched too
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    net2 = BasisNet(2, 6, 2, 2, 4, hidden=(8,))
    net2.weights[0] = q.copy()
    net2.spectral_normalize()
    np.testing.assert_allclose(net2.weights[0], q, atol=1e-12)


def _svd_norm(w):
    return np.linalg.svd(w, compute_uv=False)[0]


def test_normalize_is_exact_to_rounding():
    # the projected norm is the SVD's own, not an estimate below it
    eps = np.finfo(float).eps
    rng = np.random.default_rng(21)
    net = BasisNet(3, 10, 2, 2, 4, hidden=(24, 24))
    for _ in range(20):
        for i, w in enumerate(net.weights):
            net.weights[i] = rng.uniform(1.0, 50.0) * rng.standard_normal(w.shape)
        net.spectral_normalize()
        for w in net.weights:
            assert _svd_norm(w) <= 1.0 + 8 * eps


def test_normalize_keeps_zero_layer_zero():
    net = BasisNet.init(2, 4, 2, 2, 4, hidden=(8, 8), rng=3)
    net.weights[1] = np.zeros_like(net.weights[1])
    net.spectral_normalize()
    np.testing.assert_array_equal(net.weights[1], 0.0)
    assert net.weight_norms()[1] == 0.0
    assert all(np.isfinite(w).all() for w in net.weights)


def test_lipschitz_bound_is_product_of_svd_norms():
    net = BasisNet.init(2, 8, 2, 2, 4, hidden=(16, 12), rng=4)
    rng = np.random.default_rng(8)
    # layers below the unit bound, so the product is not trivially 1
    for i, w in enumerate(net.weights):
        net.weights[i] = rng.uniform(0.2, 0.9) * w
    svd_norms = [_svd_norm(w) for w in net.weights]
    assert net.weight_norms() == svd_norms
    assert net.lipschitz_bound() == float(np.prod(svd_norms))
    assert net.lipschitz_bound() < 0.9


def test_lipschitz_bound_holds_empirically():
    net = BasisNet.init(2, 8, 2, 2, 4, hidden=(16, 16), rng=1)
    bound = net.lipschitz_bound()
    rng = np.random.default_rng(5)
    n_pairs = 10000
    xa, xb = rng.normal(size=(2, n_pairs, 2))
    ea, eb = 3.0 * rng.normal(size=(2, n_pairs, 8))
    fa = flatten_output(net.forward_batch(xa, ea))
    fb = flatten_output(net.forward_batch(xb, eb))
    num = np.linalg.norm(fa - fb, axis=1)
    den = np.linalg.norm(np.concatenate([xa - xb, ea - eb], axis=1), axis=1)
    assert np.all(num <= bound * den * (1.0 + 1e-6))


# ---------------------------------------------------------------- gradients


def _loss_and_grads(net, x, e, upstream):
    phi, acts = net.forward_batch(x, e, want_cache=True)
    loss = float(np.sum(phi * upstream))
    return loss, net.backward(acts, upstream)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    net = BasisNet.init(2, 3, 2, 2, 3, hidden=(7, 5), rng=3)
    x = rng.standard_normal((4, 2))
    e = rng.standard_normal((4, 3))
    upstream = rng.standard_normal((4, 3, 2, 2))
    _, grads = _loss_and_grads(net, x, e, upstream)
    flat_grad = net.grads_to_flat(grads)
    p0 = net.get_flat_params()
    h = 1e-6
    idx = rng.choice(p0.size, size=60, replace=False)
    for k in idx:
        for sign, store in ((1, "hi"), (-1, "lo")):
            p = p0.copy()
            p[k] += sign * h
            net.set_flat_params(p)
            val = float(np.sum(net.forward_batch(x, e) * upstream))
            if sign == 1:
                hi = val
            else:
                lo = val
        fd = (hi - lo) / (2 * h)
        assert abs(fd - flat_grad[k]) <= 1e-6 + 1e-5 * abs(fd)
    net.set_flat_params(p0)


def test_linear_net_gradients_closed_form():
    """With identity activation and no hidden layer the gradients are exactly
    dW = g^T z, db = sum g."""
    rng = np.random.default_rng(21)
    net = BasisNet(2, 3, 2, 2, 2, hidden=(), activation="identity")
    net.weights[0] = rng.standard_normal(net.weights[0].shape)
    net.biases[0] = rng.standard_normal(net.biases[0].shape)
    x = rng.standard_normal((5, 2))
    e = rng.standard_normal((5, 3))
    upstream = rng.standard_normal((5, 2, 2, 2))
    _, grads = _loss_and_grads(net, x, e, upstream)
    g = upstream.reshape(5, -1)
    z = np.concatenate([x, e], axis=1)
    np.testing.assert_allclose(grads["W"][0], g.T @ z, rtol=1e-13)
    np.testing.assert_allclose(grads["b"][0], g.sum(axis=0), rtol=1e-13)


def test_forward_backward_do_not_mutate_weights():
    net = BasisNet.init(2, 4, 2, 2, 4, hidden=(6,), rng=2)
    before = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
    x = np.random.default_rng(0).standard_normal((3, 2))
    e = np.random.default_rng(1).standard_normal((3, 4))
    phi, acts = net.forward_batch(x, e, want_cache=True)
    net.backward(acts, np.ones_like(phi))
    after = [w for w in net.weights] + [b for b in net.biases]
    for b0, b1 in zip(before, after):
        np.testing.assert_array_equal(b0, b1)


def test_init_is_deterministic():
    n1 = BasisNet.init(2, 8, 2, 2, 4, rng=7)
    n2 = BasisNet.init(2, 8, 2, 2, 4, rng=7)
    for w1, w2 in zip(n1.weights, n2.weights):
        np.testing.assert_array_equal(w1, w2)


def test_input_dimension_errors():
    net = BasisNet.init(2, 4, 2, 2, 4, rng=0)
    with pytest.raises(DimensionError):
        net.eval(np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionError):
        net.eval(np.zeros(2), np.zeros(5))
    with pytest.raises(DimensionError):
        net.forward_batch(np.zeros((2, 2)), np.zeros((3, 4)))
    with pytest.raises(ValueError):
        BasisNet(2, 4, 2, 2, 4, activation="relu")
    with pytest.raises(ValueError):
        BasisNet(0, 4, 2, 2, 4)


def test_eval_takes_one_sample():
    """eval is the one-row path: a batch, a (1, d) row or a scalar is refused,
    the width checks hold, and a sample gives what forward_batch gives for
    it as a one-row batch, bit for bit."""
    net = BasisNet.init(2, 4, 2, 2, 4, hidden=(8, 8), rng=3)
    rng = np.random.default_rng(4)
    x, e = rng.standard_normal((5, 2)), rng.standard_normal((5, 4))
    for bad_x, bad_e in ((x, e), (x[:1], e[:1]), (x[0], e[:1]), (x[:1], e[0]),
                         (1.0, e[0])):
        with pytest.raises(DimensionError, match="one sample"):
            net.eval(bad_x, bad_e)
    with pytest.raises(DimensionError, match="state input has dim 3"):
        net.eval((0.0, 0.0, 0.0), e[0])
    with pytest.raises(DimensionError, match="feature input has dim 5"):
        net.eval(x[0], np.zeros(5))
    for k in range(5):
        phi = net.eval(tuple(x[k].tolist()), e[k])
        assert phi.shape == (4, 2, 2)
        np.testing.assert_array_equal(phi, net.forward_batch(x[k:k + 1], e[k:k + 1])[0])


# -------------------------------------------------------------- persistence


def test_save_load_roundtrip_bit_exact(tmp_path):
    net = BasisNet.init(2, 8, 2, 2, 4, hidden=(16, 8), rng=5)
    path = tmp_path / "b.tdc"
    net.save(path)
    net2 = BasisNet.load(path)
    for w1, w2 in zip(net.weights, net2.weights):
        np.testing.assert_array_equal(w1, w2)
    x = np.random.default_rng(2).standard_normal((4, 2))
    e = np.random.default_rng(3).standard_normal((4, 8))
    np.testing.assert_array_equal(net.forward_batch(x, e), net2.forward_batch(x, e))


def test_save_is_deterministic(tmp_path):
    net = BasisNet.init(2, 8, 2, 2, 4, rng=5)
    p1, p2 = tmp_path / "a.tdc", tmp_path / "b.tdc"
    net.save(p1)
    net.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_extra_meta_roundtrip_and_protection(tmp_path):
    net = BasisNet.init(2, 4, 2, 2, 4, rng=0)
    path = tmp_path / "m.tdc"
    net.save(path, extra_meta={"theta_r": [1, 1, 1, 1], "train_seed": 3})
    _, meta = load_checkpoint(path)
    assert meta["theta_r"] == [1, 1, 1, 1]
    assert meta["train_seed"] == 3
    assert meta["n_theta"] == 4
    with pytest.raises(ValueError, match="override"):
        net.save(path, extra_meta={"n_theta": 9})


def test_load_rejects_bad_version_kind_and_shape(tmp_path):
    net = BasisNet.init(2, 4, 2, 2, 4, hidden=(6,), rng=0)
    good = tmp_path / "good.tdc"
    net.save(good)
    arrays, meta = load_arrays(good)

    wrong_version = tmp_path / "v.tdc"
    meta_v = dict(meta, checkpoint_version=CHECKPOINT_VERSION + 1)
    save_arrays(wrong_version, arrays, kind="basis-checkpoint", meta=meta_v)
    with pytest.raises(ValueError, match="version"):
        BasisNet.load(wrong_version)

    wrong_kind = tmp_path / "k.tdc"
    save_arrays(wrong_kind, arrays, kind="dataset", meta=meta)
    with pytest.raises(ContainerError, match="kind"):
        BasisNet.load(wrong_kind)

    bad_shape = tmp_path / "s.tdc"
    arrays_s = dict(arrays)
    arrays_s["W0"] = arrays_s["W0"][:-1]
    save_arrays(bad_shape, arrays_s, kind="basis-checkpoint", meta=meta)
    with pytest.raises(ValueError, match="shape"):
        BasisNet.load(bad_shape)

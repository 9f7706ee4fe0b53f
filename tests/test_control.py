"""Adaptive controller: references, linearization, adaptation laws, loops."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from oracles import as_array, contract, derivative, lyapunov_value, plant_step
from terradapt.basis import ConstantBasis
from terradapt.control import (
    AckermannController,
    AdaptParams,
    AdaptState,
    Gains,
    LowPassFilter,
    PositionReferenceTracker,
    ReferenceState,
    ResidualFilter,
    TrackedController,
    adapt_step,
    control_ackermann,
    cond_2x2,
    control_tracked,
    lateral_errors,
    nominal_residuals,
    reference_velocities,
    tracking_error,
)
from terradapt.vehicles import (
    AckermannInput,
    AckermannParams,
    AckermannState,
    TrackedInput,
    TrackedParams,
    TrackedState,
    wrap_angle,
)


# ------------------------------------------------------------------- gains


def test_published_tracked_settings_accepted(caplog):
    with caplog.at_level(logging.INFO, logger="terradapt.control"):
        Gains(k_dx=0.05, k_domega=0.1)
        AdaptParams(lam=0.01, r_diag=(0.1, 0.1), q_diag=(1.0, 1.0, 1.0, 1.0), gamma0=0.01)
    assert any("accepted" in r.message for r in caplog.records)


def test_published_ackermann_settings_accepted(caplog):
    with caplog.at_level(logging.INFO, logger="terradapt.control"):
        Gains(k_p=1.0, k_v=1.0)
        AdaptParams(lam=0.05, r_diag=(0.01, 0.01), q_diag=(1.0, 1.0), gamma0=1.5)
    assert any("accepted" in r.message for r in caplog.records)


def test_gain_validation():
    with pytest.raises(ValueError):
        Gains(k_px=0.0)
    with pytest.raises(ValueError):
        Gains(v_eps=-1.0)
    with pytest.raises(ValueError):
        Gains(k_p=0.0)
    with pytest.raises(ValueError):
        Gains(k_dx=math.nan)
    with pytest.raises(ValueError):
        Gains(b_min=0.0)
    with pytest.raises(ValueError):
        AdaptParams(r_diag=(0.1, 0.1, 0.1))    # the residual has two channels
    with pytest.raises(ValueError):
        AdaptParams(lam=-0.1)
    with pytest.raises(ValueError):
        AdaptParams(r_diag=(0.0, 0.1))
    with pytest.raises(ValueError):
        AdaptParams(q_diag=(-1.0,))
    with pytest.raises(ValueError):
        AdaptParams(gamma0=1e-5)  # below gamma_min
    with pytest.raises(ValueError):
        AdaptParams(gamma0=10.0, gamma_max=5.0)


def test_adapt_params_build_weights_once():
    """R^-1 for both residual channels and the Q entries are built once, as
    Python floats, from frozen fields."""
    p = AdaptParams(r_diag=(0.1, 0.4), q_diag=(0.5,))
    assert p.r_inv == (1.0 / 0.1, 1.0 / 0.4) and p.q == (0.5,)
    assert all(type(v) is float for v in p.r_inv + p.q)
    assert AdaptParams(r_diag=(0.4,)).r_inv == (2.5, 2.5)  # one entry for both channels
    with pytest.raises(AttributeError):
        p.lam = 0.5
    with pytest.raises(AttributeError):
        p.r_inv = (1.0, 1.0)
    # a caller's array is copied, not frozen in place
    q = np.array([0.2, 0.3])
    copied = AdaptParams(q_diag=q)
    q[0] = 0.25
    assert copied.q == (0.2, 0.3)


def test_adapt_state_validation():
    """fresh() is the one checked constructor: the laws build every later
    state from it. Its gain comes from the checked AdaptParams."""
    fresh = AdaptState.fresh(4, AdaptParams())
    np.testing.assert_array_equal(fresh.theta_hat, np.zeros(4))
    np.testing.assert_array_equal(fresh.gain, np.full(4, 0.01))
    fresh_m = AdaptState.fresh(3, AdaptParams(law="matrix", q_diag=(1.0,) * 3))
    np.testing.assert_array_equal(fresh_m.gain, 0.01 * np.eye(3))
    theta0 = np.array([0.1, 0.2])
    started = AdaptState.fresh(2, AdaptParams(q_diag=(1.0,)), theta0=theta0)
    np.testing.assert_array_equal(started.theta_hat, theta0)
    theta0[0] = 9.0                         # the caller's array is copied
    assert started.theta_hat[0] == 0.1
    with pytest.raises(ValueError):
        AdaptParams(law="kalman")
    for bad in ([1.0, 2.0], [0.0, 0.0, 0.0, math.nan], [0.0, math.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="theta0 must give 4 finite entries"):
            AdaptState.fresh(4, AdaptParams(), theta0=bad)


# ------------------------------------------------------------------ filters


def test_lowpass_first_sample_initializes():
    lpf = LowPassFilter(2.0)
    out = lpf.update(np.array([3.0, -1.0]), 0.05)
    np.testing.assert_array_equal(out, [3.0, -1.0])


def test_lowpass_geometric_step_response():
    lpf = LowPassFilter(2.0)
    dt = 0.05
    alpha = dt / (lpf.tau + dt)
    lpf.update(np.zeros(1), dt)
    state = 0.0
    for _ in range(10):
        out = float(lpf.update(np.ones(1), dt)[0])
        state = state + alpha * (1.0 - state)
        assert out == pytest.approx(state, rel=1e-12)
    lpf.reset()
    assert lpf.state is None


def test_lowpass_white_noise_variance_gain():
    lpf = LowPassFilter(2.0)
    dt = 0.05
    alpha = dt / (lpf.tau + dt)
    rng = np.random.default_rng(0)
    out = [float(lpf.update(np.array([v]), dt)[0]) for v in rng.standard_normal(20000)]
    got = np.var(out[200:])
    assert got == pytest.approx(alpha / (2.0 - alpha), rel=0.2)


def test_lowpass_validation():
    with pytest.raises(ValueError):
        LowPassFilter(0.0)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_lowpass_rounds_each_channel_as_one_step(channels):
    """Each channel's update is f + alpha * (v - f), bit for bit."""
    lpf = LowPassFilter(2.0)
    dt = 0.05
    alpha = dt / (lpf.tau + dt)
    samples = np.random.default_rng(channels).normal(size=(50, channels)).tolist()
    want = tuple(samples[0])
    assert lpf.update(samples[0], dt) == want
    for x in samples[1:]:
        want = tuple(f + alpha * (v - f) for f, v in zip(want, x))
        got = lpf.update(x, dt)
        assert type(got) is tuple and got == want


def test_lowpass_refuses_a_channel_count_change():
    lpf = LowPassFilter(2.0)
    lpf.update((1.0, 2.0), 0.05)
    for bad in ((1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(ValueError, match="expected 2 channels"):
            lpf.update(bad, 0.05)
    assert lpf.state == (1.0, 2.0)


def test_residual_zero_for_nominal_plant():
    params = TrackedParams()
    rf = ResidualFilter(2.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.uniform(-1, 1, 2)
        u = rng.uniform(-1, 1, 2)
        vdot = params.a_n() @ v + params.b_n() @ u
        rf.reset()
        y = rf.residual(vdot, v, u, params.a_n(), params.b_n(), 0.05)
        np.testing.assert_allclose(y, 0.0, atol=1e-14)


def test_residual_recovers_terrain_mismatch():
    # plant with eta != 1 driven steadily: y -> (diag(eta) - I) B_n u
    params = TrackedParams()
    eta = np.array([0.7, 1.2])
    v = np.array([0.8, -0.3])
    u = np.array([1.1, 0.5])
    vdot_true = params.a_n() @ v + np.diag(eta) @ params.b_n() @ u
    rf = ResidualFilter(2.0)
    y = rf.residual(vdot_true, v, u, params.a_n(), params.b_n(), 0.05)
    np.testing.assert_allclose(y, (np.diag(eta) - np.eye(2)) @ params.b_n() @ u,
                               rtol=1e-12)


def test_residual_with_column_influence():
    # Ackermann-style single-input form: b_n is a (2, 1) column
    a = np.array([[-2.0, -1.0], [0.0, -3.0]])
    b = np.array([[7.5], [30.0]])
    rf = ResidualFilter(2.0)
    v = np.array([0.1, 0.2])
    vdot = a @ v + (b @ np.array([0.3]))
    y = rf.residual(vdot, v, [0.3], a, b, 0.05)
    np.testing.assert_allclose(y, 0.0, atol=1e-14)


def test_residuals_equal_residual_loop():
    """The nominal model subtracted from a whole trajectory of rows that
    update() low-passed equals one residual() per row, for the tracked
    (shared diagonal) and Ackermann (per-row A_n, column B_n) forms."""
    rng = np.random.default_rng(5)
    n = 500
    vdot, v = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    tracked = TrackedParams(k1=1.3, k2=0.8)
    car = AckermannParams()
    cases = [
        (rng.normal(size=(n, 2)),
         np.broadcast_to(tracked.a_n(), (n, 2, 2)), np.broadcast_to(tracked.b_n(), (n, 2, 2))),
        (rng.normal(size=(n, 1)),
         np.array([car.a_n(s) for s in rng.uniform(0.2, 3.0, n)]),
         np.broadcast_to(car.b_n().reshape(2, 1), (n, 2, 1))),
        (rng.normal(size=(n, 2)), rng.normal(size=(n, 2, 2)), rng.normal(size=(n, 2, 2))),
    ]
    lpf = LowPassFilter(2.0)
    filtered = np.array([lpf.update(row, 0.05) for row in vdot.tolist()])
    for u, a_n, b_n in cases:
        single = ResidualFilter(2.0)
        want = np.array([single.residual(vdot[k], v[k], u[k], a_n[k], b_n[k], 0.05)
                         for k in range(n)])
        np.testing.assert_array_equal(nominal_residuals(filtered, v, u, a_n, b_n), want)


# -------------------------------------------------------------- references


def test_reference_straight_line_tracking():
    g = Gains()
    ref = reference_velocities([0.0, 0.0], 0.0, [0.0, 0.0], [1.0, 0.0], 0.0, g)
    np.testing.assert_allclose(ref.v_ref, [1.0, 0.0], atol=1e-15)
    assert ref.psi_ref == 0.0


def test_reference_points_at_offset_target():
    g = Gains()
    # target one meter up: desired motion is straight +y, heading pi/2
    ref = reference_velocities([0.0, 0.0], 0.0, [0.0, 1.0], [0.0, 0.0], 0.0, g)
    assert ref.v_ref[0] == pytest.approx(0.0, abs=1e-15)  # +y is sideways at psi=0
    assert ref.psi_ref == pytest.approx(math.pi / 2)
    assert ref.v_ref[1] == pytest.approx(g.k_psi * math.pi / 2)


def test_reference_heading_falls_back_below_speed_threshold():
    g = Gains()
    ref = reference_velocities([2.0, 3.0], 0.4, [2.0, 3.0], [0.0, 0.0], 1.1, g)
    assert ref.psi_ref == 1.1  # turn-in-place uses the desired heading
    assert ref.v_ref[1] == pytest.approx(-g.k_psi * wrap_angle(0.4 - 1.1))


def test_reference_error_gains_enter_componentwise():
    g = Gains(k_px=0.5, k_py=2.0)
    ref = reference_velocities([1.0, 1.0], 0.0, [0.0, 0.0], [0.0, 0.0], 0.0, g)
    # v_ref^I = -[0.5, 2.0]; forward part is its x component at psi = 0
    assert ref.v_ref[0] == pytest.approx(-0.5)
    assert ref.psi_ref == pytest.approx(math.atan2(-2.0, -0.5))


def test_tracking_error_definition():
    ref = ReferenceState(np.array([1.0, 0.2]), np.zeros(2), 0.0, 0.0)
    np.testing.assert_allclose(tracking_error([1.3, -0.1], ref), [0.3, -0.3])


def test_position_tracker_first_step_and_statics():
    tracker = PositionReferenceTracker(Gains())
    ref = tracker.step([0.0, 0.0], 0.0, [1.0, 0.0], [0.5, 0.0], 0.0, 0.05)
    assert ref.psi_dot_ref == 0.0
    np.testing.assert_array_equal(ref.vdot_ref, [0.0, 0.0])
    # unchanged inputs: derivatives stay zero
    ref2 = tracker.step([0.0, 0.0], 0.0, [1.0, 0.0], [0.5, 0.0], 0.0, 0.05)
    assert ref2.psi_dot_ref == 0.0
    np.testing.assert_allclose(ref2.vdot_ref, [0.0, 0.0], atol=1e-15)


def test_position_tracker_wraps_reference_heading_rate():
    tracker = PositionReferenceTracker(Gains())
    tracker.step([0.0, 0.0], 3.0, [-10.0, -0.7], [0.0, 0.0], 0.0, 0.05)
    first = tracker.prev_psi_ref
    assert first == pytest.approx(math.atan2(-0.7 * 0.8, -10 * 0.8))
    # move the target so psi_ref crosses the branch cut; the rate stays small
    ref = tracker.step([0.0, 0.0], 3.0, [-10.0, 0.7], [0.0, 0.0], 0.0, 0.05)
    jump = wrap_angle(ref.psi_ref - first)
    assert abs(ref.psi_dot_ref) <= abs(jump) / 0.05 + 1e-9
    assert abs(ref.psi_dot_ref) < 3.0  # no 2 pi / dt spike


# ---------------------------------------------------------- linearization


def test_control_tracked_inverts_nominal_dynamics():
    params = TrackedParams()
    gains = Gains()
    s = np.array([0.2, -0.1])
    ref = ReferenceState(np.array([1.0, 0.3]), np.array([0.15, -0.05]), 0.0, 0.0)
    u, info = control_tracked(s, ref, None, None, params, gains)
    k = np.diag([gains.k_dx, gains.k_domega])
    rhs = k @ s + params.a_n() @ ref.v_ref - ref.vdot_ref
    np.testing.assert_allclose(params.b_n() @ as_array(u), -rhs, rtol=1e-12)
    assert not info["fallback"] and not info["clamped"]


def test_control_tracked_uses_adapted_influence():
    params = TrackedParams()
    gains = Gains()
    basis = ConstantBasis(2, 2)
    theta = np.array([0.5, 0.1, -0.2, 0.8])
    phi = basis.eval(None, None)
    s = np.array([0.1, 0.05])
    ref = ReferenceState(np.array([0.8, -0.2]), np.zeros(2), 0.0, 0.0)
    u, info = control_tracked(s, ref, phi, theta, params, gains)
    b_hat = params.b_n() + np.array([[0.5, 0.1], [-0.2, 0.8]])
    rhs = np.diag([gains.k_dx, gains.k_domega]) @ s + params.a_n() @ ref.v_ref
    np.testing.assert_allclose(b_hat @ as_array(u), -rhs, rtol=1e-12)
    np.testing.assert_allclose(info["b_hat"], b_hat)


def test_control_tracked_singular_estimate_falls_back():
    params = TrackedParams()
    basis = ConstantBasis(2, 2)
    # theta cancels B_n exactly: B_hat = 0, condition number infinite
    theta = np.array([-params.b_n()[0, 0], 0.0, 0.0, -params.b_n()[1, 1]])
    ref = ReferenceState(np.array([1.0, 0.0]), np.zeros(2), 0.0, 0.0)
    u, info = control_tracked(np.zeros(2), ref, basis.eval(None, None), theta,
                              params, Gains())
    assert info["fallback"]
    np.testing.assert_allclose(info["b_hat"], params.b_n())
    rhs = params.a_n() @ ref.v_ref
    np.testing.assert_allclose(params.b_n() @ as_array(u), -rhs, rtol=1e-12)


def test_cond_2x2_matches_numpy():
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    for i in range(1000):
        if i % 2:
            m = rng.normal(size=(2, 2))
        else:           # U diag(1, 1/c) V^T with cond c up to 1e8
            q1, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            q2, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            m = q1 @ np.diag([1.0, 10.0 ** -rng.uniform(0, 8)]) @ q2
        m = m * 10.0 ** rng.uniform(-30, 30)
        want = np.linalg.cond(m)
        # rtol 1e-9, widened by 4 eps cond: either result may miss the
        # smallest singular value by about eps * cond relative (SVD is
        # off by up to 5.7e-9 from a 50-digit reference at cond 1e8)
        assert cond_2x2(m) == pytest.approx(want, rel=1e-9 + 4 * eps * want)
    for m in ([[1e200, 3e199], [-2e199, 5e200]], [[1e-200, 0.0], [0.0, 3e-201]]):
        m = np.array(m)
        assert cond_2x2(m) == pytest.approx(np.linalg.cond(m), rel=1e-12)


def test_cond_2x2_singular_and_non_finite_are_infinite():
    for m in ([[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 3.0]],
              [[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [0.0, 1.0]],
              [[np.inf, np.nan], [0.0, 1.0]], [[1.0, 0.0], [0.0, -np.inf]]):
        assert cond_2x2(np.array(m)) == math.inf


def test_control_tracked_clamps_commands():
    params = TrackedParams()
    ref = ReferenceState(np.array([50.0, 0.0]), np.zeros(2), 0.0, 0.0)
    u, info = control_tracked(np.zeros(2), ref, None, None, params, Gains(),
                              u_limits=(2.0, 3.0))
    assert info["clamped"]
    assert abs(u.u_v) <= 2.0 and abs(u.u_omega) <= 3.0
    # a config's int limits stand for floats: the controller's clamp gives floats
    ctrl = TrackedController(params, Gains(), AdaptParams(), u_limits=(2, 3))
    u, tele = ctrl.tick_velocity(TrackedState(0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0), None,
                                 (50.0, 0.0), (0.0, 0.0))
    assert tele.clamped and u.u_v == 2.0 and type(u.u_v) is float


def test_control_tracked_zero_everything_gives_zero_command():
    ref = ReferenceState(np.zeros(2), np.zeros(2), 0.0, 0.0)
    u, info = control_tracked(np.zeros(2), ref, None, None, TrackedParams(), Gains())
    assert u.u_v == 0.0 and u.u_omega == 0.0


def numpy_control_tracked(s, ref, b_hat, params, gains, u_limits):
    """The law in its array form, solved by np.linalg.solve: the reference
    for the float law. Returns (unclamped u, clamped u, clamp flag)."""
    k = np.array([gains.k_dx, gains.k_domega])
    rhs = k * np.asarray(s) + params.a_n() @ np.asarray(ref.v_ref) - np.asarray(ref.vdot_ref)
    u_vec = -np.linalg.solve(b_hat, rhs)
    lim = np.asarray(u_limits, dtype=float)
    clipped = np.clip(u_vec, -lim, lim)
    return u_vec, clipped, not np.array_equal(clipped, u_vec)


def conditioned_matrix(rng, max_log_cond):
    """A random 2x2 matrix of condition number up to 10**max_log_cond."""
    q1, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    q2, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    scale = 10.0 ** rng.uniform(-1, 1)
    return scale * q1 @ np.diag([1.0, 10.0 ** -rng.uniform(0, max_log_cond)]) @ q2


@pytest.mark.parametrize("max_log_cond", [None, 5.99], ids=["random", "near-fallback"])
def test_control_tracked_matches_numpy_solve(max_log_cond):
    """The float law (pivoted 2x2 LU) against np.linalg.solve: relative error
    of the command vector at most 1e-12, also at condition numbers just below
    the 1e6 fallback threshold. The two differ in the last bit only where
    LAPACK's FMA rounds once where float arithmetic rounds twice."""
    params, gains = TrackedParams(), Gains()
    phi = ConstantBasis(2, 2).eval(None, None)
    rng = np.random.default_rng(21)
    limits = (1e12, 1e12)
    checked = 0
    for _ in range(2000):
        b_hat = (rng.normal(size=(2, 2)) if max_log_cond is None
                 else conditioned_matrix(rng, max_log_cond))
        theta = (b_hat - params.b_n()).reshape(-1)
        b_used = params.b_n() + contract(phi, theta)     # B_hat as the law forms it
        if cond_2x2(b_used) >= 1e6:
            continue                                    # falls back; tested elsewhere
        s = rng.normal(size=2)
        ref = ReferenceState(rng.normal(size=2), rng.normal(size=2), 0.0, 0.0)
        u, info = control_tracked(s, ref, phi, theta, params, gains, u_limits=limits)
        want, _, _ = numpy_control_tracked(s, ref, b_used, params, gains, limits)
        got = np.array([u.u_v, u.u_omega])
        assert not info["fallback"] and not info["clamped"]
        np.testing.assert_array_equal(info["b_hat"], b_used)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        checked += 1
    assert checked > 1900


@pytest.mark.parametrize("limits", [(2.0, 3.0), (50.0, 0.3), (0.3, 50.0)],
                         ids=["both", "omega-only", "v-only"])
def test_control_tracked_clamp_flag_matches_numpy(limits):
    params, gains = TrackedParams(), Gains()
    phi = ConstantBasis(2, 2).eval(None, None)
    rng = np.random.default_rng(22)
    flags = []
    for _ in range(300):
        theta = rng.uniform(-1.0, 1.0, 4)
        s = rng.normal(size=2)
        ref = ReferenceState(rng.uniform(-1.5, 1.5, 2), rng.normal(size=2), 0.0, 0.0)
        u, info = control_tracked(s, ref, phi, theta, params, gains, u_limits=limits)
        b_hat = params.b_n() + contract(phi, theta)
        if info["fallback"]:
            b_hat = params.b_n()
        _, clipped, flag = numpy_control_tracked(s, ref, b_hat, params, gains, limits)
        assert info["clamped"] == flag
        for got, want, lim in zip((u.u_v, u.u_omega), clipped, limits):
            if abs(want) == lim:        # a clamped entry sits exactly on its limit
                assert got == want
        flags.append(flag)
    assert 0 < sum(flags) < len(flags)      # both outcomes occur


class _RankDeficientPlant:
    """Stands in for TrackedParams with a B_n that the fallback cannot use."""

    def __init__(self, b_n):
        self.a_n_rows = TrackedParams().a_n_rows
        self.b_n_rows = tuple(tuple(float(v) for v in row) for row in b_n)


@pytest.mark.parametrize("b_n", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 3.0]],
                                 [[0.0, 0.0], [0.0, 0.0]], [[3.0, 0.0], [0.0, 0.0]]])
def test_control_tracked_raises_on_exactly_singular_b_hat(b_n):
    # B_hat = B_n (no basis) is singular, so the fallback to B_n is too: the
    # solve raises, as np.linalg.solve does on the same matrix
    ref = ReferenceState(np.array([1.0, 0.5]), np.zeros(2), 0.0, 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.array(b_n), np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match="Singular"):
        control_tracked(np.zeros(2), ref, None, None, _RankDeficientPlant(b_n), Gains())


# --------------------------------------------------------------- adaptation


def adapt_state(theta, gain) -> AdaptState:
    """The AdaptState of arrays theta and gain (a vector or a matrix), as the
    tuples of floats the laws keep."""
    gain = np.asarray(gain, dtype=float)
    return AdaptState(tuple(np.asarray(theta, dtype=float).tolist()),
                      tuple(map(tuple, gain.tolist())) if gain.ndim == 2 else tuple(gain.tolist()))


def scalar_oracle(state, s, y, phi, u, dt, p):
    """Plain-loop restatement of the per-component law."""
    theta_hat, gain = np.array(state.theta_hat), np.array(state.gain)
    n_theta = theta_hat.size
    h = np.stack([phi[i] @ np.asarray(u, dtype=float) for i in range(n_theta)], axis=1)
    r_inv = np.diag(1.0 / np.asarray(p.r_diag, dtype=float))
    pred = h @ theta_hat - y
    theta_dot = np.empty(n_theta)
    gamma_dot = np.empty(n_theta)
    for i in range(n_theta):
        hi = h[:, i]
        quad = hi @ r_inv @ hi
        theta_dot[i] = (-p.lam * theta_hat[i]
                        - gain[i] * (hi @ r_inv @ pred)
                        + gain[i] * (s @ hi))
        gamma_dot[i] = (-2.0 * p.lam * gain[i] + p.q_diag[i]
                        + gain[i] * quad * gain[i])
    theta = theta_hat + dt * theta_dot
    gamma = np.clip(gain + dt * gamma_dot, p.gamma_min, p.gamma_max)
    return theta, gamma


def test_scalar_adaptation_matches_oracle():
    rng = np.random.default_rng(2)
    p = AdaptParams(lam=0.02, r_diag=(0.3, 0.5), q_diag=(0.4, 0.1, 0.2, 0.3),
                    gamma0=0.5, gamma_max=2.0)
    for _ in range(50):
        state = adapt_state(rng.uniform(-1, 1, 4), rng.uniform(0.1, 1.9, 4))
        s = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        phi = rng.uniform(-1, 1, (4, 2, 2))
        u = rng.uniform(-2, 2, 2)
        new, rejected = adapt_step(state, s, y, phi, u, 0.05, p)
        want_theta, want_gamma = scalar_oracle(state, s, y, phi, u, 0.05, p)
        assert not rejected
        np.testing.assert_allclose(new.theta_hat, want_theta, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(new.gain, want_gamma, rtol=1e-12, atol=1e-14)


def matrix_oracle(state, s, y, phi, u, dt, p, n_theta):
    h = np.stack([phi[i] @ np.asarray(u, dtype=float) for i in range(n_theta)], axis=1)
    r_inv = np.diag(1.0 / np.asarray(p.r_diag, dtype=float))
    q = np.asarray(p.q_diag, dtype=float)
    q_mat = np.diag(q if q.size == n_theta else np.full(n_theta, q[0]))
    theta_hat, g = np.array(state.theta_hat), np.array(state.gain)
    pred = h @ theta_hat - y
    theta_dot = -p.lam * theta_hat - g @ h.T @ r_inv @ pred + g @ h.T @ s
    g_dot = -2.0 * p.lam * g + q_mat - g @ h.T @ r_inv @ h @ g
    theta = theta_hat + dt * theta_dot
    gn = g + dt * g_dot
    gn = 0.5 * (gn + gn.T)
    vals, vecs = np.linalg.eigh(gn)
    gn = (vecs * np.maximum(vals, p.gamma_min)) @ vecs.T
    return theta, 0.5 * (gn + gn.T)


def test_matrix_adaptation_matches_oracle():
    rng = np.random.default_rng(3)
    p = AdaptParams(law="matrix", lam=0.05, r_diag=(0.2, 0.4), q_diag=(0.3, 0.1, 0.5, 0.2),
                    gamma0=0.5)
    for _ in range(50):
        a = rng.uniform(-0.5, 0.5, (4, 4))
        gain = a @ a.T + 0.2 * np.eye(4)
        state = adapt_state(rng.uniform(-1, 1, 4), gain)
        s = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        phi = rng.uniform(-1, 1, (4, 2, 2))
        u = rng.uniform(-2, 2, 2)
        new, rejected = adapt_step(state, s, y, phi, u, 0.05, p)
        want_theta, want_gain = matrix_oracle(state, s, y, phi, u, 0.05, p, 4)
        assert not rejected
        np.testing.assert_allclose(new.theta_hat, want_theta, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(new.gain, want_gain, rtol=1e-10, atol=1e-12)
        new_gain = np.array(new.gain)
        np.testing.assert_array_equal(new_gain, new_gain.T)
        assert np.all(np.linalg.eigvalsh(new_gain) >= p.gamma_min - 1e-12)


def test_matrix_law_broadcasts_scalar_forcing():
    p = AdaptParams(law="matrix", lam=0.0, r_diag=(1.0, 1.0), q_diag=(0.7,), gamma0=0.5)
    state = adapt_state(np.zeros(3), 0.5 * np.eye(3))
    new, _ = adapt_step(state, np.zeros(2), np.zeros(2), np.zeros((3, 2, 2)), np.zeros(2), 0.1, p)
    np.testing.assert_allclose(new.gain, 0.5 * np.eye(3) + 0.1 * 0.7 * np.eye(3))


def test_adaptation_fixed_points():
    # no excitation: theta decays by forgetting, gamma relaxes toward q / (2 lam)
    p = AdaptParams(lam=0.1, r_diag=(1.0, 1.0), q_diag=(0.4, 0.4), gamma0=1.0)
    state = AdaptState((1.0, -2.0), (1.0, 3.0))
    zero_phi = np.zeros((2, 2, 2))
    new, _ = adapt_step(state, np.zeros(2), np.zeros(2), zero_phi, np.zeros(2), 0.05, p)
    np.testing.assert_allclose(new.theta_hat, np.array([1.0, -2.0]) * (1 - 0.1 * 0.05))
    gain = np.array([1.0, 3.0])
    np.testing.assert_allclose(new.gain, gain + 0.05 * (0.4 - 0.2 * gain))
    # gamma = q / (2 lam) = 2.0 is stationary without excitation
    eq = AdaptState((0.0, 0.0), (2.0, 2.0))
    new_eq, _ = adapt_step(eq, np.zeros(2), np.zeros(2), zero_phi, np.zeros(2), 0.05, p)
    np.testing.assert_allclose(new_eq.gain, [2.0, 2.0], atol=1e-15)


def test_quadratic_gain_term_signs_differ():
    """Under excitation the per-component law grows its gain where the matrix
    law shrinks it; the gap is exactly twice the quadratic term."""
    p = AdaptParams(lam=0.0, r_diag=(0.5, 0.5), q_diag=(0.2,), gamma0=0.5)
    p_mt = AdaptParams(law="matrix", lam=0.0, r_diag=(0.5, 0.5), q_diag=(0.2,), gamma0=0.5)
    phi = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # n_theta = 1
    u = np.array([1.0, 1.0])
    h = phi[0] @ u
    quad = float(h @ (h / 0.5))
    dt, g0 = 0.05, 0.5
    sc = AdaptState((0.0,), (g0,))
    mt = AdaptState((0.0,), ((g0,),))
    new_sc, _ = adapt_step(sc, np.zeros(2), np.zeros(2), phi, u, dt, p)
    new_mt, _ = adapt_step(mt, np.zeros(2), np.zeros(2), phi, u, dt, p_mt)
    assert new_sc.gain[0] > g0 > new_mt.gain[0][0]
    assert new_sc.gain[0] - new_mt.gain[0][0] == pytest.approx(2 * dt * g0 * quad * g0, rel=1e-12)


def test_adaptation_rejects_non_finite_updates():
    p = AdaptParams()
    state = adapt_state(np.zeros(4), np.full(4, 0.01))
    with np.errstate(invalid="ignore"):
        new, rejected = adapt_step(state, np.zeros(2), np.array([np.inf, 0.0]),
                                   np.ones((4, 2, 2)), np.ones(2), 0.05, p)
    assert rejected and new is state
    mstate = adapt_state(np.zeros(4), 0.01 * np.eye(4))
    with np.errstate(invalid="ignore"):
        new_m, rejected_m = adapt_step(mstate, np.zeros(2), np.array([np.nan, 0.0]),
                                       np.ones((4, 2, 2)), np.ones(2), 0.05,
                                       AdaptParams(law="matrix"))
    assert rejected_m and new_m is mstate


def test_scalar_gain_stays_in_bounds_under_random_driving():
    p = AdaptParams(lam=0.01, r_diag=(1.0, 1.0), q_diag=(0.05,) * 4,
                    gamma0=0.05, gamma_max=0.2)
    state = AdaptState.fresh(4, p)
    rng = np.random.default_rng(4)
    for _ in range(300):
        state, rejected = adapt_step(
            state, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
            rng.uniform(-1, 1, (4, 2, 2)), rng.uniform(-2, 2, 2), 0.05, p)
        assert not rejected
        assert all(p.gamma_min <= g <= p.gamma_max for g in state.gain)
        assert np.all(np.isfinite(state.theta_hat))


def random_step_inputs(rng, n_theta, m):
    state = adapt_state(rng.uniform(-1, 1, n_theta), rng.uniform(0.1, 1.9, n_theta))
    return (state, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
            rng.uniform(-1, 1, (n_theta, 2, m)), rng.uniform(-2, 2, m))


def test_scalar_step_one_entry_weights_stand_for_all():
    rng = np.random.default_rng(6)
    one = AdaptParams(lam=0.02, r_diag=(0.4,), q_diag=(0.3,), gamma0=0.5, gamma_max=2.0)
    full = AdaptParams(lam=0.02, r_diag=(0.4, 0.4), q_diag=(0.3,) * 4, gamma0=0.5,
                       gamma_max=2.0)
    for _ in range(50):
        state, s, y, phi, u = random_step_inputs(rng, 4, 2)
        new_one, rejected_one = adapt_step(state, s, y, phi, u, 0.05, one)
        new_full, rejected_full = adapt_step(state, s, y, phi, u, 0.05, full)
        assert not rejected_one and not rejected_full
        np.testing.assert_array_equal(new_one.theta_hat, new_full.theta_hat)
        np.testing.assert_array_equal(new_one.gain, new_full.gain)
        want_theta, want_gamma = scalar_oracle(state, s, y, phi, u, 0.05, full)
        np.testing.assert_allclose(new_one.theta_hat, want_theta, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(new_one.gain, want_gamma, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("law", ["scalar", "matrix"])
def test_step_ackermann_shape_matches_oracle(law):
    """n_theta 2 and a single steering input (phi of shape (2, 2, 1))."""
    rng = np.random.default_rng(7)
    p = AdaptParams(law=law, lam=0.01, r_diag=(1.0, 0.5), q_diag=(0.05, 0.02), gamma0=0.05,
                    gamma_max=2.0)
    for _ in range(50):
        state, s, y, phi, u = random_step_inputs(rng, 2, 1)
        s[1] = 0.0                  # the car's tracking error has one channel
        if law == "matrix":
            a = rng.uniform(-0.5, 0.5, (2, 2))
            state = adapt_state(state.theta_hat, a @ a.T + 0.2 * np.eye(2))
        new, rejected = adapt_step(state, s, y, phi, u, 0.05, p)
        assert not rejected
        if law == "scalar":
            want_theta, want_gain = scalar_oracle(state, s, y, phi, u, 0.05, p)
            gain_tol = {"rtol": 1e-12, "atol": 1e-14}
        else:
            want_theta, want_gain = matrix_oracle(state, s, y, phi, u, 0.05, p, 2)
            gain_tol = {"rtol": 1e-10, "atol": 1e-12}
        np.testing.assert_allclose(new.theta_hat, want_theta, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(new.gain, want_gain, **gain_tol)


def _all_floats(seq) -> bool:
    return isinstance(seq, tuple) and all(type(v) is float for v in seq)


@pytest.mark.parametrize("law", ["scalar", "matrix"])
def test_adapted_state_holds_float_tuples(law):
    """fresh() and every step give tuples of Python floats, also from a
    config's ints (gamma0 and the clamped gamma_max here). A numpy scalar
    would not show in the written telemetry, which prints np.float64 as it
    prints a float."""
    p = AdaptParams(law=law, q_diag=(0.1,), gamma0=1, gamma_max=1)
    phi = ConstantBasis(2, 2).eval(None, None).tolist()
    rng = np.random.default_rng(8)
    state = AdaptState.fresh(4, p, theta0=[0, 1, 0, 0])
    for k in range(4):
        assert _all_floats(state.theta_hat)
        assert (_all_floats(state.gain) if law == "scalar"
                else isinstance(state.gain, tuple) and all(map(_all_floats, state.gain)))
        s, y, u = (tuple(rng.uniform(-1, 1, 2).tolist()) for _ in range(3))
        state, rejected = adapt_step(state, s, y, phi, u, 0.05, p)
        assert not rejected
    if law == "scalar":
        assert 1.0 in state.gain          # clamped at gamma_max


def test_position_tracker_gives_float_pairs():
    tracker = PositionReferenceTracker(Gains())
    for k in range(3):
        ref = tracker.step((0.1 * k, 0.0), 0.2, (1.0, 0.5), (0.5, 0.1), 0.3, 0.05)
        assert _all_floats(ref.v_ref) and len(ref.v_ref) == 2
        assert _all_floats(ref.vdot_ref) and len(ref.vdot_ref) == 2
        assert type(ref.psi_ref) is float and type(ref.psi_dot_ref) is float


def test_q_diag_must_match_n_theta_or_have_one_entry():
    for law in ("scalar", "matrix"):
        p = AdaptParams(law=law, q_diag=(0.1, 0.1, 0.1))
        with pytest.raises(ValueError, match="q_diag has 3 entries for 4"):
            AdaptState.fresh(4, p)
        assert len(AdaptState.fresh(3, p).theta_hat) == 3
        assert len(AdaptState.fresh(4, AdaptParams(law=law, q_diag=(0.1,))).theta_hat) == 4
        assert len(AdaptState.fresh(4, p, adapt=False).theta_hat) == 4  # never steps


@pytest.mark.parametrize("where, bad", [("s", math.nan), ("s", math.inf),
                                        ("y", math.nan), ("y", -math.inf)])
def test_scalar_step_rejects_non_finite_s_and_y(where, bad):
    state = AdaptState((0.0,) * 4, (0.01,) * 4)
    s, y = [0.1, -0.2], [0.3, 0.1]
    (s if where == "s" else y)[1] = bad
    new, rejected = adapt_step(state, s, y, np.ones((4, 2, 2)), np.ones(2), 0.05,
                               AdaptParams())
    assert rejected and new is state


def test_scalar_step_clamps_gains_at_both_bounds():
    zero = (np.zeros(2), np.zeros(2), np.zeros((3, 2, 2)), np.zeros(2), 0.05)
    # no excitation: gamma_i = 0.1 + 0.05 (q_i - 2 lam 0.1) = 4.95, 0.1 and -0.05
    p = AdaptParams(lam=15.0, r_diag=(1.0, 1.0), q_diag=(100.0, 3.0, 0.0), gamma0=0.1,
                    gamma_min=0.05, gamma_max=0.2)
    new, rejected = adapt_step(AdaptState((0.0,) * 3, (0.1,) * 3), *zero, p)
    assert not rejected
    assert new.gain == (0.2, new.gain[1], 0.05)
    assert new.gain[1] == pytest.approx(0.1, rel=1e-12)


def test_lyapunov_value_forms():
    s = np.array([0.3, -0.4])
    err = np.array([1.0, -2.0])
    gamma = np.array([0.5, 4.0])
    want = 0.25 + (1.0 / 0.5 + 4.0 / 4.0)
    assert lyapunov_value(s, err, np.zeros(2), gamma) == pytest.approx(want)
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    want_m = float(s @ s + err @ np.linalg.solve(g, err))
    assert lyapunov_value(s, err, np.zeros(2), g) == pytest.approx(want_m, rel=1e-12)


# ----------------------------------------------------------- ackermann loop


def test_lateral_errors_geometry():
    lat = lateral_errors([1.0, 2.0], 0.3, 1.0, 0.1, [0.0, 0.0], 0.0, 1.0)
    assert lat.e_par == pytest.approx(1.0)
    assert lat.e_perp == pytest.approx(2.0)
    assert lat.psi_e == pytest.approx(0.3)
    assert lat.e_perp_dot == pytest.approx(0.1 + 1.0 * 0.3)
    assert lat.s_perp == pytest.approx(lat.e_perp_dot + 1.0 * 2.0)
    # rotate the path frame a quarter turn
    lat2 = lateral_errors([1.0, 2.0], 0.0, 1.0, 0.0, [0.0, 0.0], math.pi / 2, 1.0)
    assert lat2.e_par == pytest.approx(2.0)
    assert lat2.e_perp == pytest.approx(-1.0)
    assert lat2.psi_e == pytest.approx(-math.pi / 2)


def test_control_ackermann_reconstruction():
    params = AckermannParams()
    gains = Gains()
    lat = lateral_errors([0.2, -0.1], 0.05, 1.5, 0.03, [0.0, 0.0], 0.0, gains.k_p)
    phi_row = np.array([0.4, -0.3])
    theta = np.array([1.0, 0.5])
    u, info = control_ackermann(lat, 1.5, 0.03, 0.6, 0.1, phi_row, theta, params, gains)
    b_hat = params.c_y / params.m + phi_row @ theta
    want_rhs = (gains.k_v * lat.s_perp
                - (2 * params.c_y / (params.m * 1.5)) * 0.03
                + 0.1 * lat.psi_e
                - 1.5 * 0.6
                + gains.k_p * lat.e_perp_dot)
    assert u * b_hat == pytest.approx(-want_rhs, rel=1e-12)
    assert info["b_hat"] == pytest.approx(b_hat)
    assert not info["fallback"]


def test_control_ackermann_guards():
    params = AckermannParams()
    gains = Gains()
    lat = lateral_errors([0, 0], 0.0, 1.5, 0.0, [0, 0], 0.0, gains.k_p)
    with pytest.raises(ValueError, match="v_min"):
        control_ackermann(lat, 0.05, 0.0, 0.5, 0.0, None, None, params, gains)
    # adapted effectiveness collapses: fall back to the nominal value
    phi_row = np.array([1.0])
    theta = np.array([-params.c_y / params.m])
    u, info = control_ackermann(lat, 1.5, 0.0, 0.6, 0.0, phi_row, theta, params, gains)
    assert info["fallback"]
    assert info["b_hat"] == params.c_y / params.m
    # saturation
    lat_big = lateral_errors([0.0, 50.0], 0.0, 1.5, 0.0, [0, 0], 0.0, gains.k_p)
    u_big, info_big = control_ackermann(lat_big, 1.5, 0.0, 0.0, 0.0, None, None,
                                        params, gains, u_delta_max=0.45)
    assert info_big["clamped"] and abs(u_big) == 0.45


# ------------------------------------------------------------- controllers


def test_tracked_controller_first_tick_has_no_residual():
    ctrl = TrackedController(TrackedParams(), Gains(), AdaptParams(),
                             basis=ConstantBasis(2, 2))
    state = TrackedState(0, 0, 0, 0.5, 0.0)
    u, tele = ctrl.tick_velocity(state, np.zeros(2), np.zeros(4), [0.8, 0.0], [0.0, 0.0])
    assert np.isnan(tele.y).all()
    np.testing.assert_array_equal(tele.theta_hat, np.zeros(4))
    assert not tele.rejected
    u2, tele2 = ctrl.tick_velocity(state, np.array([0.3, 0.1]), np.zeros(4),
                                   [0.8, 0.0], [0.0, 0.0])
    assert np.isfinite(tele2.y).all()
    assert not np.array_equal(tele2.theta_hat, np.zeros(4))  # adaptation engaged


def test_tracked_controller_variants():
    state = TrackedState(0, 0, 0, 0.5, 0.0)
    meas = np.array([0.2, 0.05])
    pd = TrackedController(TrackedParams(), Gains(), AdaptParams(), basis=None)
    _, tele_pd = pd.tick_velocity(state, meas, None, [0.8, 0.0], [0.0, 0.0])
    assert tele_pd.theta_hat == () and tele_pd.gain_diag == ()

    frozen = TrackedController(TrackedParams(), Gains(), AdaptParams(),
                               basis=ConstantBasis(2, 2), adapt=False,
                               theta0=[0.1, 0.0, 0.0, 0.2])
    for _ in range(4):
        _, tele_f = frozen.tick_velocity(state, meas, np.zeros(4), [0.8, 0.0], [0.0, 0.0])
        np.testing.assert_array_equal(tele_f.theta_hat, [0.1, 0.0, 0.0, 0.2])


def test_tracked_controller_matrix_law_ticks():
    ctrl = TrackedController(TrackedParams(), Gains(),
                             AdaptParams(law="matrix", q_diag=(0.1,) * 4, gamma0=0.05),
                             basis=ConstantBasis(2, 2))
    state = TrackedState(0, 0, 0, 0.5, 0.1)
    for _ in range(3):
        _, tele = ctrl.tick_velocity(state, np.array([0.1, 0.0]), np.zeros(4),
                                     [0.8, 0.0], [0.0, 0.0])
    assert len(tele.gain_diag) == 4
    assert all(g > 0 for g in tele.gain_diag)


def test_tracked_controller_reset():
    ctrl = TrackedController(TrackedParams(), Gains(), AdaptParams(),
                             basis=ConstantBasis(2, 2))
    state = TrackedState(0, 0, 0, 0.5, 0.0)
    _, tele = ctrl.tick_velocity(state, np.zeros(2), np.zeros(4), [0.8, 0.0], [0.0, 0.0])
    assert ctrl.prev_u is not None
    # the first tick's telemetry shares the fresh state's tuples, which cannot
    # change, and the frozen state refuses new ones
    assert tele.theta_hat is ctrl.state0.theta_hat
    for seq in (tele.theta_hat, tele.gain_diag, ctrl.state0.theta_hat, ctrl.state0.gain):
        with pytest.raises(TypeError):
            seq[0] = 9.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctrl.state0.theta_hat = (9.0,) * 4
    assert ctrl.state0 == AdaptState.fresh(4, AdaptParams())
    ctrl.tick_velocity(state, np.ones(2), np.zeros(4), [0.8, 0.0], [0.0, 0.0])
    assert ctrl.state is not ctrl.state0        # adapted
    ctrl.reset()
    assert ctrl.prev_u is None and ctrl.prev_phi is None
    assert ctrl.res_filter.lpf.state is None
    assert ctrl.state is ctrl.state0            # a new episode starts fresh


def test_heading_error_bounded_by_yaw_tracking_quality():
    """Loop hierarchy on a gentle closed path: the heading error is slaved to
    the yaw-rate tracking error through k_psi."""
    params = TrackedParams()
    gains = Gains()
    ctrl = TrackedController(params, gains, AdaptParams(), basis=None)
    state = TrackedState(0.3, -0.2, 0.4, 0.0, 0.0)
    dtc, sub = 0.05, 5
    w = 2 * math.pi / 20.0
    prev_u = TrackedInput(0.0, 0.0)
    heading_errs, s_omegas = [], []
    t = 0.0
    for k in range(320):
        p_d = (2.0 * math.sin(w * t), 1.0 * math.sin(2 * w * t))
        v_d = (2.0 * w * math.cos(w * t), 2.0 * w * math.cos(2 * w * t))
        psi_d = math.atan2(v_d[1], v_d[0])
        vdot_meas = derivative(state, prev_u, params)[3:5]
        psi_at_tick = state.psi
        u, tele = ctrl.tick_position(state, vdot_meas, None, p_d, v_d, psi_d)
        for _ in range(sub):
            state = plant_step(state, u, params, dtc / sub)
        prev_u = u
        t += dtc
        if t > 8.0:
            heading_errs.append(abs(wrap_angle(psi_at_tick - tele.psi_ref)))
            s_omegas.append(abs(tele.s[1]))
    assert max(heading_errs) <= 1.5 * max(s_omegas) / gains.k_psi + 0.05


def test_cross_track_error_bounded_by_sliding_variable():
    """Ackermann circle: after the transient the cross-track error obeys the
    first-order bound |e_perp| <= 1.5 max|s_perp| / k_p plus discretization slack."""
    params = AckermannParams()
    gains = Gains()
    ctrl = AckermannController(params, gains, AdaptParams(r_diag=(1.0, 1.0)), basis=None)
    r, speed = 2.5, 1.5
    omega_d = speed / r
    state = AckermannState(r, 0.0, math.pi / 2, speed, 0.0, omega_d)
    dtc, sub = 0.05, 5
    prev_u = AckermannInput(speed, 0.0)
    t = 0.0
    e_perps, s_perps = [], []
    for k in range(300):
        ang = omega_d * t
        p_d = (r * math.cos(ang), r * math.sin(ang))
        psi_d = wrap_angle(ang + math.pi / 2)
        xdot_meas = derivative(state, prev_u, params)[4:6]
        u, tele = ctrl.tick(state, xdot_meas, None, p_d, psi_d, omega_d, speed)
        for _ in range(sub):
            state = plant_step(state, u, params, dtc / sub)
        prev_u = u
        t += dtc
        if t > 7.0:
            e_perps.append(abs(tele.lat.e_perp))
            s_perps.append(abs(tele.lat.s_perp))
    assert max(e_perps) <= 1.5 * max(s_perps) / gains.k_p + 0.05
    assert max(e_perps) < 0.25  # sanity: it actually tracks the circle


def test_ackermann_controller_speed_loop_and_telemetry():
    ctrl = AckermannController(AckermannParams(), Gains(),
                               AdaptParams(r_diag=(1.0, 1.0), q_diag=(0.05,), gamma0=0.05),
                               basis=ConstantBasis(2, 1))
    state = AckermannState(2.5, 0.0, math.pi / 2, 1.2, 0.0, 0.5)
    u, tele = ctrl.tick(state, np.zeros(2), np.zeros(4), (2.5, 0.0), math.pi / 2, 0.6, 1.5)
    assert u.u_v == pytest.approx(1.5 - 0.5 * (1.2 - 1.5))
    assert hasattr(tele, "lat")
    assert len(tele.theta_hat) == 2
    assert abs(u.u_delta) <= 0.45


def test_ackermann_controller_holds_steering_without_lateral_authority():
    """At or below v_min the tick holds the previous steering (0 on the
    first tick of an episode) and is a fallback: theta_hat takes no step,
    while the speed loop keeps working."""
    params = AckermannParams()
    ctrl = AckermannController(params, Gains(),
                               AdaptParams(r_diag=(1.0, 1.0), q_diag=(0.05,), gamma0=0.05),
                               basis=ConstantBasis(2, 1))
    args = (np.zeros(4), (2.5, 0.3), math.pi / 2, 0.6, 1.5)
    for v_x in (0.0, params.v_min, -0.4):
        ctrl.reset()
        u, tele = ctrl.tick(AckermannState(2.5, 0.0, math.pi / 2, v_x, 0.0, 0.0),
                            np.zeros(2), *args)
        assert u.u_delta == 0.0 and tele.fallback and not tele.clamped
        assert u.u_v == pytest.approx(1.5 - 0.5 * (v_x - 1.5))
    ctrl.reset()
    moving = AckermannState(2.5, 0.0, math.pi / 2, 1.2, 0.05, 0.4)
    steer = ctrl.tick(moving, np.zeros(2), *args)[0].u_delta
    theta = ctrl.state.theta_hat
    assert steer != 0.0
    u, tele = ctrl.tick(AckermannState(2.6, 0.1, math.pi / 2, 0.05, 0.0, 0.2),
                        np.array([0.3, -0.2]), *args)
    assert u.u_delta == steer and tele.fallback
    np.testing.assert_array_equal(ctrl.state.theta_hat, theta)


def test_adaptation_converges_to_planted_diagonal_parameters():
    """Velocity loop on terrain with known effectiveness: with persistent
    excitation and the constant basis, theta_hat approaches the exact
    diagonal correction (eta - 1) B_n."""
    params = TrackedParams()
    eta = (0.85, 1.2)
    theta_true = np.array([(eta[0] - 1) * params.b_n()[0, 0], 0.0,
                           0.0, (eta[1] - 1) * params.b_n()[1, 1]])
    adapt = AdaptParams(lam=0.01, r_diag=(1.0, 1.0), q_diag=(0.05,) * 4,
                        gamma0=0.05, gamma_max=0.2)
    ctrl = TrackedController(params, Gains(), adapt, basis=ConstantBasis(2, 2))
    state = TrackedState(0, 0, 0, 0.9, 0.0)
    dtc, sub = 0.05, 5
    prev_u = TrackedInput(0.0, 0.0)
    t = 0.0
    for k in range(600):
        v_ref = [0.9 + 0.25 * math.sin(0.9 * t), 0.7 * math.sin(1.3 * t) + 0.4 * math.sin(2.1 * t)]
        vdot_ref = [0.25 * 0.9 * math.cos(0.9 * t),
                    0.7 * 1.3 * math.cos(1.3 * t) + 0.4 * 2.1 * math.cos(2.1 * t)]
        vdot_meas = derivative(state, prev_u, params, eta)[3:5]
        u, tele = ctrl.tick_velocity(state, vdot_meas, np.zeros(4), v_ref, vdot_ref)
        for _ in range(sub):
            state = plant_step(state, u, params, dtc / sub, eta)
        prev_u = u
        t += dtc
    err = np.linalg.norm(ctrl.state.theta_hat - theta_true)
    assert err < 0.4 * np.linalg.norm(theta_true)
    assert np.linalg.norm(tele.s) < 0.1  # velocity tracking is tight by then

"""Vehicle model physics: derivatives, integration accuracy, faults, slip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terradapt.vehicles import (
    AckermannInput,
    AckermannParams,
    AckermannState,
    NonFiniteError,
    SlipUndefinedError,
    TrackedInput,
    TrackedParams,
    TrackedState,
    ackermann_derivative,
    apply_track_fault,
    from_track_speeds,
    integrate_step,
    longitudinal_slip,
    track_speeds,
    tracked_derivative,
    wrap_angle,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e5, max_value=1e5)


# ---------------------------------------------------------------- wrap_angle


def test_wrap_angle_examples():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(-0.3) == pytest.approx(-0.3)


@given(finite)
def test_wrap_angle_range_and_periodicity(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    # same direction on the unit circle
    assert abs(complex(math.cos(w), math.sin(w)) - complex(math.cos(a), math.sin(a))) < 1e-8


# ------------------------------------------------------- tracked derivative


def tracked_oracle(state, u, params, eta):
    """Matrix-form restatement: qdot = S(q) v, vdot = A v + diag(eta) B u."""
    c, s = math.cos(state.psi), math.sin(state.psi)
    S = np.array([[c, params.x_icr * s], [s, -params.x_icr * c], [0.0, 1.0]])
    v = np.array([state.v_x, state.omega])
    qdot = S @ v
    vdot = params.a_n() @ v + np.diag(eta) @ params.b_n() @ u.as_array()
    return np.concatenate([qdot, vdot])


def test_tracked_derivative_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    params = TrackedParams(k1=1.3, k2=0.8, tau_v=0.25, tau_omega=0.15, x_icr=0.07)
    for _ in range(200):
        state = TrackedState(*rng.uniform(-3, 3, 3), *rng.uniform(-2, 2, 2))
        u = TrackedInput(*rng.uniform(-2, 2, 2))
        eta = rng.uniform(0.2, 2.0, 2)
        d = tracked_derivative(state, u, params, eta)
        np.testing.assert_allclose(d, tracked_oracle(state, u, params, eta),
                                   rtol=1e-13, atol=1e-13)


def test_tracked_constraint_row_annihilates_pose_rate():
    # the nonholonomic constraint A(q) = [-sin, cos, x_icr] kills S(q) v exactly
    rng = np.random.default_rng(8)
    params = TrackedParams(x_icr=0.11)
    for _ in range(100):
        state = TrackedState(*rng.uniform(-3, 3, 3), *rng.uniform(-2, 2, 2))
        d = tracked_derivative(state, TrackedInput(0.4, -0.2), params)
        a_row = np.array([-math.sin(state.psi), math.cos(state.psi), params.x_icr])
        assert abs(a_row @ d[:3]) < 1e-14


def test_tracked_pose_speed_matches_body_speed():
    params = TrackedParams(x_icr=0.05)
    state = TrackedState(1.0, -2.0, 0.9, 1.2, -0.8)
    d = tracked_derivative(state, TrackedInput(0.0, 0.0), params)
    want = math.hypot(state.v_x, params.x_icr * state.omega)
    assert math.hypot(d[0], d[1]) == pytest.approx(want, rel=1e-12)


def test_turn_in_place_moves_no_position_without_icr_offset():
    d = tracked_derivative(TrackedState(0, 0, 0.5, 0.0, 2.0),
                           TrackedInput(0, 1.0), TrackedParams())
    assert d[0] == 0.0 and d[1] == 0.0


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_tracked_derivative_affine_in_input(a, b, c, d):
    params = TrackedParams()
    state = TrackedState(0.3, -0.1, 1.1, 0.7, -0.4)
    eta = (0.8, 1.2)
    f = lambda uv, uo: tracked_derivative(state, TrackedInput(uv, uo), params, eta)
    lhs = f(a + c, b + d) + f(0.0, 0.0)
    rhs = f(a, b) + f(c, d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_eta_validation_tracked():
    state = TrackedState(0, 0, 0, 0.5, 0.1)
    u = TrackedInput(1, 0)
    p = TrackedParams()
    for bad in [(0.0, 1.0), (-0.1, 1.0), (1.0, 2.1), (float("nan"), 1.0)]:
        with pytest.raises(ValueError):
            tracked_derivative(state, u, p, bad)
    with pytest.raises(ValueError):
        tracked_derivative(state, u, p, (1.0, 1.0, 1.0))
    # the boundary value 2.0 is allowed
    tracked_derivative(state, u, p, (2.0, 2.0))


ETA_FORMS = {
    "tuple": (0.8, 1.2),
    "list": [0.8, 1.2],
    "ndarray": np.array([0.8, 1.2]),
    "column": np.array([[0.8], [1.2]]),
}


@pytest.mark.parametrize("form", ETA_FORMS)
def test_eta_forms_tracked_accepted(form):
    state = TrackedState(0.2, -0.1, 0.4, 0.5, 0.1)
    u = TrackedInput(1.0, -0.3)
    p = TrackedParams(x_icr=0.05)
    eta = ETA_FORMS[form]
    np.testing.assert_array_equal(tracked_derivative(state, u, p, eta),
                                  tracked_derivative(state, u, p, (0.8, 1.2)))
    np.testing.assert_array_equal(integrate_step(state, u, p, 0.01, eta).as_array(),
                                  integrate_step(state, u, p, 0.01, (0.8, 1.2)).as_array())


def test_non_finite_state_raises():
    p = TrackedParams()
    with pytest.raises(NonFiniteError):
        tracked_derivative(TrackedState(0, 0, float("nan"), 0, 0), TrackedInput(0, 0), p)
    with pytest.raises(NonFiniteError):
        integrate_step(TrackedState(0, 0, 0, float("inf"), 0), TrackedInput(0, 0), p, 0.01)
    with pytest.raises(NonFiniteError):
        tracked_derivative(TrackedState(0, 0, 0, 0, 0), TrackedInput(float("nan"), 0), p)


def test_params_validation():
    with pytest.raises(ValueError):
        TrackedParams(k1=0.0)
    with pytest.raises(ValueError):
        TrackedParams(tau_v=-0.1)
    with pytest.raises(ValueError):
        AckermannParams(m=0.0)
    with pytest.raises(ValueError):
        AckermannParams(c_y=-5.0)


def test_tracked_nominal_model_is_built_once_and_read_only():
    """A_n and B_n are shared by every caller, so neither they nor the
    coefficients they come from can be changed after construction."""
    p = TrackedParams(k1=1.2, k2=0.9, tau_v=0.25, tau_omega=0.15)
    assert p.a_n() is p.a_n() and p.b_n() is p.b_n()
    assert p.residual_model(None) == (p.a_n(), p.b_n())
    np.testing.assert_array_equal(p.a_n(), np.diag([-1.0 / 0.25, -1.0 / 0.15]))
    np.testing.assert_array_equal(p.b_n(), np.diag([1.2 / 0.25, 0.9 / 0.15]))
    with pytest.raises(ValueError):
        p.b_n()[0, 0] = 0.0
    with pytest.raises(AttributeError):
        p.tau_v = 1.0


# ------------------------------------------------------------- integration


def test_rk4_is_fourth_order():
    """Halving dt should shrink the final-state error by about 2^4."""
    params = TrackedParams(k1=1.2, k2=0.9, x_icr=0.06)
    u = TrackedInput(1.0, 0.8)
    eta = (0.9, 1.1)
    start = TrackedState(0.0, 0.0, 0.3, 0.5, -0.2)
    horizon = 0.4

    def final_state(dt):
        s = start
        for _ in range(round(horizon / dt)):
            s = integrate_step(s, u, params, dt, eta)
        return s.as_array()

    ref = final_state(1e-5)
    e1 = np.linalg.norm(final_state(0.1) - ref)
    e2 = np.linalg.norm(final_state(0.05) - ref)
    assert e1 > 1e-12  # error must be measurable for the ratio to mean anything
    assert 8.0 < e1 / e2 < 32.0


def test_tracked_arc_matches_closed_form():
    """At velocity equilibrium the pose follows an exact circular arc."""
    v0, w0, psi0 = 1.0, 0.7, 0.3
    params = TrackedParams()  # k1 = k2 = 1, x_icr = 0
    state = TrackedState(0.0, 0.0, psi0, v0, w0)
    u = TrackedInput(v0, w0)
    dt = 0.01
    for _ in range(100):
        state = integrate_step(state, u, params, dt)
    t = 1.0
    r = v0 / w0
    assert state.p_x == pytest.approx(r * (math.sin(psi0 + w0 * t) - math.sin(psi0)), abs=1e-6)
    assert state.p_y == pytest.approx(r * (math.cos(psi0) - math.cos(psi0 + w0 * t)), abs=1e-6)
    assert state.psi == pytest.approx(psi0 + w0 * t, abs=1e-6)
    # velocities sit at the fixed point exactly
    assert state.v_x == v0 and state.omega == w0


def generic_rk4(derivative, state, u, params, dt, eta):
    """Textbook RK4 over a public derivative, in the integrator's order of
    operations: y + dt/6 (k1 + 2 k2 + 2 k3 + k4), heading wrapped."""
    cls = type(state)
    y0 = state.as_array()
    k1 = derivative(state, u, params, eta)
    k2 = derivative(cls(*(y0 + 0.5 * dt * k1).tolist()), u, params, eta)
    k3 = derivative(cls(*(y0 + 0.5 * dt * k2).tolist()), u, params, eta)
    k4 = derivative(cls(*(y0 + dt * k3).tolist()), u, params, eta)
    y1 = y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    y1[2] = wrap_angle(float(y1[2]))
    return y1


unit = st.floats(-1.0, 1.0)
plant_dt = st.floats(1e-3, 0.1)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-math.pi, math.pi),
                 st.floats(-3, 3), st.floats(-3, 3)),
       st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
       st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.05, 1.0),
                 st.floats(0.05, 1.0), st.floats(-0.2, 0.2)),
       st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)), plant_dt)
def test_tracked_step_is_exactly_rk4_over_derivative(y, u, p, eta, dt):
    state, inp, params = TrackedState(*y), TrackedInput(*u), TrackedParams(*p)
    np.testing.assert_array_equal(
        integrate_step(state, inp, params, dt, eta).as_array(),
        generic_rk4(tracked_derivative, state, inp, params, dt, eta))


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-math.pi, math.pi),
                 st.floats(0.5, 3.0), unit, unit),
       st.tuples(st.floats(0.5, 3.0), st.floats(-0.4, 0.4)),
       st.floats(0.05, 2.0), plant_dt)
def test_ackermann_step_is_exactly_rk4_over_derivative(y, u, eta, dt):
    # forward speeds and inputs above 0.5 keep every RK4 stage above v_min
    state, inp, params = AckermannState(*y), AckermannInput(*u), AckermannParams()
    np.testing.assert_array_equal(
        integrate_step(state, inp, params, dt, eta).as_array(),
        generic_rk4(ackermann_derivative, state, inp, params, dt, eta))


def striped_terrain(eta_of_stripe, width=0.05):
    """Terrain lookup whose eta changes every `width` metres in x, so that
    the substeps of one tick cross cell borders; records every query."""
    queries = []

    def terrain(x, y):
        queries.append((x, y))
        return eta_of_stripe(math.floor(x / width))
    return terrain, queries


def single_steps(state, inp, params, dt, n_sub, terrain):
    """The per-substep loop that a multi-substep call replaces."""
    for _ in range(n_sub):
        state = integrate_step(state, inp, params, dt, terrain(state.p_x, state.p_y))
    return state


tracked_stripes = lambda i: ((0.6, 1.3), (1.0, 1.0), (1.7, 0.4))[i % 3]
ackermann_stripes = lambda i: (0.6, 1.0, 1.7)[i % 3]


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-math.pi, math.pi),
                 st.floats(-3, 3), st.floats(-3, 3)),
       st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
       st.integers(1, 8), plant_dt)
def test_tracked_substeps_equal_single_steps(y, u, n_sub, dt):
    state, inp, params = TrackedState(*y), TrackedInput(*u), TrackedParams(x_icr=0.05)
    terrain, _ = striped_terrain(tracked_stripes)
    np.testing.assert_array_equal(
        integrate_step(state, inp, params, dt, n_sub=n_sub, terrain=terrain).as_array(),
        single_steps(state, inp, params, dt, n_sub, terrain).as_array())


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-math.pi, math.pi),
                 st.floats(1.0, 3.0), unit, unit),
       st.tuples(st.floats(1.0, 3.0), st.floats(-0.4, 0.4)),
       st.integers(1, 8), st.floats(1e-3, 0.02))
def test_ackermann_substeps_equal_single_steps(y, u, n_sub, dt):
    # speeds above 1 m/s stay above v_min over at most 0.16 s
    state, inp, params = AckermannState(*y), AckermannInput(*u), AckermannParams()
    terrain, _ = striped_terrain(ackermann_stripes)
    np.testing.assert_array_equal(
        integrate_step(state, inp, params, dt, n_sub=n_sub, terrain=terrain).as_array(),
        single_steps(state, inp, params, dt, n_sub, terrain).as_array())


@pytest.mark.parametrize("vehicle", ["tracked", "ackermann"])
def test_substeps_look_up_terrain_at_each_substep_start(vehicle):
    """A tick that crosses cell borders: terrain is queried once per
    substep, at the substep's start, and sees more than one cell."""
    if vehicle == "tracked":
        state, inp, params = TrackedState(0.0, 0.0, 0.0, 2.0, 0.0), TrackedInput(2.0, 0.3), \
            TrackedParams()
        stripes = tracked_stripes
    else:
        state, inp, params = AckermannState(0.0, 0.0, 0.0, 2.0, 0.0, 0.0), \
            AckermannInput(2.0, 0.1), AckermannParams()
        stripes = ackermann_stripes
    terrain, queries = striped_terrain(stripes)
    out = integrate_step(state, inp, params, 0.01, n_sub=5, terrain=terrain)
    oracle, oracle_queries = striped_terrain(stripes)
    expected = single_steps(state, inp, params, 0.01, 5, oracle)
    np.testing.assert_array_equal(out.as_array(), expected.as_array())
    assert queries == oracle_queries and len(queries) == 5
    assert queries[0] == (0.0, 0.0)
    assert len({math.floor(x / 0.05) for x, _ in queries}) > 1     # borders crossed


def test_substep_checks():
    p, s, u = TrackedParams(), TrackedState(0, 0, 0, 0.5, 0.1), TrackedInput(1.0, 0.0)
    with pytest.raises(ValueError, match="n_sub"):
        integrate_step(s, u, p, 0.01, n_sub=0)
    with pytest.raises(ValueError, match="not both"):
        integrate_step(s, u, p, 0.01, (1.0, 1.0), terrain=lambda x, y: (1.0, 1.0))
    # eta is still checked at every substep
    calls = iter([(1.0, 1.0), (1.0, 1.0), (2.5, 1.0)])
    with pytest.raises(ValueError, match="eta"):
        integrate_step(s, u, p, 0.01, n_sub=3, terrain=lambda x, y: next(calls))
    # a result that overflowed is refused on exit
    with pytest.raises(NonFiniteError):
        integrate_step(TrackedState(0, 0, 0, 1e308, 0), TrackedInput(0, 0), p, 0.01)
    # a substep that diverged is reported as such, even when the next terrain
    # lookup, which refuses a non-finite position, is what trips over it
    def lookup(x, y):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("non-finite world query")
        return (1.0, 1.0)
    stiff = TrackedParams(tau_v=1e-300, tau_omega=1e-300)
    with pytest.raises(NonFiniteError):
        integrate_step(TrackedState(0, 0, 0, 0, 0), TrackedInput(2.0, 0.0), stiff, 0.01,
                       n_sub=5, terrain=lookup)
    # the Ackermann speed floor is checked at every substep, not only on entry
    car, slowing = AckermannParams(), AckermannState(0, 0, 0, 0.12, 0, 0)
    integrate_step(slowing, AckermannInput(0.0, 0.0), car, 0.01)
    with pytest.raises(SlipUndefinedError):
        integrate_step(slowing, AckermannInput(0.0, 0.0), car, 0.01, n_sub=10)


def test_integrate_step_wraps_heading():
    state = TrackedState(0, 0, math.pi - 0.001, 0.0, 2.0)
    out = integrate_step(state, TrackedInput(0, 2.0), TrackedParams(), 0.05)
    assert -math.pi < out.psi <= math.pi
    assert out.psi < 0  # crossed the branch cut


def test_integrate_step_dt_bounds():
    s = TrackedState(0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        integrate_step(s, TrackedInput(0, 0), TrackedParams(), 0.0)
    with pytest.raises(ValueError):
        integrate_step(s, TrackedInput(0, 0), TrackedParams(), 0.11)
    with pytest.raises(TypeError):
        integrate_step(object(), TrackedInput(0, 0), TrackedParams(), 0.01)


# ------------------------------------------------------------------- slip


def test_slip_examples():
    assert longitudinal_slip(0.5, 1.0) == pytest.approx(1.0)
    assert longitudinal_slip(1.0, 0.0) == pytest.approx(-1.0)
    assert longitudinal_slip(1.3, 1.3) == 0.0
    with pytest.raises(SlipUndefinedError):
        longitudinal_slip(0.05, 1.0)
    with pytest.raises(NonFiniteError):
        longitudinal_slip(float("nan"), 1.0)


@given(st.floats(0.2, 5.0), st.floats(-3.0, 3.0))
def test_slip_sign_tracks_command_excess(v_x, u_v):
    k = longitudinal_slip(v_x, u_v)
    assert math.copysign(1.0, k) == math.copysign(1.0, u_v - v_x) or k == 0.0


# ------------------------------------------------------------------ faults


def test_track_speed_mix_roundtrip():
    u = TrackedInput(1.1, -0.7)
    left, right = track_speeds(u, 0.3)
    back = from_track_speeds(left, right, 0.3)
    assert back.u_v == pytest.approx(u.u_v, rel=1e-15)
    assert back.u_omega == pytest.approx(u.u_omega, rel=1e-15)
    assert right - left == pytest.approx(2 * 0.3 * u.u_omega)


def test_unity_fault_returns_input_unchanged():
    u = TrackedInput(0.9, 0.4)
    assert apply_track_fault(u, 1.0, 1.0) is u


def test_right_track_fault_slows_and_veers_right():
    # a 70% loss on the right track at pure forward command: the mean speed
    # drops and the induced yaw is toward the degraded side (negative)
    u = apply_track_fault(TrackedInput(1.0, 0.0), 1.0, 0.3, half_spacing=0.3)
    assert u.u_v == pytest.approx(0.65)
    assert u.u_omega == pytest.approx(-0.7 / 0.6)


def test_left_track_fault_veers_left():
    u = apply_track_fault(TrackedInput(1.0, 0.0), 0.3, 1.0, half_spacing=0.3)
    assert u.u_v == pytest.approx(0.65)
    assert u.u_omega == pytest.approx(0.7 / 0.6)


@given(st.floats(-2, 2), st.floats(-3, 3), st.floats(0, 1), st.floats(0, 1))
def test_fault_scales_each_track_exactly(u_v, u_omega, ls, rs):
    u = TrackedInput(u_v, u_omega)
    left, right = track_speeds(u, 0.3)
    fl, fr = track_speeds(apply_track_fault(u, ls, rs, 0.3), 0.3)
    assert fl == pytest.approx(left * ls, abs=1e-12)
    assert fr == pytest.approx(right * rs, abs=1e-12)


def test_fault_scale_validation():
    u = TrackedInput(1.0, 0.0)
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            apply_track_fault(u, bad, 1.0)
    with pytest.raises(ValueError):
        track_speeds(u, 0.0)


# --------------------------------------------------------------- ackermann


def test_ackermann_jacobian_matches_linearization():
    """Central differences of the nonlinear lateral dynamics at straight
    running reproduce a_n(v_x) and b_n."""
    p = AckermannParams()
    v_x = 1.5
    base = AckermannState(0, 0, 0, v_x, 0.0, 0.0)
    u0 = AckermannInput(v_x, 0.0)
    h = 1e-6

    def lat(v_y, omega, delta):
        s = AckermannState(0, 0, 0, v_x, v_y, omega)
        return ackermann_derivative(s, AckermannInput(v_x, delta), p)[4:6]

    jac = np.column_stack([
        (lat(h, 0, 0) - lat(-h, 0, 0)) / (2 * h),
        (lat(0, h, 0) - lat(0, -h, 0)) / (2 * h),
    ])
    np.testing.assert_allclose(jac, p.a_n(v_x), rtol=1e-6, atol=1e-8)
    b_fd = (lat(0, 0, h) - lat(0, 0, -h)) / (2 * h)
    np.testing.assert_allclose(b_fd, p.b_n(), rtol=1e-6)
    # forward channel is a plain first-order lag
    d = ackermann_derivative(base, u0, p)
    assert d[3] == pytest.approx((-v_x + u0.u_v) / p.tau_v)


def test_ackermann_steady_cornering_rate():
    """Small steady steering: omega -> v_x * delta / L (neutral steer, equal
    axles). 5% tolerance covers the atan nonlinearity."""
    p = AckermannParams()
    v_x, delta = 1.5, 0.05
    state = AckermannState(0, 0, 0, v_x, 0.0, 0.0)
    u = AckermannInput(v_x, delta)
    for _ in range(1000):
        state = integrate_step(state, u, p, 0.005)
    want = v_x * delta / p.wheelbase
    assert state.omega == pytest.approx(want, rel=0.05)
    assert state.omega > 0  # positive steering turns left


def test_ackermann_speed_floor_raises():
    p = AckermannParams()
    slow = AckermannState(0, 0, 0, 0.05, 0, 0)
    with pytest.raises(SlipUndefinedError):
        ackermann_derivative(slow, AckermannInput(1.0, 0.0), p)
    with pytest.raises(SlipUndefinedError):
        integrate_step(slow, AckermannInput(1.0, 0.0), p, 0.01)
    with pytest.raises(SlipUndefinedError):
        p.a_n(0.1)  # boundary value is rejected too


def test_ackermann_eta_bounds():
    p = AckermannParams()
    s = AckermannState(0, 0, 0, 1.0, 0, 0)
    with pytest.raises(ValueError):
        ackermann_derivative(s, AckermannInput(1.0, 0.0), p, eta=0.0)
    with pytest.raises(ValueError):
        ackermann_derivative(s, AckermannInput(1.0, 0.0), p, eta=2.2)
    ackermann_derivative(s, AckermannInput(1.0, 0.0), p, eta=2.0)


def test_ackermann_straight_running_is_equilibrium():
    p = AckermannParams()
    s = AckermannState(0, 0, 0, 1.0, 0.0, 0.0)
    d = ackermann_derivative(s, AckermannInput(1.0, 0.0), p)
    np.testing.assert_allclose(d[2:], 0.0, atol=1e-15)
    np.testing.assert_allclose(d[:2], [1.0, 0.0], atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(-0.3, 0.3), st.floats(0.3, 1.9))
def test_ackermann_integration_stays_finite(v0, delta, eta):
    p = AckermannParams()
    s = AckermannState(0, 0, 0, v0, 0.0, 0.0)
    u = AckermannInput(v0, delta)
    for _ in range(50):
        s = integrate_step(s, u, p, 0.01, eta)
    assert np.all(np.isfinite(s.as_array()))
    assert -math.pi < s.psi <= math.pi

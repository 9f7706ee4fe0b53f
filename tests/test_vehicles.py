"""Vehicle model physics: derivatives, integration accuracy, faults, slip."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import as_array, derivative, plant_step
from terradapt.vehicles import (
    AckermannInput,
    AckermannParams,
    AckermannState,
    NonFiniteError,
    TrackedInput,
    TrackedParams,
    TrackedState,
    apply_track_fault,
    wrap_angle,
)
from terradapt.world import WorldSpec, build_world

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
    vdot = params.a_n() @ v + np.diag(eta) @ params.b_n() @ as_array(u)
    return np.concatenate([qdot, vdot])


def test_tracked_derivative_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    params = TrackedParams(k1=1.3, k2=0.8, tau_v=0.25, tau_omega=0.15, x_icr=0.07)
    for _ in range(200):
        state = TrackedState(*rng.uniform(-3, 3, 3), *rng.uniform(-2, 2, 2))
        u = TrackedInput(*rng.uniform(-2, 2, 2))
        eta = rng.uniform(0.2, 2.0, 2)
        d = derivative(state, u, params, eta)
        np.testing.assert_allclose(d, tracked_oracle(state, u, params, eta),
                                   rtol=1e-13, atol=1e-13)


def test_tracked_constraint_row_annihilates_pose_rate():
    # the nonholonomic constraint A(q) = [-sin, cos, x_icr] kills S(q) v exactly
    rng = np.random.default_rng(8)
    params = TrackedParams(x_icr=0.11)
    for _ in range(100):
        state = TrackedState(*rng.uniform(-3, 3, 3), *rng.uniform(-2, 2, 2))
        d = derivative(state, TrackedInput(0.4, -0.2), params)
        a_row = np.array([-math.sin(state.psi), math.cos(state.psi), params.x_icr])
        assert abs(a_row @ d[:3]) < 1e-14


def test_tracked_pose_speed_matches_body_speed():
    params = TrackedParams(x_icr=0.05)
    state = TrackedState(1.0, -2.0, 0.9, 1.2, -0.8)
    d = derivative(state, TrackedInput(0.0, 0.0), params)
    want = math.hypot(state.v_x, params.x_icr * state.omega)
    assert math.hypot(d[0], d[1]) == pytest.approx(want, rel=1e-12)


def test_turn_in_place_moves_no_position_without_icr_offset():
    d = derivative(TrackedState(0, 0, 0.5, 0.0, 2.0), TrackedInput(0, 1.0), TrackedParams())
    assert d[0] == 0.0 and d[1] == 0.0


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_tracked_derivative_affine_in_input(a, b, c, d):
    params = TrackedParams()
    state = TrackedState(0.3, -0.1, 1.1, 0.7, -0.4)
    eta = (0.8, 1.2)
    f = lambda uv, uo: derivative(state, TrackedInput(uv, uo), params, eta)
    lhs = f(a + c, b + d) + f(0.0, 0.0)
    rhs = f(a, b) + f(c, d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# the tracked rates unpack the eta pair, so any sequence of two floats serves
ETA_FORMS = {
    "tuple": (0.8, 1.2),
    "list": [0.8, 1.2],
    "ndarray": np.array([0.8, 1.2]),
}


@pytest.mark.parametrize("form", ETA_FORMS)
def test_eta_forms_tracked_accepted(form):
    state = TrackedState(0.2, -0.1, 0.4, 0.5, 0.1)
    u = TrackedInput(1.0, -0.3)
    p = TrackedParams(x_icr=0.05)
    eta = ETA_FORMS[form]
    np.testing.assert_array_equal(derivative(state, u, p, eta),
                                  derivative(state, u, p, (0.8, 1.2)))
    np.testing.assert_array_equal(as_array(plant_step(state, u, p, 0.01, eta)),
                                  as_array(plant_step(state, u, p, 0.01, (0.8, 1.2))))


def test_non_finite_state_raises():
    p = TrackedParams()
    with pytest.raises(NonFiniteError):
        plant_step(TrackedState(0, 0, float("nan"), 0, 0), TrackedInput(0, 0), p, 0.01)
    with pytest.raises(NonFiniteError):
        plant_step(TrackedState(0, 0, 0, float("inf"), 0), TrackedInput(0, 0), p, 0.01)
    with pytest.raises(NonFiniteError):
        plant_step(TrackedState(0, 0, 0, 0, 0), TrackedInput(float("nan"), 0), p, 0.01)


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
    coefficients they come from can be changed after construction. The
    Ackermann B_n, and the column the residual reads, likewise."""
    p = TrackedParams(k1=1.2, k2=0.9, tau_v=0.25, tau_omega=0.15)
    assert p.a_n() is p.a_n() and p.b_n() is p.b_n()
    assert p.residual_model(None) == (p.a_n(), p.b_n())
    np.testing.assert_array_equal(p.a_n(), np.diag([-1.0 / 0.25, -1.0 / 0.15]))
    np.testing.assert_array_equal(p.b_n(), np.diag([1.2 / 0.25, 0.9 / 0.15]))
    with pytest.raises(ValueError):
        p.b_n()[0, 0] = 0.0
    with pytest.raises(AttributeError):
        p.tau_v = 1.0

    car = AckermannParams(m=6.0, i_z=0.3, wheelbase=0.5, c_y=50.0)
    state = AckermannState(0.0, 0.0, 0.0, 1.5, 0.1, 0.2)
    (a_1, col_1), (a_2, col_2) = car.residual_model(state), car.residual_model(state)
    assert car.b_n() is car.b_n() and col_1 is col_2
    np.testing.assert_array_equal(car.b_n(), [50.0 / 6.0, 0.25 * 50.0 / 0.3])
    np.testing.assert_array_equal(col_1, car.b_n().reshape(2, 1))
    np.testing.assert_array_equal(a_1, car.a_n(1.5))
    for b in (car.b_n(), col_1):
        with pytest.raises(ValueError):
            b[0] = 0.0
    with pytest.raises(AttributeError):
        car.c_y = 1.0


def test_residual_model_over_column_arrays_equals_per_state_calls():
    """A state of column arrays gives one A_n per row, each bit for bit the
    one a single state gives, also at and below the v_min * 1.01 floor."""
    car = AckermannParams(m=6.0, i_z=0.3, wheelbase=0.5, c_y=50.0, v_min=0.2)
    floor = car.v_min * 1.01
    v_x = [2.5, 1.3, 0.7, np.nextafter(floor, 1.0), floor, np.nextafter(floor, 0.0),
           car.v_min, 0.05, -0.4]
    rng = np.random.default_rng(11)
    rows = rng.uniform(-1.0, 1.0, (len(v_x), 6))
    rows[:, 3] = v_x
    a_n, b_n = car.residual_model(AckermannState(*rows.T))
    assert a_n.shape == (len(v_x), 2, 2) and a_n.flags.c_contiguous
    for a_k, row in zip(a_n, rows):
        a_1, b_1 = car.residual_model(AckermannState(*row.tolist()))
        assert a_1.shape == (2, 2)
        np.testing.assert_array_equal(a_k, a_1)
        assert b_n is b_1
    np.testing.assert_array_equal(a_n[4:], np.broadcast_to(car.a_n(floor), (5, 2, 2)))
    tracked = TrackedParams(x_icr=0.05)
    a_t, b_t = tracked.residual_model(TrackedState(*rng.uniform(-1.0, 1.0, (5, 5)).T))
    assert a_t is tracked.a_n() and b_t is tracked.b_n()


# ------------------------------------------------------- ackermann derivative


def ackermann_oracle(state, u, params, eta):
    """The single-track equations written out: the pose moves with the body
    velocity rotated by psi, the forward speed lags its command, and the
    lateral and yaw balances carry the two axle cornering forces
    eta c_y alpha, the front one rotated by the steering angle."""
    half_l = 0.5 * params.wheelbase
    alpha_front = u.u_delta - np.arctan2(state.v_y + half_l * state.omega, state.v_x)
    alpha_rear = -np.arctan2(state.v_y - half_l * state.omega, state.v_x)
    force_front, force_rear = eta * params.c_y * alpha_front, eta * params.c_y * alpha_rear
    rot = np.array([[np.cos(state.psi), -np.sin(state.psi)],
                    [np.sin(state.psi), np.cos(state.psi)]])
    p_dot = rot @ np.array([state.v_x, state.v_y])
    v_y_dot = (force_front * np.cos(u.u_delta) + force_rear) / params.m - state.v_x * state.omega
    omega_dot = half_l * (force_front * np.cos(u.u_delta) - force_rear) / params.i_z
    return np.array([p_dot[0], p_dot[1], state.omega, (u.u_v - state.v_x) / params.tau_v,
                     v_y_dot, omega_dot])


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-math.pi, math.pi),
                 st.floats(0.2, 5.0), st.floats(-2, 2), st.floats(-3, 3)),
       st.tuples(st.floats(-1, 5), st.floats(-0.6, 0.6)),
       st.tuples(st.floats(1.0, 20.0), st.floats(0.05, 1.0), st.floats(0.2, 1.0),
                 st.floats(10.0, 120.0), st.floats(0.05, 1.0)),
       st.floats(0.05, 2.0))
def test_ackermann_derivative_matches_single_track_oracle(y, u, p, eta):
    # np.arctan2 and math.atan2 differ in the last bit on some inputs
    state, inp = AckermannState(*y), AckermannInput(*u)
    params = AckermannParams(*p, v_min=0.1)
    np.testing.assert_allclose(derivative(state, inp, params, eta),
                               ackermann_oracle(state, inp, params, eta),
                               rtol=1e-12, atol=1e-12)


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
            s = plant_step(s, u, params, dt, eta)
        return as_array(s)

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
        state = plant_step(state, u, params, dt)
    t = 1.0
    r = v0 / w0
    assert state.p_x == pytest.approx(r * (math.sin(psi0 + w0 * t) - math.sin(psi0)), abs=1e-6)
    assert state.p_y == pytest.approx(r * (math.cos(psi0) - math.cos(psi0 + w0 * t)), abs=1e-6)
    assert state.psi == pytest.approx(psi0 + w0 * t, abs=1e-6)
    # velocities sit at the fixed point exactly
    assert state.v_x == v0 and state.omega == w0


def generic_rk4(state, u, params, dt, eta):
    """Textbook RK4 over the public derivative, in the integrator's order of
    operations: y + dt/6 (k1 + 2 k2 + 2 k3 + k4), heading wrapped."""
    cls = type(state)
    y0 = as_array(state)
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
        as_array(plant_step(state, inp, params, dt, eta)),
        generic_rk4(state, inp, params, dt, eta))


# forward speeds from reverse through standstill and the blend speed to cruise
car_speed = st.one_of(st.floats(-1.0, 3.0), st.floats(-0.05, 0.15),
                      st.sampled_from([0.0, -0.0, 0.1, math.nextafter(0.1, 0.0)]))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-math.pi, math.pi),
                 car_speed, unit, unit),
       st.tuples(car_speed, st.floats(-0.4, 0.4)),
       st.floats(0.05, 2.0), plant_dt)
def test_ackermann_step_is_exactly_rk4_over_derivative(y, u, eta, dt):
    state, inp, params = AckermannState(*y), AckermannInput(*u), AckermannParams()
    np.testing.assert_array_equal(
        as_array(plant_step(state, inp, params, dt, eta)),
        generic_rk4(state, inp, params, dt, eta))


# 4 x 6 cells of 0.25 m in 2 x 3 blocks of the three default classes
SMALL_WORLD = build_world(WorldSpec(rows=4, cols=6, tile_rows=4, tile_cols=6, layout="blocks"))
# start coordinates inside the map, on a cell border, and beyond an edge
world_x = st.one_of(st.floats(0.0, 1.5), st.integers(-2, 8).map(lambda i: 0.25 * i),
                    st.floats(-1.0, 0.0), st.floats(1.5, 2.5))
world_y = st.one_of(st.floats(0.0, 1.0), st.integers(-2, 6).map(lambda i: 0.25 * i),
                    st.floats(-1.0, 0.0), st.floats(1.0, 2.0))


def eta_under(world, x, y):
    """The eta table row of the cell under (x, y), with the floor-and-clamp
    index written out: the row from y, the column from x, each clamped to
    the grid."""
    n_rows, n_cols = world.class_grid.shape
    row = min(max(math.floor(y / world.cell_size), 0), n_rows - 1)
    col = min(max(math.floor(x / world.cell_size), 0), n_cols - 1)
    return world.eta_table[world.class_grid[row, col]]


def oracle_steps(state, inp, params, dt, n_sub, eta_of):
    """n_sub generic_rk4 steps, eta looked up by the test at each step's start."""
    for _ in range(n_sub):
        y = generic_rk4(state, inp, params, dt, eta_of(eta_under(SMALL_WORLD, state.p_x,
                                                                 state.p_y)))
        state = type(state)(*y.tolist())
    return as_array(state)


@settings(max_examples=150, deadline=None)
@given(world_x, world_y, st.floats(-math.pi, math.pi), st.floats(-3, 3), st.floats(-3, 3),
       st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
def test_tracked_world_step_is_exactly_rk4_over_the_world_eta(x, y, psi, v_x, omega, u):
    state, inp, params = TrackedState(x, y, psi, v_x, omega), TrackedInput(*u), \
        TrackedParams(x_icr=0.05)
    np.testing.assert_array_equal(
        as_array(plant_step(state, inp, params, 0.01, n_sub=5, terrain=SMALL_WORLD.eta_at)),
        oracle_steps(state, inp, params, 0.01, 5, lambda row: row))


@settings(max_examples=150, deadline=None)
@given(world_x, world_y, st.floats(-math.pi, math.pi), car_speed, unit, unit,
       st.tuples(car_speed, st.floats(-0.4, 0.4)))
def test_ackermann_world_step_is_exactly_rk4_over_the_world_eta(x, y, psi, v_x, v_y, omega, u):
    # the car reads the first eta entry, as the harness's terrain lookup passes it
    state, inp, params = AckermannState(x, y, psi, v_x, v_y, omega), AckermannInput(*u), \
        AckermannParams()
    terrain = lambda px, py: SMALL_WORLD.eta_at(px, py)[0]
    np.testing.assert_array_equal(
        as_array(plant_step(state, inp, params, 0.01, n_sub=5, terrain=terrain)),
        oracle_steps(state, inp, params, 0.01, 5, lambda row: float(row[0])))


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
        state = plant_step(state, inp, params, dt, terrain(state.p_x, state.p_y))
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
        as_array(plant_step(state, inp, params, dt, n_sub=n_sub, terrain=terrain)),
        as_array(single_steps(state, inp, params, dt, n_sub, terrain)))


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
        as_array(plant_step(state, inp, params, dt, n_sub=n_sub, terrain=terrain)),
        as_array(single_steps(state, inp, params, dt, n_sub, terrain)))


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
    out = plant_step(state, inp, params, 0.01, n_sub=5, terrain=terrain)
    oracle, oracle_queries = striped_terrain(stripes)
    expected = single_steps(state, inp, params, 0.01, 5, oracle)
    np.testing.assert_array_equal(as_array(out), as_array(expected))
    assert queries == oracle_queries and len(queries) == 5
    assert queries[0] == (0.0, 0.0)
    assert len({math.floor(x / 0.05) for x, _ in queries}) > 1     # borders crossed


def test_substep_checks():
    p = TrackedParams()
    # a result that overflowed is refused on exit
    with pytest.raises(NonFiniteError):
        plant_step(TrackedState(0, 0, 0, 1e308, 0), TrackedInput(0, 0), p, 0.01)
    # a substep that diverged is reported as such, even when the next terrain
    # lookup, which refuses a non-finite position, is what trips over it
    def lookup(x, y):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("non-finite world query")
        return (1.0, 1.0)
    stiff = TrackedParams(tau_v=1e-300, tau_omega=1e-300)
    with pytest.raises(NonFiniteError):
        plant_step(TrackedState(0, 0, 0, 0, 0), TrackedInput(2.0, 0.0), stiff, 0.01,
                   n_sub=5, terrain=lookup)


@pytest.mark.parametrize("vehicle", ["tracked", "ackermann"])
def test_rk4_steps_checks_its_own_result(vehicle):
    """rk4_steps refuses a result that is not finite (NonFiniteError, naming
    the state class), whether no lookup raised or the lookup at the next
    step refused the diverged position. A lookup's ValueError at a finite
    state, and any other exception, pass through unchanged."""
    if vehicle == "tracked":
        params, y, u, eta = TrackedParams(), [0.5, 0.5, 0.0, 1e308, 0.0], (0.0, 0.0), (1.0, 1.0)
    else:
        params, y, u, eta = AckermannParams(), [0.5, 0.5, 0.0, 1e308, 0.0, 0.0], (1.0, 0.0), 1.0
    rates = params.stage_rates(*u)
    diverged = f"non-finite value in {params.state_cls.__name__}"
    # one step from a forward speed of 1e308 overflows; no lookup raises
    with pytest.raises(NonFiniteError, match=diverged):
        params.rk4_steps(rates, y, lambda p_x, p_y: eta, 0.01, 1)

    def refusing(p_x, p_y):
        if not (math.isfinite(p_x) and math.isfinite(p_y)):
            raise ValueError("non-finite world query")
        return eta
    with pytest.raises(NonFiniteError, match=diverged):
        params.rk4_steps(rates, y, refusing, 0.01, 2)

    def off_map(p_x, p_y):
        raise ValueError("off the map")
    with pytest.raises(ValueError, match="off the map") as refused:
        params.rk4_steps(rates, y, off_map, 0.01, 2)
    assert type(refused.value) is ValueError

    interrupt = KeyboardInterrupt()

    def interrupted(p_x, p_y):
        if not math.isfinite(p_x):
            raise interrupt
        return eta
    with pytest.raises(KeyboardInterrupt) as stopped:
        params.rk4_steps(rates, y, interrupted, 0.01, 2)
    assert stopped.value is interrupt


@pytest.mark.parametrize("vehicle", ["tracked", "ackermann"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_world_lookup_at_a_diverged_substep_is_non_finite_error(vehicle, bad):
    """One substep from a forward speed of 1e308 overflows p_x to inf (to
    -inf heading west; to NaN when the forward lag overflows as well). The
    world lookup at the next substep refuses that position with ValueError,
    and rk4_steps reports the divergence as NonFiniteError, as it does the
    diverged result of the one substep."""
    psi = math.pi if bad == -math.inf else 0.0
    tau_v = 1e300 if math.isinf(bad) else 0.25          # a slow lag keeps v_x finite
    if vehicle == "tracked":
        params, state, inp = TrackedParams(tau_v=tau_v), \
            TrackedState(0.5, 0.5, psi, 1e308, 0.0), TrackedInput(0.0, 0.0)
        lookup = SMALL_WORLD.eta_at
    else:
        params, state, inp = AckermannParams(tau_v=tau_v), \
            AckermannState(0.5, 0.5, psi, 1e308, 0.0, 0.0), AckermannInput(1.0, 0.0)
        lookup = SMALL_WORLD.eta_first_at
    rates = params.stage_rates(*as_array(inp).tolist())
    # the refused result starts with p_x
    diverged = re.escape(f"{params.state_cls.__name__}: ({bad!r}, ")
    with pytest.raises(NonFiniteError, match=diverged):
        params.rk4_steps(rates, as_array(state).tolist(), lookup, 0.01, 1)
    with pytest.raises(ValueError, match="non-finite world query"):
        lookup(bad, 0.5)
    with pytest.raises(NonFiniteError, match=diverged):
        plant_step(state, inp, params, 0.01, n_sub=2, terrain=lookup)


def test_rk4_steps_wraps_heading():
    state = TrackedState(0, 0, math.pi - 0.001, 0.0, 2.0)
    out = plant_step(state, TrackedInput(0, 2.0), TrackedParams(), 0.05)
    assert -math.pi < out.psi <= math.pi
    assert out.psi < 0  # crossed the branch cut


@pytest.mark.parametrize("plant", [lambda s, u, p: plant_step(s, u, p, 0.01), derivative],
                         ids=["plant_step", "derivative"])
def test_plant_refuses_state_of_other_vehicle(plant):
    """The params pick the vehicle; a state of the other one is a TypeError,
    not an AttributeError from deep inside the step."""
    with pytest.raises(TypeError, match="AckermannState"):
        plant(AckermannState(0, 0, 0, 1.0, 0, 0), TrackedInput(1.0, 0.0), TrackedParams())
    with pytest.raises(TypeError, match="TrackedState"):
        plant(TrackedState(0, 0, 0, 1.0, 0), AckermannInput(1.0, 0.0), AckermannParams())


# ------------------------------------------------------------------ faults


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


@given(st.floats(-2, 2), st.floats(-3, 3), st.floats(0, 1), st.floats(0, 1),
       st.floats(0.05, 1.0))
def test_fault_scales_each_track_exactly(u_v, u_omega, ls, rs, b):
    """The faulted command is the differential-drive mix written out, bit for
    bit: track speeds u_v -/+ b u_omega, each scaled, mixed back. Its own
    track speeds are the scaled ones, up to rounding."""
    u = TrackedInput(u_v, u_omega)
    got = apply_track_fault(u, ls, rs, b)
    if ls == 1.0 and rs == 1.0:
        assert got is u
        return
    left, right = (u_v - b * u_omega) * ls, (u_v + b * u_omega) * rs
    assert (got.u_v, got.u_omega) == (0.5 * (left + right), (right - left) / (2.0 * b))
    assert got.u_v - b * got.u_omega == pytest.approx(left, abs=1e-12)
    assert got.u_v + b * got.u_omega == pytest.approx(right, abs=1e-12)


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
        return derivative(s, AckermannInput(v_x, delta), p)[4:6]

    jac = np.column_stack([
        (lat(h, 0, 0) - lat(-h, 0, 0)) / (2 * h),
        (lat(0, h, 0) - lat(0, -h, 0)) / (2 * h),
    ])
    np.testing.assert_allclose(jac, p.a_n(v_x), rtol=1e-6, atol=1e-8)
    b_fd = (lat(0, 0, h) - lat(0, 0, -h)) / (2 * h)
    np.testing.assert_allclose(b_fd, p.b_n(), rtol=1e-6)
    # forward channel is a plain first-order lag
    d = derivative(base, u0, p)
    assert d[3] == pytest.approx((-v_x + u0.u_v) / p.tau_v)


def test_ackermann_steady_cornering_rate():
    """Small steady steering: omega -> v_x * delta / L (neutral steer, equal
    axles). 5% tolerance covers the atan nonlinearity."""
    p = AckermannParams()
    v_x, delta = 1.5, 0.05
    state = AckermannState(0, 0, 0, v_x, 0.0, 0.0)
    u = AckermannInput(v_x, delta)
    for _ in range(1000):
        state = plant_step(state, u, p, 0.005)
    want = v_x * delta / p.wheelbase
    assert state.omega == pytest.approx(want, rel=0.05)
    assert state.omega > 0  # positive steering turns left


def test_ackermann_straight_running_is_equilibrium():
    p = AckermannParams()
    s = AckermannState(0, 0, 0, 1.0, 0.0, 0.0)
    d = derivative(s, AckermannInput(1.0, 0.0), p)
    np.testing.assert_allclose(d[2:], 0.0, atol=1e-15)
    np.testing.assert_allclose(d[:2], [1.0, 0.0], atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(-0.3, 0.3), st.floats(0.3, 1.9))
def test_ackermann_integration_stays_finite(v0, delta, eta):
    p = AckermannParams()
    s = AckermannState(0, 0, 0, v0, 0.0, 0.0)
    u = AckermannInput(v0, delta)
    for _ in range(50):
        s = plant_step(s, u, p, 0.01, eta)
    assert np.all(np.isfinite(as_array(s)))
    assert -math.pi < s.psi <= math.pi


# ------------------------------------------------------------ low speed


def kinematic_rates(state, u, params):
    """The lateral rates of the low-speed regime alone: v_y relaxes toward
    (L/2) omega and omega toward v_x tan(u_delta) / L, both with tau_v."""
    half_l = 0.5 * params.wheelbase
    return np.array([(half_l * state.omega - state.v_y) / params.tau_v,
                     (state.v_x * math.tan(u.u_delta) / params.wheelbase - state.omega)
                     / params.tau_v])


LOW_SPEED_STATES = [AckermannState(0.3, -0.2, 0.4, 0.0, 0.05, -0.3),
                    AckermannState(0.0, 0.0, -2.0, 0.0, -0.2, 0.8),
                    AckermannState(1.0, 2.0, 3.0, 0.0, 0.0, 0.0)]


@pytest.mark.parametrize("state", LOW_SPEED_STATES)
@pytest.mark.parametrize("u", [AckermannInput(0.5, 0.3), AckermannInput(-1.0, -0.2)])
def test_ackermann_rates_continuous_at_the_blend_speed(state, u):
    """The rates are continuous at v_min from both sides and at standstill,
    the dynamic model's alone at and above v_min, the kinematic bicycle's at
    and below zero, and their blend w = v_x / v_min in between."""
    p = AckermannParams(v_min=0.2)
    at = lambda v_x: derivative(AckermannState(state.p_x, state.p_y, state.psi, v_x,
                                               state.v_y, state.omega), u, p, 0.9)
    for edge in (p.v_min, 0.0):
        for side in (math.nextafter(edge, -1.0), math.nextafter(edge, 1.0)):
            np.testing.assert_allclose(at(side), at(edge), rtol=1e-12, atol=1e-12)
        for gap in (1e-9, -1e-9):
            np.testing.assert_allclose(at(edge + gap), at(edge), rtol=0.0, atol=1e-5)
    for v_x in (p.v_min, 0.5, 2.0):
        moved = AckermannState(state.p_x, state.p_y, state.psi, v_x, state.v_y, state.omega)
        np.testing.assert_allclose(at(v_x), ackermann_oracle(moved, u, p, 0.9),
                                   rtol=1e-12, atol=1e-12)
    for v_x in (0.0, -0.3, -1.5):
        moved = AckermannState(state.p_x, state.p_y, state.psi, v_x, state.v_y, state.omega)
        np.testing.assert_allclose(at(v_x)[4:], kinematic_rates(moved, u, p),
                                   rtol=1e-12, atol=1e-12)
    v_x = 0.25 * p.v_min
    moved = AckermannState(state.p_x, state.p_y, state.psi, v_x, state.v_y, state.omega)
    np.testing.assert_allclose(at(v_x)[4:], 0.25 * ackermann_oracle(moved, u, p, 0.9)[4:]
                               + 0.75 * kinematic_rates(moved, u, p), rtol=1e-12, atol=1e-12)


def test_ackermann_stop_and_go_then_reverse_stays_finite():
    """From rest: drive off, stop, drive off again, then reverse, stepped at
    the harness's rate. Every state is finite; the car stands still with no
    yaw when stopped, and in reverse it settles onto the kinematic bicycle,
    yawing against its steering."""
    p = AckermannParams()
    state = AckermannState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    phases = [(AckermannInput(1.0, 0.2), 4.0), (AckermannInput(0.0, 0.2), 4.0),
              (AckermannInput(0.8, -0.3), 4.0), (AckermannInput(0.0, 0.0), 2.0),
              (AckermannInput(-0.5, 0.3), 6.0)]
    for u, duration in phases:
        for _ in range(round(duration / 0.05)):
            state = plant_step(state, u, p, 0.01, eta=0.8, n_sub=5)
            assert np.all(np.isfinite(as_array(state))) and -math.pi < state.psi <= math.pi
        if u.u_v == 0.0:
            assert abs(state.v_x) < 1e-3 and abs(state.omega) < 1e-4
            assert abs(state.v_y) < 1e-4
    assert state.v_x == pytest.approx(-0.5, abs=1e-6)
    yaw_kin = state.v_x * math.tan(0.3) / p.wheelbase
    assert state.omega < 0.0 and state.omega == pytest.approx(yaw_kin, rel=1e-6)
    assert state.v_y == pytest.approx(0.5 * p.wheelbase * state.omega, rel=1e-6)

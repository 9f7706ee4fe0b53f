"""Ground vehicle models: skid-steer tracked vehicle and Ackermann car.

Both vehicles share the same structure: a kinematic pose layer driven by a
body-velocity state, and a first-order (tracked) or bicycle (Ackermann)
velocity layer whose control effectiveness is scaled by a terrain factor
`eta`. The tracked velocity plant is

    vdot = A_n v + diag(eta) B_n u,
    A_n = diag(-1/tau_v, -1/tau_omega),  B_n = diag(k1/tau_v, k2/tau_omega),

and the pose obeys the nonholonomic rolling constraint

    qdot = S(q) v,  S(q) = [[cos psi, x_icr sin psi],
                            [sin psi, -x_icr cos psi],
                            [0, 1]],

whose constraint row A(q) = [-sin psi, cos psi, x_icr] satisfies
A(q) S(q) v = 0 identically. The Ackermann model is a nonlinear single-track
(bicycle) model with linear tire forces, the center of gravity at the
wheelbase midpoint, and the forward channel reduced to a first-order lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class NonFiniteError(ValueError):
    """A state, input, or parameter contains NaN or infinity."""


class SlipUndefinedError(ValueError):
    """Slip quantities are undefined at (near-)zero forward speed."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - a) % TWO_PI


@dataclass
class TrackedState:
    """Skid-steer vehicle state: planar pose plus body velocity.

    psi is kept wrapped to (-pi, pi] by the integrator. v_x is the body
    forward speed, omega the yaw rate.
    """

    p_x: float
    p_y: float
    psi: float
    v_x: float
    omega: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p_x, self.p_y, self.psi, self.v_x, self.omega])


@dataclass
class AckermannState:
    """Car state: pose plus body-frame forward, lateral, and yaw velocity.

    v_x must stay above AckermannParams.v_min while the lateral dynamics are
    evaluated; slip angles are undefined at standstill.
    """

    p_x: float
    p_y: float
    psi: float
    v_x: float
    v_y: float
    omega: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p_x, self.p_y, self.psi, self.v_x, self.v_y, self.omega])


@dataclass(frozen=True)
class TrackedParams:
    """Tracked plant coefficients. Gains and time constants must be positive.

    Frozen, because A_n and B_n are built once from them and shared
    (read-only) by every caller.
    """

    k1: float = 1.0          # forward speed gain, u_v -> v_x at steady state
    k2: float = 1.0          # yaw rate gain, u_omega -> omega at steady state
    tau_v: float = 0.3       # forward channel time constant [s]
    tau_omega: float = 0.2   # yaw channel time constant [s]
    x_icr: float = 0.0       # instantaneous center of rotation offset [m]

    def __post_init__(self):
        if not (self.k1 > 0 and self.k2 > 0 and self.tau_v > 0 and self.tau_omega > 0):
            raise ValueError("tracked gains and time constants must be positive")
        a_n = np.diag([-1.0 / self.tau_v, -1.0 / self.tau_omega])
        b_n = np.diag([self.k1 / self.tau_v, self.k2 / self.tau_omega])
        a_n.flags.writeable = b_n.flags.writeable = False
        object.__setattr__(self, "_a_n", a_n)
        object.__setattr__(self, "_b_n", b_n)

    def a_n(self) -> np.ndarray:
        return self._a_n

    def b_n(self) -> np.ndarray:
        return self._b_n

    def residual_model(self, state) -> tuple[np.ndarray, np.ndarray]:
        """(A_n, B_n) the dynamics residual is measured against."""
        return self.a_n(), self.b_n()


@dataclass
class AckermannParams:
    """Single-track car coefficients; all physical values must be positive."""

    m: float = 8.0          # mass [kg]
    i_z: float = 0.25       # yaw inertia [kg m^2]
    wheelbase: float = 0.48  # axle-to-axle distance [m], CG at midpoint
    c_y: float = 60.0       # cornering stiffness per axle [N/rad]
    tau_v: float = 0.25     # forward channel time constant [s]
    v_min: float = 0.1      # lateral model validity threshold [m/s]

    def __post_init__(self):
        vals = (self.m, self.i_z, self.wheelbase, self.c_y, self.tau_v, self.v_min)
        if not all(v > 0 for v in vals):
            raise ValueError("Ackermann parameters must be positive")

    def a_n(self, v_x: float) -> np.ndarray:
        """Linearized lateral/yaw system matrix at forward speed v_x."""
        if v_x <= self.v_min:
            raise SlipUndefinedError(f"v_x={v_x} at or below v_min={self.v_min}")
        half_l = 0.5 * self.wheelbase
        return np.array([
            [-2.0 * self.c_y / (self.m * v_x), -v_x],
            [0.0, -self.c_y * 2.0 * half_l * half_l / (v_x * self.i_z)],
        ])

    def b_n(self) -> np.ndarray:
        """Linearized steering influence on [v_y, omega]."""
        return np.array([self.c_y / self.m, 0.5 * self.wheelbase * self.c_y / self.i_z])

    def residual_model(self, state) -> tuple[np.ndarray, np.ndarray]:
        """(A_n, B_n) of the lateral residual: A_n at the state's forward speed,
        held just above v_min, and B_n as a column for the steering input."""
        return self.a_n(max(state.v_x, self.v_min * 1.01)), self.b_n().reshape(2, 1)


@dataclass
class TrackedInput:
    """Commanded forward speed and yaw rate for the tracked vehicle."""

    u_v: float
    u_omega: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u_v, self.u_omega])


@dataclass
class AckermannInput:
    """Commanded forward speed and front steering angle for the car."""

    u_v: float
    u_delta: float


def _check_finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteError(f"non-finite value in {label}: {values}")


def _check_eta_tracked(eta) -> tuple[float, float]:
    # two plain floats, the form the simulation loops pass, are checked with
    # scalar compares (which also fail on NaN); anything else, or a value
    # that fails, goes through the array path, which converts or raises
    if type(eta) in (tuple, list) and len(eta) == 2:
        e1, e2 = eta
        if type(e1) is float and type(e2) is float and 0.0 < e1 <= 2.0 and 0.0 < e2 <= 2.0:
            return e1, e2
    e = np.asarray(eta, dtype=float).reshape(-1)
    if e.shape != (2,):
        raise ValueError(f"tracked eta must have two diagonal entries, got shape {e.shape}")
    if not np.all(np.isfinite(e)) or np.any(e <= 0) or np.any(e > 2.0):
        raise ValueError(f"tracked eta entries must lie in (0, 2], got {e}")
    return float(e[0]), float(e[1])


def tracked_derivative(state: TrackedState, u: TrackedInput, params: TrackedParams,
                       eta=(1.0, 1.0)) -> np.ndarray:
    """Time derivative of the tracked state under terrain scaling eta.

    Returns [pdot_x, pdot_y, psidot, vdot_x, omegadot].
    """
    _check_finite("tracked state", state.p_x, state.p_y, state.psi, state.v_x, state.omega)
    _check_finite("tracked input", u.u_v, u.u_omega)
    e1, e2 = _check_eta_tracked(eta)
    return np.array(_tracked_rhs(state.psi, state.v_x, state.omega, params.x_icr,
                                 e1 * params.k1 * u.u_v, params.tau_v,
                                 e2 * params.k2 * u.u_omega, params.tau_omega))


def _tracked_rhs(psi, v_x, omega, x_icr, f_v, tau_v, f_omega, tau_omega):
    """Tracked derivative with the input terms f = eta k u already formed;
    the pose does not enter it."""
    c, s = math.cos(psi), math.sin(psi)
    return (
        c * v_x + x_icr * s * omega,
        s * v_x - x_icr * c * omega,
        omega,
        (-v_x + f_v) / tau_v,
        (-omega + f_omega) / tau_omega,
    )


def ackermann_derivative(state: AckermannState, u: AckermannInput, params: AckermannParams,
                         eta: float = 1.0) -> np.ndarray:
    """Time derivative of the car state; eta scales lateral force production.

    Tire slip angles follow the single-track convention with the CG at the
    wheelbase midpoint:

        alpha_f = u_delta - atan2(v_y + (L/2) omega, v_x)
        alpha_r = -atan2(v_y - (L/2) omega, v_x)

    The front axle is undriven (no longitudinal front force), so the lateral
    and yaw balances carry only the cornering forces.
    """
    _check_finite("ackermann state", state.p_x, state.p_y, state.psi,
                  state.v_x, state.v_y, state.omega)
    _check_finite("ackermann input", u.u_v, u.u_delta)
    if not (math.isfinite(eta) and 0.0 < eta <= 2.0):
        raise ValueError(f"ackermann eta must lie in (0, 2], got {eta}")
    if state.v_x <= params.v_min:
        raise SlipUndefinedError(
            f"v_x={state.v_x} at or below v_min={params.v_min}: slip angles undefined")
    return np.array(_ackermann_rhs(
        (state.p_x, state.p_y, state.psi, state.v_x, state.v_y, state.omega),
        u.u_v, u.u_delta, params, eta))


def _ackermann_rhs(y, u_v, u_delta, p: AckermannParams, eta):
    _, _, psi, v_x, v_y, omega = y
    half_l = 0.5 * p.wheelbase
    alpha_f = u_delta - math.atan2(v_y + half_l * omega, v_x)
    alpha_r = -math.atan2(v_y - half_l * omega, v_x)
    f_yf = eta * p.c_y * alpha_f
    f_yr = eta * p.c_y * alpha_r
    cos_d = math.cos(u_delta)
    c, s = math.cos(psi), math.sin(psi)
    return (
        c * v_x - s * v_y,
        s * v_x + c * v_y,
        omega,
        (-v_x + u_v) / p.tau_v,
        (f_yr + f_yf * cos_d) / p.m - omega * v_x,
        half_l * (f_yf * cos_d - f_yr) / p.i_z,
    )


def integrate_step(state, u, params, dt: float, eta=None, n_sub: int = 1, terrain=None):
    """Advance n_sub fixed RK4 steps of dt seconds each; returns a new state.

    dt must lie in (0, 0.1]. The input is held over every substep, and the
    heading is wrapped to (-pi, pi] after each. The terrain factor is either
    eta, held over the whole call, or terrain(p_x, p_y), looked up at the
    start of every substep and returning eta in the same form; not both.
    State and input are checked once on entry and the result once on exit;
    eta, and the Ackermann forward speed against v_min, at every substep.
    """
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must lie in (0, 0.1], got {dt}")
    if n_sub < 1:
        raise ValueError(f"n_sub must be at least 1, got {n_sub}")
    if terrain is not None and eta is not None:
        raise ValueError("pass eta or terrain, not both")
    if isinstance(state, TrackedState):
        y = (state.p_x, state.p_y, state.psi, state.v_x, state.omega)
        _check_finite("tracked state", *y)
        _check_finite("tracked input", u.u_v, u.u_omega)
        fixed = (1.0, 1.0) if eta is None else eta
        # coefficients are fixed over the call; the input terms only per substep
        k1, k2, u_v, u_omega = params.k1, params.k2, u.u_v, u.u_omega
        x_icr, tau_v, tau_omega = params.x_icr, params.tau_v, params.tau_omega
        try:
            for _ in range(n_sub):
                e1, e2 = _check_eta_tracked(fixed if terrain is None else terrain(y[0], y[1]))
                f_v, f_omega = e1 * k1 * u_v, e2 * k2 * u_omega
                y = _rk4(y, lambda z: _tracked_rhs(z[2], z[3], z[4], x_icr, f_v, tau_v,
                                                   f_omega, tau_omega), dt)
                y[2] = wrap_angle(y[2])
        except ValueError:
            # a substep that diverged can make the next lookup or cos fail:
            # report the divergence, as an entry check at that substep would
            _check_finite("tracked state", *y)
            raise
        _check_finite("tracked state", *y)
        return TrackedState(*y)
    if isinstance(state, AckermannState):
        y = (state.p_x, state.p_y, state.psi, state.v_x, state.v_y, state.omega)
        _check_finite("ackermann state", *y)
        _check_finite("ackermann input", u.u_v, u.u_delta)
        fixed = 1.0 if eta is None else eta
        u_v, u_delta, v_min = u.u_v, u.u_delta, params.v_min
        try:
            for _ in range(n_sub):
                if y[3] <= v_min:
                    raise SlipUndefinedError(
                        f"v_x={y[3]} at or below v_min={v_min}: slip angles undefined")
                ev = float(fixed if terrain is None else terrain(y[0], y[1]))
                if not (math.isfinite(ev) and 0.0 < ev <= 2.0):
                    raise ValueError(f"ackermann eta must lie in (0, 2], got {ev}")
                y = _rk4(y, lambda z: _ackermann_rhs(z, u_v, u_delta, params, ev), dt)
                y[2] = wrap_angle(y[2])
        except ValueError:
            _check_finite("ackermann state", *y)
            raise
        _check_finite("ackermann state", *y)
        return AckermannState(*y)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def _rk4(y0, rhs, dt):
    """One classic RK4 step of y' = rhs(y) from the sequence y0; returns a
    list. h is formed once per stage weight, as y + (0.5 dt) k rounds."""
    h = 0.5 * dt
    k1 = rhs(y0)
    k2 = rhs([y + h * k for y, k in zip(y0, k1)])
    k3 = rhs([y + h * k for y, k in zip(y0, k2)])
    k4 = rhs([y + dt * k for y, k in zip(y0, k3)])
    h = dt / 6.0
    return [y + h * (a + 2.0 * b + 2.0 * c + d) for y, a, b, c, d in zip(y0, k1, k2, k3, k4)]


def longitudinal_slip(v_x: float, u_v: float, v_min: float = 0.1) -> float:
    """Longitudinal slip ratio kappa = -(v_x - u_v) / v_x. Diagnostic only.

    kappa = 0 when the commanded and actual speeds agree, positive when the
    tracks spin faster than the vehicle moves. Undefined below v_min.
    """
    _check_finite("slip inputs", v_x, u_v)
    if abs(v_x) < v_min:
        raise SlipUndefinedError(f"|v_x|={abs(v_x)} below v_min={v_min}: slip undefined")
    return -(v_x - u_v) / v_x


def track_speeds(u: TrackedInput, half_spacing: float) -> tuple[float, float]:
    """Convert (u_v, u_omega) to equivalent (left, right) track speeds."""
    if half_spacing <= 0:
        raise ValueError("half_spacing must be positive")
    return u.u_v - half_spacing * u.u_omega, u.u_v + half_spacing * u.u_omega


def from_track_speeds(left: float, right: float, half_spacing: float) -> TrackedInput:
    """Inverse of track_speeds."""
    if half_spacing <= 0:
        raise ValueError("half_spacing must be positive")
    return TrackedInput(0.5 * (left + right), (right - left) / (2.0 * half_spacing))


def apply_track_fault(u: TrackedInput, left_scale: float, right_scale: float,
                      half_spacing: float = 0.3) -> TrackedInput:
    """Scale individual track speeds to emulate a degraded track.

    The command is mixed into differential-drive track speeds, each track is
    scaled by its factor in [0, 1], and the result is mixed back. Unity scales
    return the input object unchanged, bit for bit.
    """
    _check_finite("fault input", u.u_v, u.u_omega)
    for name, sc in (("left_scale", left_scale), ("right_scale", right_scale)):
        if not (math.isfinite(sc) and 0.0 <= sc <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {sc}")
    if left_scale == 1.0 and right_scale == 1.0:
        return u
    left, right = track_speeds(u, half_spacing)
    return from_track_speeds(left * left_scale, right * right_scale, half_spacing)

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

Both vehicles share one stepping path, integrate_step, and one derivative,
and the RK4 scheme is written once, in _rk4. The params object picks the
vehicle: each params class supplies only its state class, eta_value and its
substep derivative, whose RK4 stages form only the state components it reads.
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
    state_cls = TrackedState

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

    @staticmethod
    def eta_value(eta) -> tuple[float, float]:
        """An explicit eta, two entries in (0, 2] in any form, as floats; None: 1."""
        e = [1.0, 1.0] if eta is None else np.ravel(eta).tolist()
        if len(e) != 2 or not all(0.0 < v <= 2.0 for v in e):     # NaN fails too
            raise ValueError(f"tracked eta must be two entries in (0, 2], got {eta}")
        return float(e[0]), float(e[1])

    def substep_derivative(self, u: TrackedInput):
        """The derivative under the held input u, for integrate_step and
        derivative: substep(y, eta), for a checked or looked-up eta pair,
        returns rhs(y0, k, h), the derivative at y0 + h k (y0 when k is None)
        with the input terms f = eta k u formed; only psi, v_x and omega of
        that stage state are formed. Input and coefficients are read once."""
        u_v, u_omega = u.u_v, u.u_omega
        _check_finite("TrackedInput", u_v, u_omega)
        k1, k2, x_icr, tau_v, tau_omega = self.k1, self.k2, self.x_icr, self.tau_v, self.tau_omega

        def substep(y, eta):
            e1, e2 = eta
            f_v, f_omega = e1 * k1 * u_v, e2 * k2 * u_omega

            def rhs(y0, k, h):                     # the position does not enter
                psi, v_x, omega = y0[2:] if k is None else (
                    y0[2] + h * k[2], y0[3] + h * k[3], y0[4] + h * k[4])
                c, s = math.cos(psi), math.sin(psi)
                return (c * v_x + x_icr * s * omega, s * v_x - x_icr * c * omega, omega,
                        (-v_x + f_v) / tau_v, (-omega + f_omega) / tau_omega)
            return rhs
        return substep


@dataclass(frozen=True)
class AckermannParams:
    """Single-track car coefficients; all physical values must be positive.

    Frozen, because B_n and its column form are built once from them and
    shared (read-only) by every caller; A_n depends on the forward speed.
    """

    m: float = 8.0          # mass [kg]
    i_z: float = 0.25       # yaw inertia [kg m^2]
    wheelbase: float = 0.48  # axle-to-axle distance [m], CG at midpoint
    c_y: float = 60.0       # cornering stiffness per axle [N/rad]
    tau_v: float = 0.25     # forward channel time constant [s]
    v_min: float = 0.1      # lateral model validity threshold [m/s]
    state_cls = AckermannState

    def __post_init__(self):
        vals = (self.m, self.i_z, self.wheelbase, self.c_y, self.tau_v, self.v_min)
        if not all(v > 0 for v in vals):
            raise ValueError("Ackermann parameters must be positive")
        b_n = np.array([self.c_y / self.m, 0.5 * self.wheelbase * self.c_y / self.i_z])
        b_n.flags.writeable = False
        object.__setattr__(self, "_b_n", b_n)
        object.__setattr__(self, "_b_col", b_n.reshape(2, 1))

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
        return self._b_n

    def residual_model(self, state) -> tuple[np.ndarray, np.ndarray]:
        """(A_n, B_n) of the lateral residual: A_n at the state's forward speed,
        held just above v_min, and B_n as a column for the steering input."""
        return self.a_n(max(state.v_x, self.v_min * 1.01)), self._b_col

    @staticmethod
    def eta_value(eta) -> float:
        """An explicit eta, scaling the lateral forces, as a float in (0, 2]; None: 1."""
        ev = 1.0 if eta is None else float(eta)
        if not 0.0 < ev <= 2.0:                                   # NaN fails too
            raise ValueError(f"ackermann eta must lie in (0, 2], got {ev}")
        return ev

    def substep_derivative(self, u: AckermannInput):
        """The derivative under the held input u, for integrate_step and
        derivative: substep(y, eta) refuses a forward speed y[3] at or below
        v_min and, for a checked or looked-up eta, returns rhs(y0, k, h), the
        derivative at y0 + h k (y0 when k is None), forming psi and the
        velocities of that stage state only. Input, coefficients and
        steering terms are read once.

        Tire slip angles follow the single-track convention with the CG at
        the wheelbase midpoint:

            alpha_f = u_delta - atan2(v_y + (L/2) omega, v_x)
            alpha_r = -atan2(v_y - (L/2) omega, v_x)

        The front axle is undriven (no longitudinal front force), so the
        lateral and yaw balances carry only the cornering forces.
        """
        u_v, u_delta = u.u_v, u.u_delta
        _check_finite("AckermannInput", u_v, u_delta)
        v_min, c_y, tau_v, m, i_z = self.v_min, self.c_y, self.tau_v, self.m, self.i_z
        cos_d, half_l = math.cos(u_delta), 0.5 * self.wheelbase

        def substep(y, eta):
            if y[3] <= v_min:
                raise SlipUndefinedError(
                    f"v_x={y[3]} at or below v_min={v_min}: slip angles undefined")
            eta_c_y = eta * c_y

            def rhs(y0, k, h):
                psi, v_x, v_y, omega = y0[2:] if k is None else (
                    y0[2] + h * k[2], y0[3] + h * k[3], y0[4] + h * k[4], y0[5] + h * k[5])
                alpha_f = u_delta - math.atan2(v_y + half_l * omega, v_x)
                alpha_r = -math.atan2(v_y - half_l * omega, v_x)
                f_yf, f_yr = eta_c_y * alpha_f, eta_c_y * alpha_r
                c, s = math.cos(psi), math.sin(psi)
                return (c * v_x - s * v_y, s * v_x + c * v_y, omega, (-v_x + u_v) / tau_v,
                        (f_yr + f_yf * cos_d) / m - omega * v_x,
                        half_l * (f_yf * cos_d - f_yr) / i_z)
            return rhs
        return substep


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


def derivative(state, u, params, eta=None) -> np.ndarray:
    """Time derivative of the state under input u and terrain factor eta,
    nominal (1) when None, with the checks of integrate_step.

    Tracked: [pdot_x, pdot_y, psidot, vdot_x, omegadot]; Ackermann:
    [pdot_x, pdot_y, psidot, vdot_x, vdot_y, omegadot].
    """
    y = _entry_values(state, params)
    return np.array(params.substep_derivative(u)(y, params.eta_value(eta))(y, None, 0.0))


def integrate_step(state, u, params, dt: float, eta=None, n_sub: int = 1, terrain=None):
    """Advance n_sub fixed RK4 steps of dt seconds each; returns a new state.

    dt must lie in (0, 0.1]. The input is held over every substep, and the
    heading is wrapped to (-pi, pi] after each. The terrain factor is either
    eta, held over the whole call, or terrain(p_x, p_y), looked up at the
    start of every substep; not both. State, input and eta are checked on
    entry, the result on exit. A looked-up eta is trusted, as the world map
    checks its rows; only the Ackermann forward speed, which moves within a
    call, is checked against v_min at every substep.
    """
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must lie in (0, 0.1], got {dt}")
    if n_sub < 1:
        raise ValueError(f"n_sub must be at least 1, got {n_sub}")
    if terrain is not None and eta is not None:
        raise ValueError("pass eta or terrain, not both")
    y = _entry_values(state, params)
    substep = params.substep_derivative(u)
    if terrain is None:
        eta = params.eta_value(eta)
    try:
        for _ in range(n_sub):
            y = _rk4(y, substep(y, eta if terrain is None else terrain(y[0], y[1])), dt)
            y[2] = wrap_angle(y[2])
    except ValueError:
        # a substep that diverged can make the next lookup or cos fail:
        # report the divergence, as an entry check at that substep would
        _check_finite(type(state).__name__, *y)
        raise
    _check_finite(type(state).__name__, *y)
    return params.state_cls(*y)


def _entry_values(state, params) -> tuple:
    """The state's fields as a tuple of floats, checked against params."""
    if not isinstance(state, params.state_cls):
        raise TypeError(f"{type(params).__name__} takes a {params.state_cls.__name__}, "
                        f"got {type(state).__name__}")
    y = tuple(vars(state).values())
    _check_finite(type(state).__name__, *y)
    return y


def _rk4(y0, rhs, dt):
    """One classic RK4 step from the sequence y0, the one RK4 body of both
    vehicles; returns a list. rhs(y0, k, h) is the derivative at the stage
    state y0 + h k (y0 when k is None): it forms only the components its
    vehicle reads, each as y + h k, so every stage rounds as a full stage
    state would. h is formed once per stage weight, as y + (0.5 dt) k rounds."""
    h = 0.5 * dt
    k1 = rhs(y0, None, h)
    k2 = rhs(y0, k1, h)
    k3 = rhs(y0, k2, h)
    k4 = rhs(y0, k3, dt)
    h = dt / 6.0
    return [y + h * (a + 2.0 * b + 2.0 * c + d) for y, a, b, c, d in zip(y0, k1, k2, k3, k4)]



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


@dataclass(frozen=True)
class FaultSchedule:
    """Actuator fault as a function of time, as the config's scenario.fault.

    kind "track-square" scales one track's speed (track, left or right) to
    the surviving fraction scale during the first half of every period_s
    seconds from start_s on; kind "none" never does.
    """

    kind: str = "none"                  # none | track-square
    period_s: float = 3.0
    scale: float = 0.3                  # surviving fraction of the faulted track
    track: str = "right"
    start_s: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "track-square"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.track not in ("left", "right"):
            raise ValueError("fault track must be left or right")
        if not 0.0 <= self.scale <= 1.0:
            raise ValueError("fault scale must lie in [0, 1]")
        if not self.period_s > 0:
            raise ValueError("fault period must be positive")

    def scales(self, t: float) -> tuple[float, float]:
        """(left, right) track scale factors at time t."""
        if self.kind == "none" or t < self.start_s:
            return 1.0, 1.0
        # square wave: fault active during the first half of each period
        phase = (t - self.start_s) % self.period_s
        if phase >= 0.5 * self.period_s:
            return 1.0, 1.0
        if self.track == "left":
            return self.scale, 1.0
        return 1.0, self.scale

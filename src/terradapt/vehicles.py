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
wheelbase midpoint, and the forward channel reduced to a first-order lag;
below the blend speed v_min it blends into the kinematic bicycle, so the
car is defined at every forward speed, in reverse too.

Each params class holds its physics once, in stage_rates, and writes its
RK4 out on named floats in rk4_steps: n_sub steps, each looking eta up at
its start, making four stage_rates calls, forming each stage component
y + h k and the combination y + (dt/6)(k1 + 2 k2 + 2 k3 + k4) per
component, and wrapping the heading; combining per-stage tuples
generically cost a third of a plant call. rk4_steps is the plant's one
way in: the simulation loops (the closed-loop episode and gen-data's
driving pass) carry their states as floats from one call to the next,
check a state and an input with checked_fields where they enter, and
rk4_steps checks its own result. They measure by calling stage_rates on
states the plant checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class NonFiniteError(ValueError):
    """A state, input, or parameter contains NaN or infinity."""


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


@dataclass
class AckermannState:
    """Car state: pose plus body-frame forward, lateral, and yaw velocity.

    v_x may take any value: below AckermannParams.v_min, at standstill and
    in reverse, the lateral states follow the kinematic bicycle.
    """

    p_x: float
    p_y: float
    psi: float
    v_x: float
    v_y: float
    omega: float


@dataclass
class TrackedInput:
    """Commanded forward speed and yaw rate for the tracked vehicle."""

    u_v: float
    u_omega: float


@dataclass
class AckermannInput:
    """Commanded forward speed and front steering angle for the car."""

    u_v: float
    u_delta: float


@dataclass(frozen=True)
class TrackedParams:
    """Tracked plant coefficients. Gains and time constants must be positive.

    Frozen, because A_n and B_n are built once from them and shared
    (read-only) by every caller, as arrays and, for the controller's float
    tick, as nested tuples of floats (a_n_rows, b_n_rows).
    """

    k1: float = 1.0          # forward speed gain, u_v -> v_x at steady state
    k2: float = 1.0          # yaw rate gain, u_omega -> omega at steady state
    tau_v: float = 0.3       # forward channel time constant [s]
    tau_omega: float = 0.2   # yaw channel time constant [s]
    x_icr: float = 0.0       # instantaneous center of rotation offset [m]
    state_cls, input_cls = TrackedState, TrackedInput

    def __post_init__(self):
        if not (self.k1 > 0 and self.k2 > 0 and self.tau_v > 0 and self.tau_omega > 0):
            raise ValueError("tracked gains and time constants must be positive")
        a_n = np.diag([-1.0 / self.tau_v, -1.0 / self.tau_omega])
        b_n = np.diag([self.k1 / self.tau_v, self.k2 / self.tau_omega])
        a_n.flags.writeable = b_n.flags.writeable = False
        object.__setattr__(self, "_a_n", a_n)
        object.__setattr__(self, "_b_n", b_n)
        object.__setattr__(self, "a_n_rows", tuple(map(tuple, a_n.tolist())))
        object.__setattr__(self, "b_n_rows", tuple(map(tuple, b_n.tolist())))

    def a_n(self) -> np.ndarray:
        return self._a_n

    def b_n(self) -> np.ndarray:
        return self._b_n

    def residual_model(self, state) -> tuple[np.ndarray, np.ndarray]:
        """(A_n, B_n) the dynamics residual is measured against, at any state;
        a state of column arrays broadcasts them over its rows."""
        return self.a_n(), self.b_n()

    def stage_rates(self, u_v: float, u_omega: float):
        """The tracked physics, written once, under the held input: returns
        rates(eta, psi, v_x, omega), the state derivative for an eta pair at
        any state of that heading and velocity (the position does not enter),
        with the input terms eta k u. Coefficients are read once."""
        k1, k2, x_icr, tau_v, tau_omega = self.k1, self.k2, self.x_icr, self.tau_v, self.tau_omega

        def rates(eta, psi, v_x, omega):
            e1, e2 = eta
            c, s = math.cos(psi), math.sin(psi)
            return (c * v_x + x_icr * s * omega, s * v_x - x_icr * c * omega, omega,
                    (-v_x + e1 * k1 * u_v) / tau_v, (-omega + e2 * k2 * u_omega) / tau_omega)
        return rates

    def rk4_steps(self, rates, y, terrain, dt: float, n_sub: int) -> tuple:
        """n_sub classic RK4 steps of dt from the state values y under the
        held input's rates; returns a tuple. eta is terrain(p_x, p_y) at the
        start of every step, and the heading is wrapped to (-pi, pi] after
        it. Each stage component is y + h k, h = 0.5 dt, and each step
        y + (dt / 6)(k1 + 2 k2 + 2 k3 + k4), per component, on named floats.
        A result that is not finite is refused (NonFiniteError). So is a
        ValueError inside the loop (a lookup refusing the position of a
        diverged step, say) when the last completed step is not finite;
        otherwise it passes through, as does any other exception."""
        p_x, p_y, psi, v_x, omega = y
        h, h6, pi = 0.5 * dt, dt / 6.0, math.pi
        try:
            for _ in range(n_sub):
                eta = terrain(p_x, p_y)
                dx1, dy1, dpsi1, dv1, dw1 = rates(eta, psi, v_x, omega)
                dx2, dy2, dpsi2, dv2, dw2 = rates(eta, psi + h * dpsi1, v_x + h * dv1,
                                                  omega + h * dw1)
                dx3, dy3, dpsi3, dv3, dw3 = rates(eta, psi + h * dpsi2, v_x + h * dv2,
                                                  omega + h * dw2)
                dx4, dy4, dpsi4, dv4, dw4 = rates(eta, psi + dt * dpsi3, v_x + dt * dv3,
                                                  omega + dt * dw3)
                p_x += h6 * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
                p_y += h6 * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
                # wrap_angle, written out
                psi = pi - (pi - (psi + h6 * (dpsi1 + 2.0 * dpsi2 + 2.0 * dpsi3 + dpsi4))) % TWO_PI
                v_x += h6 * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
                omega += h6 * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
        except ValueError:
            check_finite(self.state_cls.__name__, p_x, p_y, psi, v_x, omega)
            raise
        check_finite(self.state_cls.__name__, p_x, p_y, psi, v_x, omega)
        return p_x, p_y, psi, v_x, omega


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
    v_min: float = 0.1      # blend speed: kinematic bicycle below it [m/s]
    state_cls, input_cls = AckermannState, AckermannInput

    def __post_init__(self):
        vals = (self.m, self.i_z, self.wheelbase, self.c_y, self.tau_v, self.v_min)
        if not all(v > 0 for v in vals):
            raise ValueError("Ackermann parameters must be positive")
        b_n = np.array([self.c_y / self.m, 0.5 * self.wheelbase * self.c_y / self.i_z])
        b_n.flags.writeable = False
        object.__setattr__(self, "_b_n", b_n)
        object.__setattr__(self, "_b_col", b_n.reshape(2, 1))

    def a_n(self, v_x) -> np.ndarray:
        """Linearized lateral/yaw system matrix of the dynamic model at forward
        speed v_x > 0: (2, 2) at a float, the (n, 2, 2) stack at an array of
        n speeds."""
        half_l = 0.5 * self.wheelbase
        a = np.array([
            [-2.0 * self.c_y / (self.m * v_x), -v_x],
            [0.0 * v_x, -self.c_y * 2.0 * half_l * half_l / (v_x * self.i_z)],
        ])
        # n speeds give (2, 2, n): the speed axis goes first
        return np.ascontiguousarray(np.moveaxis(a, -1, 0)) if a.ndim == 3 else a

    def b_n(self) -> np.ndarray:
        """Linearized steering influence on [v_y, omega]."""
        return self._b_n

    def residual_model(self, state) -> tuple[np.ndarray, np.ndarray]:
        """(A_n, B_n) of the lateral residual: A_n at the state's forward speed,
        floored just above v_min, where the dynamic model runs alone, and B_n
        as a column for the steering input. A
        state of column arrays gives the (n, 2, 2) stack of A_n, one per row."""
        v_x, floor = state.v_x, self.v_min * 1.01
        if isinstance(v_x, np.ndarray):      # a float stays one: numpy scalars are slow
            return self.a_n(np.maximum(v_x, floor)), self._b_col
        return self.a_n(max(v_x, floor)), self._b_col

    def stage_rates(self, u_v: float, u_delta: float):
        """The single-track physics, written once, under the held input:
        returns rates(eta, psi, v_x, v_y, omega), the state derivative for an
        eta at any state of that heading and velocity (the position does not
        enter). Coefficients and steering terms are read once.

        Tire slip angles follow the single-track convention with the CG at
        the wheelbase midpoint:

            alpha_f = u_delta - atan2(v_y + (L/2) omega, v_x)
            alpha_r = -atan2(v_y - (L/2) omega, v_x)

        The front axle is undriven (no longitudinal front force), so the
        lateral and yaw balances carry only the cornering forces.

        Slip angles lose their meaning, and the lateral dynamics grow stiff
        as 1 / v_x, as v_x falls to zero. So below the blend speed v_min the
        dynamic rates take the weight w = max(v_x, 0) / v_min, and the rest
        relaxes, with tau_v, toward the kinematic bicycle: v_y -> (L/2) omega,
        omega -> v_x tan(u_delta) / L. The rates stay continuous at v_min.
        """
        c_y, tau_v, m, i_z, v_min = self.c_y, self.tau_v, self.m, self.i_z, self.v_min
        cos_d, half_l = math.cos(u_delta), 0.5 * self.wheelbase
        yaw_kin = math.tan(u_delta) / self.wheelbase

        def rates(eta, psi, v_x, v_y, omega):
            eta_c_y = eta * c_y
            alpha_f = u_delta - math.atan2(v_y + half_l * omega, v_x)
            alpha_r = -math.atan2(v_y - half_l * omega, v_x)
            f_yf, f_yr = eta_c_y * alpha_f, eta_c_y * alpha_r
            dv_y = (f_yr + f_yf * cos_d) / m - omega * v_x
            domega = half_l * (f_yf * cos_d - f_yr) / i_z
            if v_x < v_min:
                w = max(v_x, 0.0) / v_min
                dv_y = w * dv_y + (1.0 - w) * (half_l * omega - v_y) / tau_v
                domega = w * domega + (1.0 - w) * (v_x * yaw_kin - omega) / tau_v
            c, s = math.cos(psi), math.sin(psi)
            return (c * v_x - s * v_y, s * v_x + c * v_y, omega, (-v_x + u_v) / tau_v,
                    dv_y, domega)
        return rates

    def rk4_steps(self, rates, y, terrain, dt: float, n_sub: int) -> tuple:
        """TrackedParams.rk4_steps for the car."""
        p_x, p_y, psi, v_x, v_y, omega = y
        h, h6, pi = 0.5 * dt, dt / 6.0, math.pi
        try:
            for _ in range(n_sub):
                eta = terrain(p_x, p_y)
                dx1, dy1, dpsi1, du1, dv1, dw1 = rates(eta, psi, v_x, v_y, omega)
                dx2, dy2, dpsi2, du2, dv2, dw2 = rates(eta, psi + h * dpsi1, v_x + h * du1,
                                                       v_y + h * dv1, omega + h * dw1)
                dx3, dy3, dpsi3, du3, dv3, dw3 = rates(eta, psi + h * dpsi2, v_x + h * du2,
                                                       v_y + h * dv2, omega + h * dw2)
                dx4, dy4, dpsi4, du4, dv4, dw4 = rates(eta, psi + dt * dpsi3, v_x + dt * du3,
                                                       v_y + dt * dv3, omega + dt * dw3)
                p_x += h6 * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
                p_y += h6 * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
                # wrap_angle, written out
                psi = pi - (pi - (psi + h6 * (dpsi1 + 2.0 * dpsi2 + 2.0 * dpsi3 + dpsi4))) % TWO_PI
                v_x += h6 * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
                v_y += h6 * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
                omega += h6 * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
        except ValueError:
            check_finite(self.state_cls.__name__, p_x, p_y, psi, v_x, v_y, omega)
            raise
        check_finite(self.state_cls.__name__, p_x, p_y, psi, v_x, v_y, omega)
        return p_x, p_y, psi, v_x, v_y, omega


def check_finite(label: str, *values: float) -> None:
    """Refuse (NonFiniteError) values of label that are not all finite."""
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteError(f"non-finite value in {label}: {values}")


def checked_fields(obj, cls) -> tuple:
    """The fields of a state or an input as a tuple of floats, refused
    unless obj is a cls (TypeError) with finite fields (NonFiniteError):
    the plant's entry check."""
    if not isinstance(obj, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(obj).__name__}")
    values = tuple(vars(obj).values())
    check_finite(cls.__name__, *values)
    return values


def apply_track_fault(u: TrackedInput, left_scale: float, right_scale: float,
                      half_spacing: float = 0.3) -> TrackedInput:
    """Scale individual track speeds to emulate a degraded track.

    The command is mixed into differential-drive track speeds u_v -/+ b u_omega
    (left, right; b the half spacing), each track is scaled by its factor,
    and the result is mixed back. Unity scales return the input object
    unchanged, bit for bit. Nothing is checked here: the scales come from
    FaultSchedule and the half spacing from the vehicle config, which
    checked them, and the plant's entry check (checked_fields) checks the
    input next.
    """
    if left_scale == 1.0 and right_scale == 1.0:
        return u
    left = (u.u_v - half_spacing * u.u_omega) * left_scale
    right = (u.u_v + half_spacing * u.u_omega) * right_scale
    return TrackedInput(0.5 * (left + right), (right - left) / (2.0 * half_spacing))


@dataclass(frozen=True)
class FaultSchedule:
    """Actuator fault as a function of time, as the config's scenario.fault.

    kind "track-square" scales one track's speed (track, left or right) to
    the surviving fraction scale during the first half of every period_s
    seconds from start_s on; kind "none" never does. scales(t) returns 1.0
    or scale, refused outside [0, 1] here, when the schedule is built.
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

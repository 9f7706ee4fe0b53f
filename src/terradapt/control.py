"""Composite adaptive tracking control.

Tracked vehicle: a position loop turns pose error into reference velocities,

    v_ref^I  = v_d - K_p (p - p_d)
    v_ref_x  = [cos psi, sin psi] . v_ref^I
    psi_ref  = atan2(v_ref^I) while ||v_ref^I||^2 > v_eps, else psi_d
    omega_ref = psidot_ref - k_psi (psi - psi_ref)

and the velocity loop applies feedback linearization with the adapted
influence matrix B_hat = B_n + sum_i theta_hat_i Phi_i:

    u = -B_hat^{-1} (K s + A_n v_ref - vdot_ref),   s = v - v_ref.

Adaptation is composite: it descends both the tracking error s and the
prediction error of the filtered dynamics residual

    y = lowpass(vdot_meas) - (A_n v + B_n u),

which for the true system equals (Phi theta) u up to representation error.
Two gain dynamics are provided: a per-component law whose quadratic gain
term carries a positive sign (faster convergence), and a full-matrix law
with the Riccati-type negative sign. Both include exponential forgetting.

Ackermann vehicle: cross-track control in the path frame with the adapted
scalar steering effectiveness b_hat = C_y/m + phi_row . theta_hat.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .basis import contract
from .vehicles import AckermannInput, AckermannParams, TrackedInput, TrackedParams, wrap_angle

log = logging.getLogger(__name__)


# ---------------------------------------------------------------- gains

@dataclass
class TrackedGains:
    """Loop gains for the tracked controller; all must be positive."""

    k_px: float = 0.8
    k_py: float = 0.8
    k_psi: float = 2.3
    k_dx: float = 0.05      # velocity feedback on the forward channel
    k_domega: float = 0.1   # velocity feedback on the yaw channel
    v_eps: float = 1e-3     # squared-speed threshold for the heading branch

    def __post_init__(self):
        if min(self.k_px, self.k_py, self.k_psi, self.k_dx, self.k_domega) <= 0:
            raise ValueError("tracked gains must be positive")
        if self.v_eps <= 0:
            raise ValueError("v_eps must be positive")
        log.info("tracked gains accepted: %s", self)


@dataclass
class AckermannGains:
    """Cross-track loop gains: k_p on the error, k_v on the composite rate."""

    k_p: float = 1.0
    k_v: float = 1.0
    k_fwd: float = 0.5      # forward speed feedback on the lag channel
    b_min: float = 1e-3     # smallest usable steering effectiveness

    def __post_init__(self):
        if min(self.k_p, self.k_v) <= 0 or self.b_min <= 0 or self.k_fwd < 0:
            raise ValueError("ackermann gains must be positive (k_fwd nonnegative)")
        log.info("ackermann gains accepted: %s", self)


@dataclass(frozen=True)
class AdaptParams:
    """Adaptation constants shared by both gain laws.

    r_diag are the diagonal entries of the prediction-error weighting R
    (positive definite), q_diag the gain forcing Q, lam the forgetting rate.
    gamma_min / gamma_max clamp the per-component gains; gamma_min doubles as
    the eigenvalue floor of the matrix law. Frozen, because the diagonal of
    R^-1 and the Q diagonal are built once from them (read-only) and read by
    every adaptation step.
    """

    lam: float = 0.01
    r_diag: tuple = (0.1, 0.1)
    q_diag: tuple = (1.0, 1.0, 1.0, 1.0)
    gamma0: float = 0.01
    gamma_min: float = 1e-4
    gamma_max: float = 1e3

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if any(r <= 0 for r in self.r_diag):
            raise ValueError("R must be positive definite")
        if any(q < 0 for q in self.q_diag):
            raise ValueError("Q must be positive semidefinite")
        if not 0 < self.gamma_min <= self.gamma0 <= self.gamma_max:
            raise ValueError("need 0 < gamma_min <= gamma0 <= gamma_max")
        r_inv = 1.0 / np.asarray(self.r_diag, dtype=float)
        q = np.array(self.q_diag, dtype=float)
        r_inv.flags.writeable = q.flags.writeable = False
        object.__setattr__(self, "_r_inv", r_inv)
        object.__setattr__(self, "_q", q)

    def r_inv(self) -> np.ndarray:
        """Diagonal of R^-1."""
        return self._r_inv

    def q(self) -> np.ndarray:
        """Diagonal of Q, as given: one entry stands for every component."""
        return self._q


@dataclass
class AdaptState:
    """Adapted parameters plus their gain: a vector gamma for the
    per-component law or a full SPD matrix for the matrix law."""

    theta_hat: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        self.theta_hat = np.asarray(self.theta_hat, dtype=float).reshape(-1)
        self.gain = np.asarray(self.gain, dtype=float)
        n = self.theta_hat.shape[0]
        if self.gain.ndim == 1:
            if self.gain.shape != (n,):
                raise ValueError("gamma vector must match theta_hat length")
            if np.any(self.gain <= 0):
                raise ValueError("all gamma entries must be positive")
        elif self.gain.ndim == 2:
            if self.gain.shape != (n, n):
                raise ValueError("gain matrix must be square matching theta_hat")
            if not np.allclose(self.gain, self.gain.T, atol=1e-12):
                raise ValueError("gain matrix must be symmetric")
            if np.any(np.linalg.eigvalsh(self.gain) <= 0):
                raise ValueError("gain matrix must be positive definite")
        else:
            raise ValueError("gain must be a vector or a square matrix")

    @classmethod
    def fresh(cls, n_theta: int, params: AdaptParams, law: str = "scalar",
              theta0=None) -> "AdaptState":
        theta = np.zeros(n_theta) if theta0 is None else np.asarray(theta0, dtype=float)
        if law == "scalar":
            return cls(theta, np.full(n_theta, params.gamma0))
        if law == "matrix":
            return cls(theta, params.gamma0 * np.eye(n_theta))
        raise ValueError(f"unknown adaptation law {law!r}")


@dataclass
class ReferenceState:
    """Velocity-level reference for the tracked loop."""

    v_ref: np.ndarray           # [v_ref_x, omega_ref]
    vdot_ref: np.ndarray        # time derivative of v_ref
    psi_ref: float
    psi_dot_ref: float


@dataclass
class LateralErrorState:
    """Path-frame errors for the Ackermann loop."""

    e_par: float
    e_perp: float
    psi_e: float
    e_perp_dot: float
    s_perp: float


# ---------------------------------------------------------------- filters

def _lowpass_step(state, x, alpha):
    """One low-pass update, on arrays or on Python floats alike."""
    return state + alpha * (x - state)


class LowPassFilter:
    """First-order low-pass y += alpha (x - y), alpha = dt / (tau + dt).

    The first sample initializes the state directly, avoiding a large
    startup transient. For white noise input the steady-state variance gain
    is alpha / (2 - alpha).
    """

    def __init__(self, cutoff_hz: float):
        if cutoff_hz <= 0:
            raise ValueError("cutoff_hz must be positive")
        self.tau = 1.0 / (2.0 * math.pi * cutoff_hz)
        self.state = None

    def update(self, x, dt: float):
        x = np.asarray(x, dtype=float)
        if self.state is None:
            self.state = x.copy()
        else:
            self.state = _lowpass_step(self.state, x, dt / (self.tau + dt))
        return self.state.copy()

    def run(self, xs, dt: float) -> np.ndarray:
        """update() over the rows of xs in order; returns the (T, n) outputs.

        Each channel runs as Python floats, which round exactly as the
        elementwise array update does."""
        xs = np.asarray(xs, dtype=float)
        out = np.empty_like(xs)
        k0 = 0
        if self.state is None:          # the first row initializes, as in update()
            self.state = xs[0].copy()
            out[0] = xs[0]
            k0 = 1
        alpha = dt / (self.tau + dt)
        for j, channel in enumerate(xs[k0:].T.tolist()):
            f = float(self.state[j])
            filtered = []
            for x in channel:
                f = _lowpass_step(f, x, alpha)
                filtered.append(f)
            out[k0:, j] = filtered
        self.state = out[-1].copy()
        return out

    def reset(self):
        self.state = None


class ResidualFilter:
    """Dynamics residual y = lowpass(vdot_meas) - (A_n v + B_n u).

    The caller must pass the same input u that produced the measured
    acceleration, or the residual carries an avoidable model error. B_n is
    an (n, m) matrix, a column for a single input.
    """

    def __init__(self, cutoff_hz: float = 2.0):
        self.lpf = LowPassFilter(cutoff_hz)

    def residual(self, vdot_meas, v, u_vec, a_n: np.ndarray, b_n: np.ndarray,
                 dt: float) -> np.ndarray:
        filtered = self.lpf.update(np.asarray(vdot_meas, dtype=float), dt)
        return filtered - (a_n @ np.asarray(v, dtype=float)
                           + b_n @ np.asarray(u_vec, dtype=float))

    def residuals(self, vdot_meas, v, u_vec, a_n: np.ndarray, b_n: np.ndarray,
                  dt: float) -> np.ndarray:
        """residual() over a whole trajectory: rows (T, n) of vdot_meas and v,
        (T, m) of u_vec, with A_n (T, n, n) and B_n (T, n, m) per row. Equal
        to one residual() call per row in order (a stacked matmul rounds as
        the single one does)."""
        filtered = self.lpf.run(vdot_meas, dt)
        v, u_vec = np.asarray(v, dtype=float), np.asarray(u_vec, dtype=float)
        return filtered - (np.matmul(a_n, v[:, :, None])
                           + np.matmul(b_n, u_vec[:, :, None]))[:, :, 0]

    def reset(self):
        self.lpf.reset()


# ---------------------------------------------------------------- tracked loop

def reference_velocities(p, psi: float, p_d, v_d, psi_d: float,
                         gains: TrackedGains, psi_dot_ref: float = 0.0) -> ReferenceState:
    """Pose error -> body-frame velocity references.

    psi_dot_ref is supplied by the caller (finite-differenced and filtered at
    the loop rate); vdot_ref is left zero here and filled by the stateful
    tracker. Below the v_eps speed threshold the heading reference falls back
    to the desired heading psi_d, which keeps turn-in-place maneuvers defined.
    """
    p = np.asarray(p, dtype=float)
    p_err = p - np.asarray(p_d, dtype=float)
    v_ref_i = np.asarray(v_d, dtype=float) - np.array([gains.k_px, gains.k_py]) * p_err
    v_ref_x = math.cos(psi) * v_ref_i[0] + math.sin(psi) * v_ref_i[1]
    if float(v_ref_i @ v_ref_i) > gains.v_eps:
        psi_ref = math.atan2(v_ref_i[1], v_ref_i[0])
    else:
        psi_ref = psi_d
    omega_ref = psi_dot_ref - gains.k_psi * wrap_angle(psi - psi_ref)
    return ReferenceState(np.array([v_ref_x, omega_ref]), np.zeros(2),
                          psi_ref, psi_dot_ref)


class PositionReferenceTracker:
    """Stateful wrapper producing reference derivatives by filtered backward
    differences at the control rate."""

    def __init__(self, gains: TrackedGains, cutoff_hz: float = 2.0):
        self.gains = gains
        self.psi_dot_lpf = LowPassFilter(cutoff_hz)
        self.vdot_lpf = LowPassFilter(cutoff_hz)
        self.prev_psi_ref = None
        self.prev_v_ref = None

    def step(self, p, psi, p_d, v_d, psi_d, dt: float) -> ReferenceState:
        base = reference_velocities(p, psi, p_d, v_d, psi_d, self.gains, 0.0)
        if self.prev_psi_ref is None:
            psi_dot = float(self.psi_dot_lpf.update(np.zeros(1), dt)[0])
        else:
            raw = wrap_angle(base.psi_ref - self.prev_psi_ref) / dt
            psi_dot = float(self.psi_dot_lpf.update(np.array([raw]), dt)[0])
        self.prev_psi_ref = base.psi_ref
        # rebuild omega_ref now that psi_dot_ref is known
        ref = reference_velocities(p, psi, p_d, v_d, psi_d, self.gains, psi_dot)
        if self.prev_v_ref is None:
            vdot = self.vdot_lpf.update(np.zeros(2), dt)
        else:
            vdot = self.vdot_lpf.update((ref.v_ref - self.prev_v_ref) / dt, dt)
        self.prev_v_ref = ref.v_ref.copy()
        ref.vdot_ref = vdot
        return ref

    def reset(self):
        self.psi_dot_lpf.reset()
        self.vdot_lpf.reset()
        self.prev_psi_ref = None
        self.prev_v_ref = None


def cond_2x2(m) -> float:
    """2-norm condition number of a 2x2 matrix in closed form.

    With f = ||M||_F^2 = s1^2 + s2^2 and |det M| = s1 s2, the singular values
    satisfy cond = s1 / s2 = (f + sqrt(f^2 - 4 det^2)) / (2 |det|). The
    entries are first scaled by the largest magnitude so that neither f nor
    det can overflow. Returns inf for a singular or non-finite matrix.
    """
    (a, b), (c, d) = m.tolist()
    big = max(abs(a), abs(b), abs(c), abs(d))
    if not 0.0 < big < math.inf:        # zero, infinite or NaN
        return math.inf
    a, b, c, d = a / big, b / big, c / big, d / big
    det = abs(a * d - b * c)
    f = a * a + b * b + c * c + d * d
    if det == 0.0 or not math.isfinite(f):     # f is NaN if an entry is
        return math.inf
    return (f + math.sqrt(max(f * f - 4.0 * det * det, 0.0))) / (2.0 * det)


def tracking_error(v, ref: ReferenceState) -> np.ndarray:
    """s = [v_x - v_ref_x, omega - omega_ref]."""
    return np.asarray(v, dtype=float) - ref.v_ref


def control_tracked(s, ref: ReferenceState, phi, theta_hat, params: TrackedParams,
                    gains: TrackedGains, u_limits=(2.0, 3.0),
                    cond_limit: float = 1e6):
    """Feedback-linearizing velocity control with the adapted influence matrix.

    Returns (TrackedInput, info). If B_hat is near singular (condition number
    at or above cond_limit) the nominal B_n is used instead and info["fallback"]
    is set; the caller should skip the adaptation update for that step.
    Commands are clamped to u_limits and clamping is reported.
    """
    a_n = params.a_n()
    b_n = params.b_n()
    info = {"fallback": False, "clamped": False}
    b_hat = b_n if phi is None else b_n + contract(phi, theta_hat)
    cond = cond_2x2(b_hat)
    if cond >= cond_limit:
        log.debug("B_hat condition number %.3e >= %.1e, falling back to B_n", cond, cond_limit)
        b_hat = b_n
        info["fallback"] = True
    k = np.array([gains.k_dx, gains.k_domega])      # the diagonal of K
    rhs = k * np.asarray(s, dtype=float) + a_n @ ref.v_ref - ref.vdot_ref
    u_vec = -np.linalg.solve(b_hat, rhs)
    lim = np.asarray(u_limits, dtype=float)
    clipped = np.clip(u_vec, -lim, lim)
    if not np.array_equal(clipped, u_vec):
        info["clamped"] = True
        log.debug("tracked command clamped: %s -> %s", u_vec, clipped)
    info["b_hat"] = b_hat
    return TrackedInput(float(clipped[0]), float(clipped[1])), info


# ---------------------------------------------------------------- adaptation

def h_matrix(phi: np.ndarray, u_vec) -> np.ndarray:
    """Columns h_i = Phi_i u: (n_theta, n, m) x (m,) -> (n, n_theta)."""
    u = np.asarray(u_vec, dtype=float).reshape(-1)
    # einsum, not phi @ u: the stacked matmul rounds differently in the last
    # bit, which moves the matrix law's gain and every later tick
    return np.einsum("inm,m->ni", np.asarray(phi, dtype=float), u)


def adapt_step_scalar(state: AdaptState, s, y, phi, u_vec, dt: float,
                      params: AdaptParams):
    """One Euler step of the per-component composite law.

    thetadot_i = -lam theta_i - gamma_i h_i^T R^-1 (H theta - y) + gamma_i s^T h_i
    gammadot_i = -2 lam gamma_i + q_i + gamma_i (h_i^T R^-1 h_i) gamma_i

    Gains are clamped to [gamma_min, gamma_max]. A non-finite update is
    rejected: the state is held and the rejection is reported in the second
    return value.
    """
    if state.gain.ndim != 1:
        raise ValueError("scalar law requires a gamma vector state")
    h = h_matrix(phi, u_vec)
    pred = h @ state.theta_hat - np.asarray(y, dtype=float)
    hr = h * params.r_inv()[:, None]              # R^-1-weighted columns
    quad = (hr * h).sum(axis=0)                   # h_i^T R^-1 h_i
    theta_dot = (-params.lam * state.theta_hat
                 - state.gain * (hr.T @ pred)
                 + state.gain * (h.T @ np.asarray(s, dtype=float)))
    gamma_dot = (-2.0 * params.lam * state.gain
                 + params.q()
                 + state.gain * quad * state.gain)
    theta_new = state.theta_hat + dt * theta_dot
    gamma_new = state.gain + dt * gamma_dot
    if not (np.all(np.isfinite(theta_new)) and np.all(np.isfinite(gamma_new))):
        log.debug("scalar adaptation produced a non-finite update; step rejected")
        return state, True
    gamma_new = np.clip(gamma_new, params.gamma_min, params.gamma_max)
    return AdaptState(theta_new, gamma_new), False


def adapt_step_matrix(state: AdaptState, s, y, phi, u_vec, dt: float,
                      params: AdaptParams):
    """One Euler step of the full-matrix composite law.

    thetadot = -lam theta - G H^T R^-1 (H theta - y) + G H^T s
    Gdot     = -2 lam G + Q - G H^T R^-1 H G

    After the step the gain matrix is re-symmetrized and its eigenvalues are
    floored at gamma_min, keeping it SPD. Non-finite updates are rejected.
    """
    if state.gain.ndim != 2:
        raise ValueError("matrix law requires a gain matrix state")
    h = h_matrix(phi, u_vec)
    n_theta = state.theta_hat.shape[0]
    q_diag = params.q()
    q_mat = np.diag(q_diag if q_diag.shape[0] == n_theta
                    else np.full(n_theta, q_diag[0]))
    pred = h @ state.theta_hat - np.asarray(y, dtype=float)
    hr = h * params.r_inv()[:, None]
    theta_dot = (-params.lam * state.theta_hat
                 - state.gain @ (hr.T @ pred)
                 + state.gain @ (h.T @ np.asarray(s, dtype=float)))
    gain_dot = (-2.0 * params.lam * state.gain + q_mat
                - state.gain @ (hr.T @ h) @ state.gain)
    theta_new = state.theta_hat + dt * theta_dot
    gain_new = state.gain + dt * gain_dot
    if not (np.all(np.isfinite(theta_new)) and np.all(np.isfinite(gain_new))):
        log.debug("matrix adaptation produced a non-finite update; step rejected")
        return state, True
    gain_new = 0.5 * (gain_new + gain_new.T)
    vals, vecs = np.linalg.eigh(gain_new)
    vals = np.maximum(vals, params.gamma_min)
    gain_new = (vecs * vals) @ vecs.T
    gain_new = 0.5 * (gain_new + gain_new.T)
    return AdaptState(theta_new, gain_new), False


def lyapunov_value(s, theta_hat, theta_true, gain) -> float:
    """V = s^T s + theta_err^T gain^-1 theta_err, for either gain form."""
    s = np.asarray(s, dtype=float)
    err = np.asarray(theta_hat, dtype=float) - np.asarray(theta_true, dtype=float)
    if np.asarray(gain).ndim == 1:
        return float(s @ s + np.sum(err * err / np.asarray(gain, dtype=float)))
    return float(s @ s + err @ np.linalg.solve(np.asarray(gain, dtype=float), err))


# ---------------------------------------------------------------- ackermann loop

def lateral_errors(p, psi: float, v_x: float, v_y: float, p_d, psi_d: float,
                   path_speed: float, k_p: float) -> LateralErrorState:
    """Path-frame position errors and the composite cross-track variable.

    The desired frame has its x axis along the path tangent, so a degenerate
    tangent (path_speed ~ 0) leaves the frame undefined and raises.
    e_perp_dot uses the small heading-error linearization v_y + v_x psi_e.
    """
    if not math.isfinite(path_speed) or abs(path_speed) < 1e-9:
        raise ValueError("degenerate path tangent: desired speed is zero")
    p_err = np.asarray(p, dtype=float) - np.asarray(p_d, dtype=float)
    cd, sd = math.cos(psi_d), math.sin(psi_d)
    e_par = cd * p_err[0] + sd * p_err[1]
    e_perp = -sd * p_err[0] + cd * p_err[1]
    psi_e = wrap_angle(psi - psi_d)
    e_perp_dot = v_y + v_x * psi_e
    return LateralErrorState(e_par, e_perp, psi_e, e_perp_dot,
                             e_perp_dot + k_p * e_perp)


def control_ackermann(lat: LateralErrorState, v_x: float, v_y: float,
                      omega_d: float, vdot_x: float, phi_row, theta_hat,
                      params: AckermannParams, gains: AckermannGains,
                      u_delta_max: float = 0.45):
    """Steering command from the cross-track sliding variable.

    b_hat = C_y/m + phi_row . theta_hat is the adapted steering effectiveness;
    if its magnitude falls below b_min the nominal value is used and theta_hat
    is dropped for this step (info["fallback"]). The command is clamped to
    +/- u_delta_max.
    """
    if v_x <= params.v_min:
        raise ValueError(f"lateral controller engaged at v_x={v_x} <= v_min={params.v_min}")
    info = {"fallback": False, "clamped": False}
    b_nom = params.c_y / params.m
    b_hat = b_nom
    if phi_row is not None:
        b_hat = b_nom + float(np.asarray(phi_row, dtype=float)
                              @ np.asarray(theta_hat, dtype=float))
    if abs(b_hat) < gains.b_min:
        log.debug("b_hat=%.3e below b_min=%.1e, dropping adapted part", b_hat, gains.b_min)
        b_hat = b_nom
        info["fallback"] = True
    u = -(gains.k_v * lat.s_perp
          - (2.0 * params.c_y / (params.m * v_x)) * v_y
          + vdot_x * lat.psi_e
          - v_x * omega_d
          + gains.k_p * lat.e_perp_dot) / b_hat
    clipped = float(np.clip(u, -u_delta_max, u_delta_max))
    if clipped != u:
        info["clamped"] = True
        log.debug("steering clamped: %.3f -> %.3f", u, clipped)
    info["b_hat"] = b_hat
    return clipped, info


# ---------------------------------------------------------------- controllers

@dataclass
class TickTelemetry:
    """Per-tick controller internals, recorded by the harness."""

    s: np.ndarray
    u: np.ndarray
    y: np.ndarray
    theta_hat: np.ndarray
    gain_diag: np.ndarray
    psi_ref: float
    fallback: bool
    clamped: bool
    rejected: bool
    lat: LateralErrorState | None = None    # Ackermann path-frame errors


class _AdaptiveController:
    """Tick bookkeeping shared by both vehicles: the adapted state, the
    residual of the previous tick's input, the composite adaptation step and
    the telemetry record. Subclasses supply the reference and the control law.

    variant: "pd" (no basis, no adaptation), "constant" or "dnn" (basis with
    adaptation), plus adapt=False to freeze theta_hat at its initial value.
    """

    def __init__(self, params, gains, adapt_params: AdaptParams, basis, law: str,
                 theta0, adapt: bool, residual_cutoff_hz: float, control_period: float):
        self.params = params
        self.gains = gains
        self.adapt_params = adapt_params
        self.basis = basis
        self.law = law
        self.adapt = adapt and basis is not None
        self.dt = control_period
        self.state = (AdaptState.fresh(basis.n_theta, adapt_params, law, theta0)
                      if basis is not None else None)
        self.res_filter = ResidualFilter(residual_cutoff_hz)
        self.prev_u = None
        self.prev_phi = None

    def reset(self):
        self.res_filter.reset()
        self.prev_u = None
        self.prev_phi = None

    def _phi(self, x, features):
        return self.basis.eval(x, features) if self.basis is not None else None

    def _theta(self):
        return self.state.theta_hat if self.state is not None else None

    def _adapt(self, state, x, xdot_meas, phi, u_vec, s, fallback: bool):
        """Residual of the previous tick's input and, unless the law fell back,
        one adaptation step on it. Returns (y, rejected) and keeps (u_vec, phi)
        for the next tick."""
        y = np.full(2, np.nan)
        rejected = False
        if self.prev_u is not None:
            a_n, b_n = self.params.residual_model(state)
            y = self.res_filter.residual(xdot_meas, x, self.prev_u, a_n, b_n, self.dt)
            if self.adapt and not fallback and self.prev_phi is not None:
                step = adapt_step_scalar if self.law == "scalar" else adapt_step_matrix
                self.state, rejected = step(self.state, s, y, self.prev_phi,
                                            self.prev_u, self.dt, self.adapt_params)
        self.prev_u = u_vec
        self.prev_phi = phi
        return y, rejected

    def _telemetry(self, s, u, y, psi_ref: float, info: dict, rejected: bool,
                   lat: LateralErrorState | None = None) -> TickTelemetry:
        gain_diag = np.array([])
        theta_out = np.array([])
        if self.state is not None:
            theta_out = self.state.theta_hat.copy()
            gain_diag = (self.state.gain.copy() if self.state.gain.ndim == 1
                         else np.diag(self.state.gain).copy())
        return TickTelemetry(s, u, y, theta_out, gain_diag, psi_ref,
                             info["fallback"], info["clamped"], rejected, lat)


class TrackedController(_AdaptiveController):
    """Complete tracked-vehicle controller: reference handling, feedback
    linearization, residual filtering, and composite adaptation."""

    def __init__(self, params: TrackedParams, gains: TrackedGains,
                 adapt_params: AdaptParams, basis=None, law: str = "scalar",
                 theta0=None, adapt: bool = True, u_limits=(2.0, 3.0),
                 residual_cutoff_hz: float = 2.0, control_period: float = 0.05):
        super().__init__(params, gains, adapt_params, basis, law, theta0, adapt,
                         residual_cutoff_hz, control_period)
        self.u_limits = u_limits
        self.ref_tracker = PositionReferenceTracker(gains, residual_cutoff_hz)

    def reset(self):
        super().reset()
        self.ref_tracker.reset()

    def tick_position(self, state, vdot_meas, features, p_d, v_d, psi_d):
        ref = self.ref_tracker.step(np.array([state.p_x, state.p_y]), state.psi,
                                    p_d, v_d, psi_d, self.dt)
        return self._tick(state, vdot_meas, features, ref)

    def tick_velocity(self, state, vdot_meas, features, v_ref, vdot_ref):
        ref = ReferenceState(np.asarray(v_ref, dtype=float),
                             np.asarray(vdot_ref, dtype=float),
                             psi_ref=state.psi, psi_dot_ref=0.0)
        return self._tick(state, vdot_meas, features, ref)

    def _tick(self, state, vdot_meas, features, ref: ReferenceState):
        v = np.array([state.v_x, state.omega])
        phi = self._phi(v, features)
        s = tracking_error(v, ref)
        u, info = control_tracked(s, ref, phi, self._theta(), self.params, self.gains,
                                  self.u_limits)
        u_vec = u.as_array()
        y, rejected = self._adapt(state, v, vdot_meas, phi, u_vec, s, info["fallback"])
        return u, self._telemetry(s, u_vec, y, ref.psi_ref, info, rejected)


class AckermannController(_AdaptiveController):
    """Cross-track adaptive steering plus a simple forward-speed loop."""

    def __init__(self, params: AckermannParams, gains: AckermannGains,
                 adapt_params: AdaptParams, basis=None, law: str = "scalar",
                 theta0=None, adapt: bool = True, u_delta_max: float = 0.45,
                 residual_cutoff_hz: float = 2.0, control_period: float = 0.05):
        super().__init__(params, gains, adapt_params, basis, law, theta0, adapt,
                         residual_cutoff_hz, control_period)
        self.u_delta_max = u_delta_max

    def tick(self, state, xdot_meas, features, p_d, psi_d, omega_d, speed_d):
        """xdot_meas is the measured [vdot_y, omegadot]."""
        lat = lateral_errors(np.array([state.p_x, state.p_y]), state.psi,
                             state.v_x, state.v_y, p_d, psi_d, speed_d,
                             self.gains.k_p)
        x_lat = np.array([state.v_y, state.omega])
        phi = self._phi(x_lat, features)
        phi_row = phi[:, 0, 0] if phi is not None else None
        u_v = speed_d - self.gains.k_fwd * (state.v_x - speed_d)
        vdot_x_nom = (u_v - state.v_x) / self.params.tau_v
        u_delta, info = control_ackermann(lat, state.v_x, state.v_y, omega_d,
                                          vdot_x_nom, phi_row, self._theta(),
                                          self.params, self.gains, self.u_delta_max)
        y, rejected = self._adapt(state, x_lat, xdot_meas, phi, np.array([u_delta]),
                                  np.array([lat.s_perp, 0.0]), info["fallback"])
        tele = self._telemetry(np.array([lat.s_perp]), np.array([u_v, u_delta]), y,
                               psi_d, info, rejected, lat)
        return AckermannInput(u_v, u_delta), tele

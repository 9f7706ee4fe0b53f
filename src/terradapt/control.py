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
One Euler step, adapt_step, serves both; AdaptParams.law picks the branch.

Ackermann vehicle: cross-track control in the path frame with the adapted
scalar steering effectiveness b_hat = C_y/m + phi_row . theta_hat.

Python floats are the one number type from the reference to the adapted
state, whose theta_hat and gain are tuples; numpy enters only the residual's
nominal-model products and the matrix law's gain step.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .vehicles import AckermannInput, AckermannParams, TrackedInput, TrackedParams, wrap_angle

log = logging.getLogger(__name__)

# smallest normal float: LAPACK's getf2 scales a pivot column by the pivot's
# reciprocal only above it, since 1 / pivot would overflow below
_SFMIN = sys.float_info.min
_COND_LIMIT = 1e6      # control_tracked falls back to B_n at this condition number of B_hat


# ---------------------------------------------------------------- gains

@dataclass(frozen=True)
class Gains:
    """Loop gains of both controllers, as the config's controller.gains.

    Tracked: the position loop (k_px, k_py), the heading loop (k_psi), the
    velocity feedback (k_dx, k_domega) and the squared-speed threshold v_eps
    of the heading branch. Ackermann: k_p on the cross-track error, k_v on the
    composite rate, k_fwd on the forward speed and b_min, the smallest usable
    steering effectiveness. All must be positive, k_fwd nonnegative.
    """

    k_px: float = 0.8
    k_py: float = 0.8
    k_psi: float = 2.3
    k_dx: float = 0.05
    k_domega: float = 0.1
    v_eps: float = 1e-3
    # ackermann loop
    k_p: float = 1.0
    k_v: float = 1.0
    k_fwd: float = 0.5
    b_min: float = 1e-3

    def __post_init__(self):
        # written as "not > 0" so that NaN fails too
        if not all(g > 0 for g in (self.k_px, self.k_py, self.k_psi, self.k_dx, self.k_domega)):
            raise ValueError("tracked gains must be positive")
        if not self.v_eps > 0:
            raise ValueError("v_eps must be positive")
        if not (self.k_p > 0 and self.k_v > 0 and self.b_min > 0 and self.k_fwd >= 0):
            raise ValueError("ackermann gains must be positive (k_fwd nonnegative)")
        log.info("controller gains accepted: %s", self)


@dataclass(frozen=True)
class AdaptParams:
    """The gain law and its constants, as the config's controller.adaptation.

    law picks the per-component ("scalar") or the full-matrix ("matrix") gain
    dynamics, and with it the gain's form in AdaptState.
    r_diag are the diagonal entries of the prediction-error weighting R
    (positive definite), one per residual channel or one for both; q_diag
    the gain forcing Q, one entry per component or one for all; lam the
    forgetting rate. gamma_min / gamma_max clamp the per-component gains;
    gamma_min doubles as the eigenvalue floor of the matrix law. The length
    of q_diag is checked against the basis in AdaptState.fresh. Frozen,
    because every adaptation step reads the floats built once from them:
    r_inv, the diagonal of R^-1 for both residual channels, q, the Q
    entries as given, and gamma_bounds, (gamma_min, gamma_max).
    """

    law: str = "scalar"                 # scalar | matrix
    lam: float = 0.01
    r_diag: tuple[float, ...] = (0.1, 0.1)
    q_diag: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    gamma0: float = 0.01
    gamma_min: float = 1e-4
    gamma_max: float = 1e3

    def __post_init__(self):
        if self.law not in ("scalar", "matrix"):
            raise ValueError(f"adaptation law must be scalar or matrix, got {self.law!r}")
        if not self.lam >= 0:
            raise ValueError("lam must be nonnegative")
        if len(self.r_diag) not in (1, 2):
            raise ValueError(f"r_diag has {len(self.r_diag)} entries; the residual has "
                             "2 channels, so give 1 or 2")
        if not all(r > 0 for r in self.r_diag):
            raise ValueError("R must be positive definite")
        if not all(q >= 0 for q in self.q_diag):
            raise ValueError("Q must be positive semidefinite")
        if not 0 < self.gamma_min <= self.gamma0 <= self.gamma_max:
            raise ValueError("need 0 < gamma_min <= gamma0 <= gamma_max")
        r_inv = tuple(1.0 / float(r) for r in self.r_diag)
        object.__setattr__(self, "r_inv", r_inv * 2 if len(r_inv) == 1 else r_inv)
        object.__setattr__(self, "q", tuple(float(q) for q in self.q_diag))
        object.__setattr__(self, "gamma_bounds", (float(self.gamma_min), float(self.gamma_max)))


@dataclass(frozen=True)
class AdaptState:
    """Adapted parameters theta_hat plus their gain, as tuples of Python
    floats: the gain is the per-component gains gamma under the scalar law
    and the rows of the full SPD matrix under the matrix law. fresh() is the
    one checked constructor: adapt_step builds each next state, refusing a
    non-finite update and clamping or flooring the gain itself. A state is
    frozen and its tuples cannot change, so the tick's telemetry shares
    them rather than copying them."""

    theta_hat: tuple
    gain: tuple

    @classmethod
    def fresh(cls, n_theta: int, params: AdaptParams, *, theta0=None,
              adapt: bool = True) -> "AdaptState":
        """theta0 (zeros by default), which must give n_theta finite entries,
        with the initial gain of params.law. q_diag must give 1 or n_theta
        entries, unless adapt is False: a frozen state never steps."""
        theta = np.zeros(n_theta) if theta0 is None else np.array(theta0, dtype=float).reshape(-1)
        if theta.shape != (n_theta,) or not np.all(np.isfinite(theta)):
            raise ValueError(f"theta0 must give {n_theta} finite entries, got {theta0}")
        if adapt and len(params.q_diag) not in (1, n_theta):
            raise ValueError(f"q_diag has {len(params.q_diag)} entries for {n_theta} "
                             f"parameters; give 1 or {n_theta}")
        theta = tuple(theta.tolist())
        if params.law == "scalar":
            return cls(theta, (float(params.gamma0),) * n_theta)
        return cls(theta, tuple(map(tuple, (params.gamma0 * np.eye(n_theta)).tolist())))


@dataclass
class ReferenceState:
    """Velocity-level reference for the tracked loop, the velocities as
    pairs of floats."""

    v_ref: tuple                # (v_ref_x, omega_ref)
    vdot_ref: tuple             # time derivative of v_ref
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

class LowPassFilter:
    """First-order low-pass y += alpha (x - y), alpha = dt / (tau + dt).

    The first sample initializes the state directly, avoiding a large
    startup transient. For white noise input the steady-state variance gain
    is alpha / (2 - alpha). The controllers and gen-data's drive alike
    filter one sample per update() call, on Python floats.
    """

    def __init__(self, cutoff_hz: float):
        if cutoff_hz <= 0:
            raise ValueError("cutoff_hz must be positive")
        self.tau = 1.0 / (2.0 * math.pi * cutoff_hz)
        self.state = None

    def update(self, x, dt: float) -> tuple:
        """Filter one sample of channels x, a sequence of floats; returns the
        filtered channels, which are the new state, as a tuple."""
        f = self.state
        if f is None:
            self.state = f = tuple(x)
            return f
        if len(x) != len(f):
            raise ValueError(f"expected {len(f)} channels, got {len(x)}")
        alpha = dt / (self.tau + dt)
        if len(f) == 2:                         # the residual's and vdot's channels
            (f0, f1), (v0, v1) = f, x
            self.state = f = (f0 + alpha * (v0 - f0), f1 + alpha * (v1 - f1))
        else:
            self.state = f = tuple([p + alpha * (v - p) for p, v in zip(f, x)])
        return f

    def reset(self):
        self.state = None


class ResidualFilter:
    """Dynamics residual y = lowpass(vdot_meas) - (A_n v + B_n u).

    The caller must pass the same input u that produced the measured
    acceleration, or the residual carries an avoidable model error. B_n is
    an (n, m) matrix, a column for a single input. Gen-data low-passes each
    sample with LowPassFilter.update as it drives, and nominal_residuals
    then subtracts the nominal model from all rows at once.
    """

    def __init__(self, cutoff_hz: float = 2.0):
        self.lpf = LowPassFilter(cutoff_hz)

    def residual(self, vdot_meas, v, u_vec, a_n: np.ndarray, b_n: np.ndarray,
                 dt: float) -> list:
        """One residual as a list of Python floats. The low-pass and the sums
        run on floats; the nominal model's two products stay numpy (ndarray.dot,
        which rounds as the stacked matmul of nominal_residuals does): BLAS
        forms a 2x2 product with FMA, which float arithmetic cannot reproduce."""
        filtered = self.lpf.update(vdot_meas, dt)
        a_v, b_u = a_n.dot(v).tolist(), b_n.dot(u_vec).tolist()
        return [f - (x + y) for f, x, y in zip(filtered, a_v, b_u, strict=True)]

    def reset(self):
        self.lpf.reset()


def nominal_residuals(filtered, v, u_vec, a_n: np.ndarray, b_n: np.ndarray) -> np.ndarray:
    """filtered - (A_n v + B_n u) over a whole trajectory: rows (T, n) of the
    low-passed measurements and of v, (T, m) of u_vec, with A_n (T, n, n)
    and B_n (T, n, m) per row. Row k equals ResidualFilter.residual() on the
    sample that LowPassFilter.update filtered to filtered[k] (a stacked
    matmul rounds as the single one does)."""
    v, u_vec = np.asarray(v, dtype=float), np.asarray(u_vec, dtype=float)
    return filtered - (np.matmul(a_n, v[:, :, None])
                       + np.matmul(b_n, u_vec[:, :, None]))[:, :, 0]


# ---------------------------------------------------------------- tracked loop

def reference_velocities(p, psi: float, p_d, v_d, psi_d: float,
                         gains: Gains, psi_dot_ref: float = 0.0) -> ReferenceState:
    """Pose error -> body-frame velocity references, from float pairs.

    psi_dot_ref is supplied by the caller (finite-differenced and filtered at
    the loop rate); vdot_ref is left zero here and filled by the stateful
    tracker. Below the v_eps speed threshold the heading reference falls back
    to the desired heading psi_d, which keeps turn-in-place maneuvers defined.
    """
    (p_x, p_y), (p_dx, p_dy), (v_dx, v_dy) = p, p_d, v_d
    vi_x = v_dx - gains.k_px * (p_x - p_dx)
    vi_y = v_dy - gains.k_py * (p_y - p_dy)
    v_ref_x = math.cos(psi) * vi_x + math.sin(psi) * vi_y
    if vi_x * vi_x + vi_y * vi_y > gains.v_eps:
        psi_ref = math.atan2(vi_y, vi_x)
    else:
        psi_ref = psi_d
    omega_ref = psi_dot_ref - gains.k_psi * wrap_angle(psi - psi_ref)
    return ReferenceState((v_ref_x, omega_ref), (0.0, 0.0), psi_ref, psi_dot_ref)


class PositionReferenceTracker:
    """Stateful wrapper producing reference derivatives by filtered backward
    differences at the control rate."""

    def __init__(self, gains: Gains, cutoff_hz: float = 2.0):
        self.gains = gains
        self.psi_dot_lpf = LowPassFilter(cutoff_hz)
        self.vdot_lpf = LowPassFilter(cutoff_hz)
        self.prev_psi_ref = None
        self.prev_v_ref = None

    def step(self, p, psi, p_d, v_d, psi_d, dt: float) -> ReferenceState:
        ref = reference_velocities(p, psi, p_d, v_d, psi_d, self.gains, 0.0)
        psi_ref = ref.psi_ref
        raw = 0.0 if self.prev_psi_ref is None else wrap_angle(psi_ref - self.prev_psi_ref) / dt
        (psi_dot,) = self.psi_dot_lpf.update((raw,), dt)
        self.prev_psi_ref = psi_ref
        # omega_ref again now that psi_dot_ref is known, as reference_velocities forms it
        v_ref = (ref.v_ref[0], psi_dot - self.gains.k_psi * wrap_angle(psi - psi_ref))
        if self.prev_v_ref is None:
            vdot = self.vdot_lpf.update((0.0, 0.0), dt)
        else:
            (v0, v1), (w0, w1) = v_ref, self.prev_v_ref
            vdot = self.vdot_lpf.update(((v0 - w0) / dt, (v1 - w1) / dt), dt)
        self.prev_v_ref = v_ref
        return ReferenceState(v_ref, vdot, psi_ref, psi_dot)

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
    (a, b), (c, d) = m
    big = max(abs(a), abs(b), abs(c), abs(d))
    if not 0.0 < big < math.inf:        # zero, infinite or NaN
        return math.inf
    a, b, c, d = a / big, b / big, c / big, d / big
    det = abs(a * d - b * c)
    f = a * a + b * b + c * c + d * d
    if det == 0.0 or not math.isfinite(f):     # f is NaN if an entry is
        return math.inf
    return (f + math.sqrt(max(f * f - 4.0 * det * det, 0.0))) / (2.0 * det)


def tracking_error(v, ref: ReferenceState) -> tuple[float, float]:
    """s = [v_x - v_ref_x, omega - omega_ref], v a float pair."""
    (v_x, omega), (v_ref_x, omega_ref) = v, ref.v_ref
    return v_x - v_ref_x, omega - omega_ref


def _influence(b_n, phi, theta_hat):
    """B_hat = B_n + sum_i theta_i Phi_i for 2x2 matrices, as nested tuples
    of Python floats; phi is (n_theta, 2, 2)."""
    c00 = c01 = c10 = c11 = 0.0
    for t, ((p00, p01), (p10, p11)) in zip(theta_hat, phi, strict=True):
        c00 += t * p00
        c01 += t * p01
        c10 += t * p10
        c11 += t * p11
    (b00, b01), (b10, b11) = b_n
    return (b00 + c00, b01 + c01), (b10 + c10, b11 + c11)


def _solve_2x2(m, r0: float, r1: float) -> tuple[float, float]:
    """x with M x = r by LU with partial pivoting, in the order of LAPACK's
    getf2 (the first largest entry of the column pivots, the column below it
    is scaled by the pivot's reciprocal). Raises LinAlgError on an exactly
    zero pivot, as np.linalg.solve does."""
    (a, b), (c, d) = m
    if abs(c) > abs(a):
        a, b, c, d, r0, r1 = c, d, a, b, r1, r0
    if a == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    low = c * (1.0 / a) if abs(a) >= _SFMIN else c / a
    d = d - low * b
    if d == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    x1 = (r1 - low * r0) / d
    return (r0 - b * x1) / a, x1


def control_tracked(s, ref: ReferenceState, phi, theta_hat, params: TrackedParams,
                    gains: Gains, u_limits=(2.0, 3.0)):
    """Feedback-linearizing velocity control with the adapted influence matrix.

    Returns (TrackedInput, info). If B_hat is near singular (condition number
    at or above _COND_LIMIT) the nominal B_n is used instead and info["fallback"]
    is set; the caller should skip the adaptation update for that step.
    Commands are clamped to the float pair u_limits and clamping is reported.
    s and the reference are float pairs, phi nested lists and theta_hat a
    tuple; info["b_hat"] is the B_hat used, as nested tuples.
    """
    (a00, a01), (a10, a11) = params.a_n_rows
    b_n = params.b_n_rows
    info = {"fallback": False, "clamped": False}
    b_hat = b_n if phi is None else _influence(b_n, phi, theta_hat)
    cond = cond_2x2(b_hat)
    if cond >= _COND_LIMIT:
        log.debug("B_hat condition number %.3e >= %.1e, falling back to B_n", cond, _COND_LIMIT)
        b_hat = b_n
        info["fallback"] = True
    s0, s1 = s
    (v0, v1), (vdot0, vdot1) = ref.v_ref, ref.vdot_ref
    # K s + A_n v_ref - vdot_ref, K = diag(k_dx, k_domega)
    r0 = gains.k_dx * s0 + (a00 * v0 + a01 * v1) - vdot0
    r1 = gains.k_domega * s1 + (a10 * v0 + a11 * v1) - vdot1
    x0, x1 = _solve_2x2(b_hat, r0, r1)
    u_v, u_omega = -x0, -x1
    lim_v, lim_omega = u_limits
    clip_v = min(max(u_v, -lim_v), lim_v)
    clip_omega = min(max(u_omega, -lim_omega), lim_omega)
    if clip_v != u_v or clip_omega != u_omega:      # NaN counts as clamped
        info["clamped"] = True
        log.debug("tracked command clamped: %s -> %s", (u_v, u_omega), (clip_v, clip_omega))
    info["b_hat"] = b_hat
    return TrackedInput(clip_v, clip_omega), info


# ---------------------------------------------------------------- adaptation

def _h_columns(phi, u_vec) -> list:
    """The columns h_i = Phi_i u of H as pairs of Python floats, for phi of
    shape (n_theta, 2, m) with m = 1 or 2, as nested lists."""
    if len(u_vec) == 1:
        (u0,) = u_vec
        return [(p0 * u0, p1 * u0) for (p0,), (p1,) in phi]
    u0, u1 = u_vec
    return [(p00 * u0 + p01 * u1, p10 * u0 + p11 * u1)
            for (p00, p01), (p10, p11) in phi]


def adapt_step(state: AdaptState, s, y, phi, u_vec, dt: float, params: AdaptParams):
    """One Euler step of the composite law.

    thetadot = -lam theta - G H^T R^-1 (H theta - y) + G H^T s
    Gdot     = -2 lam G + Q +/- G H^T R^-1 H G

    params.law picks the gain dynamics. The per-component law keeps the gains
    gamma, G = diag(gamma): only the diagonal of the quadratic term enters,
    with the + sign, and the gains are clamped to [gamma_min, gamma_max].
    The full-matrix law keeps the rows of G: the Riccati - sign, then the
    gain is re-symmetrized and its eigenvalues are floored at gamma_min,
    keeping it SPD. A non-finite update is rejected: the state is held and
    the rejection is reported in the second return value. Runs on float
    pairs s and y, nested lists phi and floats u_vec (the matrix law's gain
    products and eigh on numpy) for two residual channels, any n_theta and
    one or two inputs; a one-entry q_diag stands for every component.
    """
    theta = state.theta_hat
    h = _h_columns(phi, u_vec)
    r0, r1 = params.r_inv
    s0, s1 = s
    y0, y1 = y
    pred0 = pred1 = 0.0                             # H theta - y
    for th, (h0, h1) in zip(theta, h, strict=True):
        pred0 += h0 * th
        pred1 += h1 * th
    pred0 -= y0
    pred1 -= y1
    # per column: h_i^T R^-1 (H theta - y) and h_i^T s
    proj = [(h0 * r0 * pred0 + h1 * r1 * pred1, h0 * s0 + h1 * s1) for h0, h1 in h]
    q = params.q * len(theta) if len(params.q) == 1 else params.q
    lam, two_lam = params.lam, 2.0 * params.lam
    scalar = params.law == "scalar"
    # the gain product: the scalar law's gamma_i weights column i's projections
    # in the theta step; the matrix law applies G first and steps with unit
    # weights (1.0 * x is exact)
    if scalar:
        weights = gamma = state.gain
        gain_new = [g + dt * (-two_lam * g + q_i + g * (h0 * r0 * h0 + h1 * r1 * h1) * g)
                    for g, q_i, (h0, h1) in zip(gamma, q, h)]
        gain_values = gain_new
    else:
        weights = (1.0,) * len(theta)
        gain = np.array(state.gain)
        proj = (gain @ np.array(proj)).tolist()
        quad = np.array([[h0 * r0 * k0 + h1 * r1 * k1 for k0, k1 in h] for h0, h1 in h])
        gain_new = gain + dt * (-two_lam * gain + np.diag(q) - gain @ quad @ gain)
        gain_values = gain_new.ravel().tolist()
    theta_new = [th + dt * (-lam * th - w * e + w * b)
                 for th, w, (e, b) in zip(theta, weights, proj)]
    if not all(map(math.isfinite, theta_new + gain_values)):
        log.debug("adaptation produced a non-finite update; step rejected")
        return state, True
    if scalar:
        lo, hi = params.gamma_bounds
        gain_new = tuple([lo if g < lo else hi if g > hi else g for g in gain_new])
    else:
        gain_new = 0.5 * (gain_new + gain_new.T)
        vals, vecs = np.linalg.eigh(gain_new)
        gain_new = (vecs * np.maximum(vals, params.gamma_min)) @ vecs.T
        gain_new = tuple(map(tuple, (0.5 * (gain_new + gain_new.T)).tolist()))
    return AdaptState(tuple(theta_new), gain_new), False


# ---------------------------------------------------------------- ackermann loop

def lateral_errors(p, psi: float, v_x: float, v_y: float, p_d, psi_d: float,
                   k_p: float) -> LateralErrorState:
    """Path-frame position errors and the composite cross-track variable.

    The desired frame has its x axis along the path heading psi_d, which
    defines it at every path speed. e_perp_dot uses the small heading-error
    linearization v_y + v_x psi_e. p and p_d are float pairs.
    """
    (p_x, p_y), (p_dx, p_dy) = p, p_d
    e_x, e_y = p_x - p_dx, p_y - p_dy
    cd, sd = math.cos(psi_d), math.sin(psi_d)
    e_par = cd * e_x + sd * e_y
    e_perp = -sd * e_x + cd * e_y
    psi_e = wrap_angle(psi - psi_d)
    e_perp_dot = v_y + v_x * psi_e
    return LateralErrorState(e_par, e_perp, psi_e, e_perp_dot,
                             e_perp_dot + k_p * e_perp)


def control_ackermann(lat: LateralErrorState, v_x: float, v_y: float,
                      omega_d: float, vdot_x: float, phi_row, theta_hat,
                      params: AckermannParams, gains: Gains,
                      u_delta_max: float = 0.45):
    """Steering command from the cross-track sliding variable.

    b_hat = C_y/m + phi_row . theta_hat is the adapted steering effectiveness;
    if its magnitude falls below b_min the nominal value is used and theta_hat
    is dropped for this step (info["fallback"]). The command is clamped to
    +/- u_delta_max. v_x must lie above v_min, below which the law has no
    lateral authority (ValueError); AckermannController.tick holds the
    steering there instead.
    """
    if v_x <= params.v_min:
        raise ValueError(f"lateral controller engaged at v_x={v_x} <= v_min={params.v_min}")
    info = {"fallback": False, "clamped": False}
    b_nom = params.c_y / params.m
    b_hat = b_nom
    if phi_row is not None:
        adapted = 0.0
        for p, t in zip(phi_row, theta_hat, strict=True):
            adapted += p * t
        b_hat = b_nom + adapted
    if abs(b_hat) < gains.b_min:
        log.debug("b_hat=%.3e below b_min=%.1e, dropping adapted part", b_hat, gains.b_min)
        b_hat = b_nom
        info["fallback"] = True
    u = -(gains.k_v * lat.s_perp
          - (2.0 * params.c_y / (params.m * v_x)) * v_y
          + vdot_x * lat.psi_e
          - v_x * omega_d
          + gains.k_p * lat.e_perp_dot) / b_hat
    clipped = float(min(max(u, -u_delta_max), u_delta_max))
    if clipped != u:
        info["clamped"] = True
        log.debug("steering clamped: %.3f -> %.3f", u, clipped)
    info["b_hat"] = b_hat
    return clipped, info


# ---------------------------------------------------------------- controllers

@dataclass
class TickTelemetry:
    """Per-tick controller internals, recorded by the harness: s, u, y,
    theta_hat and the gain diagonal as sequences of Python floats (theta_hat
    and the gain diagonal empty without a basis; theta_hat is the adapted
    state's own tuple)."""

    s: tuple
    u: tuple
    y: tuple | list
    theta_hat: tuple
    gain_diag: tuple
    psi_ref: float
    fallback: bool
    clamped: bool
    rejected: bool
    lat: LateralErrorState | None = None    # Ackermann path-frame errors


_NO_RESIDUAL = (math.nan, math.nan)     # y before the first residual exists


class _AdaptiveController:
    """Tick bookkeeping shared by both vehicles: the adapted state, the
    residual of the previous tick's input, the composite adaptation step and
    the telemetry record. Subclasses supply the reference and the control law.
    The tick carries its vectors as Python floats; phi is converted once per
    tick, to nested lists, and serves the law and the next adaptation step.

    variant: "pd" (no basis, no adaptation), "constant" or "dnn" (basis with
    adaptation), plus adapt=False to freeze theta_hat at its initial value.
    """

    def __init__(self, params, gains: Gains, adapt_params: AdaptParams, basis,
                 theta0, adapt: bool, residual_cutoff_hz: float, control_period: float):
        self.params = params
        self.gains = gains
        self.adapt_params = adapt_params
        self.basis = basis
        self.adapt = adapt and basis is not None
        self.dt = control_period
        self.state0 = (AdaptState.fresh(basis.n_theta, adapt_params, theta0=theta0,
                                        adapt=self.adapt)
                       if basis is not None else None)
        self.res_filter = ResidualFilter(residual_cutoff_hz)
        _AdaptiveController.reset(self)         # a subclass's parts are not built yet

    def reset(self):
        """Start an episode from the fresh theta_hat and gain, empty filters."""
        self.state = self.state0
        self.res_filter.reset()
        self.prev_u = None
        self.prev_phi = None

    def _phi(self, x, features):
        """The basis at (x, features) as nested lists of floats, or None."""
        return self.basis.eval(x, features).tolist() if self.basis is not None else None

    def _theta(self):
        return self.state.theta_hat if self.state is not None else None

    def _adapt(self, state, x, xdot_meas, phi, u_vec, s, fallback: bool):
        """Residual of the previous tick's input and, unless the law fell back,
        one adaptation step on it. Returns (y, rejected) and keeps (u_vec, phi)
        for the next tick."""
        y = _NO_RESIDUAL
        rejected = False
        if self.prev_u is not None:
            a_n, b_n = self.params.residual_model(state)
            y = self.res_filter.residual(xdot_meas, x, self.prev_u, a_n, b_n, self.dt)
            if self.adapt and not fallback and self.prev_phi is not None:
                self.state, rejected = adapt_step(self.state, s, y, self.prev_phi,
                                                  self.prev_u, self.dt, self.adapt_params)
        self.prev_u = u_vec
        self.prev_phi = phi
        return y, rejected

    def _telemetry(self, s, u, y, psi_ref: float, info: dict, rejected: bool,
                   lat: LateralErrorState | None = None) -> TickTelemetry:
        gain_diag = theta_out = ()
        if self.state is not None:
            theta_out, gain = self.state.theta_hat, self.state.gain
            scalar = self.adapt_params.law == "scalar"
            gain_diag = gain if scalar else tuple([row[i] for i, row in enumerate(gain)])
        return TickTelemetry(s, u, y, theta_out, gain_diag, psi_ref,
                             info["fallback"], info["clamped"], rejected, lat)


class TrackedController(_AdaptiveController):
    """Complete tracked-vehicle controller: reference handling, feedback
    linearization, residual filtering, and composite adaptation."""

    def __init__(self, params: TrackedParams, gains: Gains,
                 adapt_params: AdaptParams, basis=None, theta0=None,
                 adapt: bool = True, u_limits=(2.0, 3.0),
                 residual_cutoff_hz: float = 2.0, control_period: float = 0.05):
        super().__init__(params, gains, adapt_params, basis, theta0, adapt,
                         residual_cutoff_hz, control_period)
        self.u_limits = (float(u_limits[0]), float(u_limits[1]))
        self.ref_tracker = PositionReferenceTracker(gains, residual_cutoff_hz)

    def reset(self):
        super().reset()
        self.ref_tracker.reset()

    def tick_position(self, state, vdot_meas, features, p_d, v_d, psi_d):
        """p_d and v_d are float pairs."""
        ref = self.ref_tracker.step((state.p_x, state.p_y), state.psi,
                                    p_d, v_d, psi_d, self.dt)
        return self._tick(state, vdot_meas, features, ref)

    def tick_velocity(self, state, vdot_meas, features, v_ref, vdot_ref):
        """v_ref and vdot_ref are (v_x, omega) float pairs."""
        ref = ReferenceState(v_ref, vdot_ref, psi_ref=state.psi, psi_dot_ref=0.0)
        return self._tick(state, vdot_meas, features, ref)

    def _tick(self, state, vdot_meas, features, ref: ReferenceState):
        v = (state.v_x, state.omega)
        phi = self._phi(v, features)
        s = tracking_error(v, ref)
        u, info = control_tracked(s, ref, phi, self._theta(), self.params, self.gains,
                                  self.u_limits)
        u_vec = (u.u_v, u.u_omega)
        y, rejected = self._adapt(state, v, vdot_meas, phi, u_vec, s, info["fallback"])
        return u, self._telemetry(s, u_vec, y, ref.psi_ref, info, rejected)


class AckermannController(_AdaptiveController):
    """Cross-track adaptive steering plus a simple forward-speed loop."""

    def __init__(self, params: AckermannParams, gains: Gains,
                 adapt_params: AdaptParams, basis=None, theta0=None,
                 adapt: bool = True, u_delta_max: float = 0.45,
                 residual_cutoff_hz: float = 2.0, control_period: float = 0.05):
        super().__init__(params, gains, adapt_params, basis, theta0, adapt,
                         residual_cutoff_hz, control_period)
        self.u_delta_max = u_delta_max

    def tick(self, state, xdot_meas, features, p_d, psi_d, omega_d, speed_d):
        """xdot_meas is the measured [vdot_y, omegadot]. At or below v_min the
        car has no lateral authority: the steering is held (0 on an episode's
        first tick) and the tick is a fallback, with no adaptation step."""
        lat = lateral_errors((state.p_x, state.p_y), state.psi,
                             state.v_x, state.v_y, p_d, psi_d, self.gains.k_p)
        x_lat = (state.v_y, state.omega)
        phi = self._phi(x_lat, features)
        u_v = speed_d - self.gains.k_fwd * (state.v_x - speed_d)
        if state.v_x <= self.params.v_min:
            u_delta = self.prev_u[0] if self.prev_u is not None else 0.0
            info = {"fallback": True, "clamped": False}
        else:
            phi_row = [p[0][0] for p in phi] if phi is not None else None
            vdot_x_nom = (u_v - state.v_x) / self.params.tau_v
            u_delta, info = control_ackermann(lat, state.v_x, state.v_y, omega_d,
                                              vdot_x_nom, phi_row, self._theta(),
                                              self.params, self.gains, self.u_delta_max)
        y, rejected = self._adapt(state, x_lat, xdot_meas, phi, (u_delta,),
                                  (lat.s_perp, 0.0), info["fallback"])
        tele = self._telemetry((lat.s_perp,), (u_v, u_delta), y,
                               psi_d, info, rejected, lat)
        return AckermannInput(u_v, u_delta), tele

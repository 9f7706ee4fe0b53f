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
One Euler step, adapt_step, serves both: AdaptState.fresh reads the law
once and gives the gain its shape (a vector of per-component gains or a
full matrix), and from then on the shape is the law.

Ackermann vehicle: cross-track control in the path frame with the adapted
scalar steering effectiveness b_hat = C_y/m + phi_row . theta_hat.
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


def _floats(x):
    """x as Python floats: an array through tolist(), a sequence as given.
    The controller tick runs on Python floats; its public functions still
    take arrays."""
    return x.tolist() if isinstance(x, np.ndarray) else x


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
    dynamics; AdaptState.fresh reads it once, to give the gain its shape.
    r_diag are the diagonal entries of the prediction-error weighting R
    (positive definite), one per residual channel or one for both; q_diag
    the gain forcing Q, one entry per component or one for all; lam the
    forgetting rate. gamma_min / gamma_max clamp the per-component gains;
    gamma_min doubles as the eigenvalue floor of the matrix law. The length
    of q_diag is checked against the basis in AdaptState.fresh. Frozen,
    because every adaptation step reads the floats built once from them:
    r_inv, the diagonal of R^-1 for both residual channels, and q, the Q
    entries as given.
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
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if len(self.r_diag) not in (1, 2):
            raise ValueError(f"r_diag has {len(self.r_diag)} entries; the residual has "
                             "2 channels, so give 1 or 2")
        if any(r <= 0 for r in self.r_diag):
            raise ValueError("R must be positive definite")
        if any(q < 0 for q in self.q_diag):
            raise ValueError("Q must be positive semidefinite")
        if not 0 < self.gamma_min <= self.gamma0 <= self.gamma_max:
            raise ValueError("need 0 < gamma_min <= gamma0 <= gamma_max")
        r_inv = tuple(1.0 / float(r) for r in self.r_diag)
        object.__setattr__(self, "r_inv", r_inv * 2 if len(r_inv) == 1 else r_inv)
        object.__setattr__(self, "q", tuple(float(q) for q in self.q_diag))


@dataclass
class AdaptState:
    """Adapted parameters plus their gain, whose shape is the law: a vector
    gamma for the per-component law, a full SPD matrix for the matrix law.
    fresh() is the one checked constructor: adapt_step builds each next
    state, refusing a non-finite update and clamping or flooring the gain
    itself. A state, arrays included, is never changed in place: it makes
    its arrays read-only, so the tick's telemetry shares them rather than
    copying them."""

    theta_hat: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        self.theta_hat.setflags(write=False)
        self.gain.setflags(write=False)

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
        if params.law == "scalar":
            return cls(theta, np.full(n_theta, params.gamma0))
        return cls(theta, params.gamma0 * np.eye(n_theta))


@dataclass
class ReferenceState:
    """Velocity-level reference for the tracked loop. The two velocity pairs
    may be arrays or sequences of floats."""

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

    def update(self, x, dt: float) -> list:
        """Filter one sample of channels x (array or sequence); returns the
        filtered channels as a new list of Python floats, which round
        exactly as the elementwise array update does."""
        x = _floats(x)
        if self.state is None:
            self.state = [float(v) for v in x]
        else:
            alpha = dt / (self.tau + dt)
            self.state = [_lowpass_step(f, v, alpha) for f, v in zip(self.state, x, strict=True)]
        return list(self.state)

    def run(self, xs, dt: float) -> np.ndarray:
        """update() over the rows of xs in order; returns the (T, n) outputs.

        Each channel runs as Python floats, which round exactly as the
        elementwise array update does."""
        xs = np.asarray(xs, dtype=float)
        out = np.empty_like(xs)
        k0 = 0
        if self.state is None:          # the first row initializes, as in update()
            self.state = xs[0].tolist()
            out[0] = xs[0]
            k0 = 1
        alpha = dt / (self.tau + dt)
        for j, channel in enumerate(xs[k0:].T.tolist()):
            f = self.state[j]
            filtered = []
            for x in channel:
                f = _lowpass_step(f, x, alpha)
                filtered.append(f)
            out[k0:, j] = filtered
        self.state = out[-1].tolist()
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
                 dt: float) -> list:
        """One residual as a list of Python floats. The low-pass and the sums
        run on floats; the nominal model's two products stay numpy (ndarray.dot,
        which rounds as the stacked matmul of residuals() does): BLAS forms a
        2x2 product with FMA, which float arithmetic cannot reproduce."""
        filtered = self.lpf.update(vdot_meas, dt)
        a_v, b_u = a_n.dot(v).tolist(), b_n.dot(u_vec).tolist()
        return [f - (x + y) for f, x, y in zip(filtered, a_v, b_u, strict=True)]

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
                         gains: Gains, psi_dot_ref: float = 0.0) -> ReferenceState:
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

    def __init__(self, gains: Gains, cutoff_hz: float = 2.0):
        self.gains = gains
        self.psi_dot_lpf = LowPassFilter(cutoff_hz)
        self.vdot_lpf = LowPassFilter(cutoff_hz)
        self.prev_psi_ref = None
        self.prev_v_ref = None

    def step(self, p, psi, p_d, v_d, psi_d, dt: float) -> ReferenceState:
        ref = reference_velocities(p, psi, p_d, v_d, psi_d, self.gains, 0.0)
        if self.prev_psi_ref is None:
            psi_dot = float(self.psi_dot_lpf.update(np.zeros(1), dt)[0])
        else:
            raw = wrap_angle(ref.psi_ref - self.prev_psi_ref) / dt
            psi_dot = float(self.psi_dot_lpf.update(np.array([raw]), dt)[0])
        self.prev_psi_ref = ref.psi_ref
        # omega_ref again now that psi_dot_ref is known, as reference_velocities forms it
        ref.v_ref[1] = psi_dot - self.gains.k_psi * wrap_angle(psi - ref.psi_ref)
        ref.psi_dot_ref = psi_dot
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
    (a, b), (c, d) = _floats(m)
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
    """s = [v_x - v_ref_x, omega - omega_ref]."""
    (v_x, omega), (v_ref_x, omega_ref) = _floats(v), _floats(ref.v_ref)
    return v_x - v_ref_x, omega - omega_ref


def _influence(b_n, phi, theta_hat):
    """B_hat = B_n + sum_i theta_i Phi_i for 2x2 matrices, as nested tuples
    of Python floats; phi is (n_theta, 2, 2)."""
    c00 = c01 = c10 = c11 = 0.0
    for t, ((p00, p01), (p10, p11)) in zip(_floats(theta_hat), _floats(phi), strict=True):
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
                    gains: Gains, u_limits=(2.0, 3.0),
                    cond_limit: float = 1e6):
    """Feedback-linearizing velocity control with the adapted influence matrix.

    Returns (TrackedInput, info). If B_hat is near singular (condition number
    at or above cond_limit) the nominal B_n is used instead and info["fallback"]
    is set; the caller should skip the adaptation update for that step.
    Commands are clamped to u_limits and clamping is reported. The law runs on
    Python floats (s, the reference pairs, phi and theta_hat may be arrays);
    info["b_hat"] is the B_hat used, as nested tuples.
    """
    (a00, a01), (a10, a11) = params.a_n_rows
    b_n = params.b_n_rows
    info = {"fallback": False, "clamped": False}
    b_hat = b_n if phi is None else _influence(b_n, phi, theta_hat)
    cond = cond_2x2(b_hat)
    if cond >= cond_limit:
        log.debug("B_hat condition number %.3e >= %.1e, falling back to B_n", cond, cond_limit)
        b_hat = b_n
        info["fallback"] = True
    s0, s1 = _floats(s)
    (v0, v1), (vdot0, vdot1) = _floats(ref.v_ref), _floats(ref.vdot_ref)
    # K s + A_n v_ref - vdot_ref, K = diag(k_dx, k_domega)
    r0 = gains.k_dx * s0 + (a00 * v0 + a01 * v1) - vdot0
    r1 = gains.k_domega * s1 + (a10 * v0 + a11 * v1) - vdot1
    x0, x1 = _solve_2x2(b_hat, r0, r1)
    u_v, u_omega = -x0, -x1
    lim_v, lim_omega = float(u_limits[0]), float(u_limits[1])
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
    shape (n_theta, 2, m) with m = 1 or 2."""
    u = _floats(u_vec)
    if len(u) == 1:
        (u0,) = u
        return [(p0 * u0, p1 * u0) for (p0,), (p1,) in _floats(phi)]
    u0, u1 = u
    return [(p00 * u0 + p01 * u1, p10 * u0 + p11 * u1)
            for (p00, p01), (p10, p11) in _floats(phi)]


def adapt_step(state: AdaptState, s, y, phi, u_vec, dt: float, params: AdaptParams):
    """One Euler step of the composite law.

    thetadot = -lam theta - G H^T R^-1 (H theta - y) + G H^T s
    Gdot     = -2 lam G + Q +/- G H^T R^-1 H G

    The gain's shape is the law. A vector gamma is the per-component law:
    G = diag(gamma), only the diagonal of the quadratic term enters, with
    the + sign, and the gains are clamped to [gamma_min, gamma_max]. A
    matrix is the full-matrix law: the Riccati - sign, then the gain is
    re-symmetrized and its eigenvalues are floored at gamma_min, keeping it
    SPD. A non-finite update is rejected: the state is held and the
    rejection is reported in the second return value. Runs on Python floats
    (the matrix law's gain products and eigh on numpy) for two residual
    channels, any n_theta and one or two inputs; a one-entry q_diag stands
    for every component.
    """
    theta = state.theta_hat.tolist()
    h = _h_columns(phi, u_vec)
    r0, r1 = params.r_inv
    s0, s1 = _floats(s)
    y0, y1 = _floats(y)
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
    gain = state.gain
    # the gain product: the scalar law's gamma_i weights column i's projections
    # in the theta step; the matrix law applies G first and steps with unit
    # weights (1.0 * x is exact)
    if gain.ndim == 1:
        weights = gamma = gain.tolist()
        gain_new = [g + dt * (-two_lam * g + q_i + g * (h0 * r0 * h0 + h1 * r1 * h1) * g)
                    for g, q_i, (h0, h1) in zip(gamma, q, h)]
        gain_values = gain_new
    else:
        weights = (1.0,) * len(theta)
        proj = (gain @ np.array(proj)).tolist()
        quad = np.array([[h0 * r0 * k0 + h1 * r1 * k1 for k0, k1 in h] for h0, h1 in h])
        gain_new = gain + dt * (-two_lam * gain + np.diag(q) - gain @ quad @ gain)
        gain_values = gain_new.ravel().tolist()
    theta_new = [th + dt * (-lam * th - w * e + w * b)
                 for th, w, (e, b) in zip(theta, weights, proj)]
    if not all(map(math.isfinite, theta_new + gain_values)):
        log.debug("adaptation produced a non-finite update; step rejected")
        return state, True
    if gain.ndim == 1:
        lo, hi = params.gamma_min, params.gamma_max
        gain_new = np.array([lo if g < lo else hi if g > hi else g for g in gain_new])
    else:
        gain_new = 0.5 * (gain_new + gain_new.T)
        vals, vecs = np.linalg.eigh(gain_new)
        gain_new = (vecs * np.maximum(vals, params.gamma_min)) @ vecs.T
        gain_new = 0.5 * (gain_new + gain_new.T)
    return AdaptState(np.array(theta_new), gain_new), False


# ---------------------------------------------------------------- ackermann loop

def lateral_errors(p, psi: float, v_x: float, v_y: float, p_d, psi_d: float,
                   k_p: float) -> LateralErrorState:
    """Path-frame position errors and the composite cross-track variable.

    The desired frame has its x axis along the path heading psi_d, which
    defines it at every path speed. e_perp_dot uses the small heading-error
    linearization v_y + v_x psi_e.
    """
    (p_x, p_y), (p_dx, p_dy) = _floats(p), _floats(p_d)
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
        for p, t in zip(_floats(phi_row), _floats(theta_hat), strict=True):
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
    """Per-tick controller internals, recorded by the harness: s, u and y
    as sequences of Python floats, theta_hat and the gain diagonal as
    read-only arrays (empty without a basis) that share the adapted
    state's memory."""

    s: tuple
    u: tuple
    y: tuple | list
    theta_hat: np.ndarray
    gain_diag: np.ndarray
    psi_ref: float
    fallback: bool
    clamped: bool
    rejected: bool
    lat: LateralErrorState | None = None    # Ackermann path-frame errors


_NO_RESIDUAL = (math.nan, math.nan)     # y before the first residual exists
_EMPTY = np.empty(0)                    # theta_hat and gain telemetry without a basis
_EMPTY.setflags(write=False)


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
        # the state is never changed in place, so its arrays need no copy
        gain_diag = theta_out = _EMPTY
        if self.state is not None:
            theta_out, gain = self.state.theta_hat, self.state.gain
            gain_diag = gain if gain.ndim == 1 else np.diag(gain)
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
        """v_ref and vdot_ref are [v_x, omega] pairs, arrays or sequences."""
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

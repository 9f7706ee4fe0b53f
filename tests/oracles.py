"""Reference computations and entry points that only the tests use.

Most restate a quantity the package reports, or one the paper's analysis
uses, from its definition, so that a test can check the program against
it; per_tick_episode keeps the plain per-tick loop that the episode's
float loop must match bit for bit. The trainer's entry points below drive
its private batched ridge and meta-gradient (`training._ridge`,
`training._pack_cost_and_grad`) on one window, the unit the tests and
criteria C6, C7 and C9 reason in. No code under src calls anything here.
"""

import copy
import dataclasses
import logging

import numpy as np

from terradapt import harness
from terradapt.basis import BasisNet, DimensionError
from terradapt.harness import compute_metrics
from terradapt.training import _pack_cost_and_grad, _ridge, build_h
from terradapt.vehicles import FaultSchedule, NonFiniteError, TrackedParams, checked_fields

log = logging.getLogger(__name__)


def as_array(obj) -> np.ndarray:
    """The fields of a state or input dataclass, in order, as a float array."""
    return np.array(dataclasses.astuple(obj), dtype=float)


def nominal_eta(params):
    """The terrain factor of nominal ground: 1 on both tracks, or 1 for the car."""
    return (1.0, 1.0) if isinstance(params, TrackedParams) else 1.0


def derivative(state, u, params, eta=None) -> np.ndarray:
    """Time derivative of the state under input u and terrain factor eta,
    nominal when None: the params' stage_rates at the state, after the
    plant's entry checks. A textbook RK4 over it is the bit-exact oracle of
    the plant's rk4_steps.

    Tracked: [pdot_x, pdot_y, psidot, vdot_x, omegadot]; Ackermann:
    [pdot_x, pdot_y, psidot, vdot_x, vdot_y, omegadot].
    """
    y = checked_fields(state, params.state_cls)
    rates = params.stage_rates(*checked_fields(u, params.input_cls))
    return np.array(rates(nominal_eta(params) if eta is None else eta, *y[2:]))


def plant_step(state, u, params, dt: float, eta=None, n_sub: int = 1, terrain=None):
    """n_sub RK4 steps of dt from state under the held input u, as the
    simulation loops take them: u's stage_rates after its entry check, then
    the params' rk4_steps on the checked state, which checks its result.
    eta (nominal when None) is held over every step unless terrain(p_x, p_y)
    looks it up. Returns a new state."""
    rates = params.stage_rates(*checked_fields(u, params.input_cls))
    if terrain is None:
        held = nominal_eta(params) if eta is None else eta
        terrain = lambda p_x, p_y: held
    y = params.rk4_steps(rates, checked_fields(state, params.state_cls), terrain, dt, n_sub)
    return params.state_cls(*y)


def lyapunov_value(s, theta_hat, theta_true, gain) -> float:
    """V = s^T s + theta_err^T gain^-1 theta_err, for either gain form."""
    s = np.asarray(s, dtype=float)
    err = np.asarray(theta_hat, dtype=float) - np.asarray(theta_true, dtype=float)
    if np.asarray(gain).ndim == 1:
        return float(s @ s + np.sum(err * err / np.asarray(gain, dtype=float)))
    return float(s @ s + err @ np.linalg.solve(np.asarray(gain, dtype=float), err))


def metrics_from_telemetry(path, period: float):
    """Recompute the run metrics from a telemetry CSV."""
    cols, rows = read_csv(path)
    idx = {c: i for i, c in enumerate(cols)}
    s_cols = [idx[c] for c in cols if c.startswith("s_")]
    s = [[row[i] for i in s_cols] for row in rows]
    p = pd = None
    if "p_d_x" in idx:
        p = [[row[idx["p_x"]], row[idx["p_y"]]] for row in rows]
        pd = [[row[idx["p_d_x"]], row[idx["p_d_y"]]] for row in rows]
    return compute_metrics(period, s, p, pd)


def contract(phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sum_i theta_i Phi_i for a single stack (n_theta, n, m) or a batch.

    Batched input has shape (T, n_theta, n, m) and returns (T, n, m).
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if phi.ndim == 3:
        if phi.shape[0] != theta.shape[0]:
            raise DimensionError(f"theta has {theta.shape[0]} entries, basis has {phi.shape[0]}")
        return (theta @ phi.reshape(phi.shape[0], -1)).reshape(phi.shape[1:])
    if phi.ndim == 4:
        if phi.shape[1] != theta.shape[0]:
            raise DimensionError(f"theta has {theta.shape[0]} entries, basis has {phi.shape[1]}")
        return np.einsum("tinm,i->tnm", phi, theta)
    raise DimensionError(f"phi must have 3 or 4 dims, got {phi.ndim}")


def read_csv(path):
    """Read a CSV written by write_csv. Returns (columns, list of string rows)."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    columns = lines[0].split(",")
    return columns, [ln.split(",") for ln in lines[1:]]


def solve_theta_star(h: np.ndarray, y: np.ndarray, lambda_r: float, theta_r: np.ndarray):
    """Ridge solution of the window least squares problem.

    h is (T, n, n_theta), y is (T, n). Returns (theta_star, residual_cost)
    where the cost excludes the regularization term. Requires a nonempty
    window and lambda_r > 0 or enough excitation to keep the normal matrix
    positive definite.
    """
    h = np.asarray(h, dtype=float)
    y = np.asarray(y, dtype=float)
    if h.ndim != 3 or y.ndim != 2 or h.shape[0] != y.shape[0] or h.shape[1] != y.shape[1]:
        raise ValueError(f"inconsistent window shapes h{h.shape}, y{y.shape}")
    if h.shape[0] == 0:
        raise ValueError("window is empty")
    theta_r = np.asarray(theta_r, dtype=float).reshape(-1)
    n_theta = h.shape[2]
    if theta_r.shape[0] != n_theta:
        raise ValueError(f"theta_r has {theta_r.shape[0]} entries, expected {n_theta}")
    z = np.concatenate([h, y[:, :, None]], axis=2).reshape(-1, n_theta + 1)
    _, theta = _ridge((z.T @ z)[None], lambda_r, theta_r)
    r = z @ np.append(theta[0], -1.0)
    return theta[0], float(r @ r)


def window_cost(net, window, lambda_r: float, theta_r) -> tuple[float, np.ndarray]:
    """Meta-objective of one window under the current basis.

    window is (x, u, e, y) arrays. Returns (cost, theta_star).
    """
    xw, uw, ew, yw = window
    phi = net.forward_batch(xw, ew)
    theta, cost = solve_theta_star(build_h(phi, uw), yw, lambda_r, theta_r)
    return cost, theta


def window_cost_and_grad(net: BasisNet, window, lambda_r: float, theta_r):
    """Window cost plus exact gradient w.r.t. every network parameter.

    An empty window contributes nothing: theta* degenerates to theta_r and
    the gradient is identically zero.
    """
    xw, uw, ew, yw = (np.asarray(a, dtype=float) for a in window)
    theta_r = np.asarray(theta_r, dtype=float).reshape(-1)
    if xw.shape[0] == 0:
        zero = {"W": [np.zeros_like(w) for w in net.weights],
                "b": [np.zeros_like(b) for b in net.biases]}
        return 0.0, theta_r.copy(), zero
    costs, theta, grads = _pack_cost_and_grad(net, xw, uw, ew, yw, np.array([0]),
                                              np.array([xw.shape[0]]), lambda_r, theta_r)
    return float(costs[0]), theta[0], grads


def gradcheck_meta(net: BasisNet, windows, lambda_r: float, theta_r,
                   h_step: float = 1e-5) -> float:
    """Compare the analytic meta-gradient against central finite differences.

    windows is a list of (x, u, e, y) tuples; the objective is the summed
    window cost. Returns the maximum elementwise relative error over all
    parameters. Everything runs in float64.
    """
    theta_r = np.asarray(theta_r, dtype=float)

    def total_cost(candidate: BasisNet) -> float:
        c = 0.0
        for w in windows:
            xw = np.asarray(w[0])
            if xw.shape[0] == 0:
                continue
            c += window_cost(candidate, w, lambda_r, theta_r)[0]
        return c

    grad_flat = np.zeros(net.get_flat_params().size)
    for w in windows:
        _, _, grads = window_cost_and_grad(net, w, lambda_r, theta_r)
        grad_flat += net.grads_to_flat(grads)

    probe = copy.deepcopy(net)
    base = net.get_flat_params()
    fd = np.zeros_like(base)
    for i in range(base.size):
        p = base.copy()
        p[i] = base[i] + h_step
        probe.set_flat_params(p)
        up = total_cost(probe)
        p[i] = base[i] - h_step
        probe.set_flat_params(p)
        down = total_cost(probe)
        fd[i] = (up - down) / (2.0 * h_step)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(grad_flat)), 1e-8)
    return float(np.max(np.abs(grad_flat - fd) / denom))


def per_tick_episode(world, cfg, controller, policy, provider, meas_rng, start,
                     duration_s: float, fault: FaultSchedule = FaultSchedule()):
    """The state-object episode loop that harness.simulate_episode replaced,
    kept as its oracle: every tick measures through a fresh stage_rates of
    the applied input, draws its own measurement noise pair, and steps the
    plant in one plant_step call on state objects. Returns what
    simulate_episode returns with telemetry on."""
    sim = cfg.sim
    period = sim.control_period
    n_sub = int(round(period / sim.dt_plant))
    n_ticks = int(round(duration_s / period))
    vehicle = harness._vehicle(cfg)
    terrain = vehicle.terrain(world)
    tick = getattr(controller, harness._TICK[policy.mode])
    has_position = policy.mode != "velocity"
    controller.reset()

    state = start
    u_applied = None
    aborted = False
    fallback = clamp = rejected = 0
    clamp0 = provider.clamp_count

    n_theta = len(controller.state.theta_hat) if controller.state is not None else 0
    cols = ["t", *(f.name for f in dataclasses.fields(start))]
    if has_position:
        cols += ["p_d_x", "p_d_y"]
    cols += vehicle.tele_cols
    cols += [f"theta_{i}" for i in range(n_theta)]
    cols += [f"gamma_{i}" for i in range(n_theta)]
    cols += vehicle.fault_cols + ["fallback", "clamped", "rejected"]

    rows, s_rows, p_rows, pd_rows = [], [], [], []
    for k in range(n_ticks):
        t = k * period
        if k == 0:
            xdot_meas = (0.0, 0.0)
        else:
            u_values = tuple(vars(u_applied).values())
            m_x, m_w = vehicle.measured(vehicle.vp.stage_rates(*u_values), terrain,
                                        tuple(vars(state).values()))
            n_x, n_w = meas_rng.normal(0.0, sim.vdot_noise_std, 2).tolist()
            xdot_meas = (m_x + n_x, m_w + n_w)
        feats = provider.features_under_robot(state.p_x, state.p_y, state.psi,
                                              vehicle.half)
        refs = policy.refs(t, state)
        try:
            u_cmd, tele = tick(state, xdot_meas, feats, *refs)
        except vehicle.tick_errors as e:
            log.warning("run aborted at t=%.2f: %s", t, e)
            aborted = True
            break
        u_applied, fault_row = vehicle.actuate(u_cmd, fault, t)

        fallback += tele.fallback
        clamp += tele.clamped
        rejected += tele.rejected
        row = [t, *vars(state).values()]
        if has_position:
            p_d = [refs[0][0], refs[0][1]]
            row += p_d
            p_rows.append([state.p_x, state.p_y])
            pd_rows.append(p_d)
        row += vehicle.tele_row(state, refs, tele)
        row += [*tele.theta_hat, *tele.gain_diag]
        row += fault_row + [tele.fallback, tele.clamped, tele.rejected]
        rows.append(row)
        s_rows.append(tele.s)

        try:
            state = plant_step(state, u_applied, vehicle.vp, sim.dt_plant,
                               n_sub=n_sub, terrain=terrain)
        except NonFiniteError as e:
            log.warning("plant diverged at t=%.2f: %s", t, e)
            aborted = True
            break
        if not max(abs(v) for v in tuple(vars(state).values())[3:]) < harness._SPEED_ABORT:
            log.warning("state left the trust region at t=%.2f", t)
            aborted = True
            break

    pos_rmse, vel_rmse, cum = compute_metrics(period, s_rows, p_rows, pd_rows)
    result = {
        "ticks": len(rows), "aborted": aborted,
        "position_rmse": pos_rmse, "velocity_rmse": vel_rmse,
        "cum_tracking_error": cum,
        "fallback_ticks": fallback, "clamp_ticks": clamp,
        "rejected_ticks": rejected,
        "feature_clamps": provider.clamp_count - clamp0,
    }
    return result, rows, cols

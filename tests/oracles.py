"""Reference computations that only the tests use.

They restate a quantity the package reports, or one the paper's analysis
uses, from its definition, so that a test can check the program against
it. No code under src calls them.
"""

import dataclasses

import numpy as np

from terradapt.harness import compute_metrics
from terradapt.serialize import read_csv


def as_array(obj) -> np.ndarray:
    """The fields of a state or input dataclass, in order, as a float array."""
    return np.array(dataclasses.astuple(obj), dtype=float)


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

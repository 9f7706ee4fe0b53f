"""Workloads, one timed pass of the pipeline, and the output check.

Every workload is the whole three-stage pipeline (gen-data, train, evaluate)
driven through `terradapt.cli.main`, the entry point users call. The
workloads differ in shape, so each puts most of its time into different
layers:

- offline-tracked: acceptance-shape dataset loop and trainer (2 tracked
  trajectories, hidden [24, 24], 32 windows per iteration, lambda_r = 100);
  the closed-loop evaluate is a single paired run.
- closed-loop-tracked: the acceptance evaluate scenario (velocity-random,
  30 s episodes, constant vs dnn, telemetry off); the dataset and the
  checkpoint's training are short.
- circle-ackermann: the shipped configs/ackermann_circle.yaml (Ackermann
  plant, 2x1 constant basis, per-run telemetry CSVs) with its default
  trainer shape (hidden [64, 64], 70 windows of up to 30 s), cut short.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
import traceback

import yaml

STAGES = ("gen_data", "train", "evaluate")
IDENTITY_FILES = ("dataset.tdc", "basis.tdc", "runs.csv")
QUALITY = ("train.final_loss", "evaluate.cum_err_median", "evaluate.improvement_pct")
# floats may move in their last bits when a change reorders a reduction;
# anything beyond this relative difference is a change of behaviour
QUALITY_RTOL = 1e-6

_CLASSES = [
    {"name": "nominal", "eta": [1.0, 1.0]},
    {"name": "grass", "eta": [0.78, 0.84]},
    {"name": "ice", "eta": [0.55, 0.62]},
]
_ADAPT = {"law": "scalar", "lam": 0.01, "r_diag": [1.0, 1.0],
          "q_diag": [0.1, 0.1, 0.1, 0.1], "gamma0": 0.1, "gamma_max": 0.3}
_SCENARIO = {"kind": "velocity-random", "duration_s": 30.0, "runs": 40,
             "v_range": [0.6, 1.1], "omega_range": [-0.7, 0.7],
             "hold_range_s": [3.0, 6.0], "telemetry": False}
_DATASET = {"steps": 6000, "n_traj": 2, "warmup_s": 1.0, "hold_range_s": [0.5, 2.0]}
_TRAINING = {"learning_rate": 5e-3, "theta_r": [1.0, 1.0, 1.0, 1.0],
             "lambda_r": 100.0, "window_min_s": 1.2, "window_max_s": 4.0,
             "batch_windows": 32, "n_theta": 4, "hidden": [24, 24],
             "max_iters": 1500, "conv_tol": 0.0, "seed": 0}


def _acceptance_raw(root: str) -> dict:
    """The acceptance-test configuration with a checkpoint-driven scenario."""
    return {
        "world": {"layout": "blocks", "classes": copy.deepcopy(_CLASSES)},
        "provider": {"noise_std": 0.02},
        "sim": {"vdot_noise_std": 0.05},
        "dataset": dict(_DATASET),
        "training": dict(_TRAINING),
        "controller": {"variant": "dnn", "checkpoint": "basis.tdc",
                       "adaptation": dict(_ADAPT)},
        "scenario": dict(_SCENARIO),
    }


def _circle_raw(root: str) -> dict:
    with open(os.path.join(root, "configs", "ackermann_circle.yaml")) as f:
        return yaml.safe_load(f)


# name -> (base config, variants with the baseline first and the adaptive
# variant last, per-size overrides of lengths only)
WORKLOADS = {
    "offline-tracked": (_acceptance_raw, ("constant", "dnn"), {
        "full": {"dataset.steps": 3000, "training.max_iters": 100, "scenario.runs": 1},
        "tiny": {"dataset.steps": 120, "training.max_iters": 3, "scenario.runs": 1,
                 "scenario.duration_s": 2.0},
    }),
    "closed-loop-tracked": (_acceptance_raw, ("constant", "dnn"), {
        "full": {"dataset.steps": 500, "training.max_iters": 20, "scenario.runs": 4},
        "tiny": {"dataset.steps": 120, "training.max_iters": 3, "scenario.runs": 1,
                 "scenario.duration_s": 2.0},
    }),
    "circle-ackermann": (_circle_raw, ("pd", "constant"), {
        "full": {"dataset.steps": 8000, "training.max_iters": 10},
        "tiny": {"dataset.steps": 120, "training.max_iters": 2, "scenario.runs": 1,
                 "scenario.duration_s": 2.0},
    }),
}


def workload_config(root: str, workload: str, size: str, seed: int) -> dict:
    """Raw config of a workload; the seed drives the world, data, trainer and runs."""
    base, _, sizes = WORKLOADS[workload]
    raw = base(root)
    raw["seed"] = seed
    for dotted, value in {**sizes[size], "world.seed": seed, "training.seed": seed}.items():
        section, key = dotted.split(".")
        raw.setdefault(section, {})[key] = value
    return raw


def write_config(raw: dict, path: str) -> None:
    with open(path, "w") as f:
        yaml.safe_dump(raw, f, sort_keys=True)


def _call_cli(argv: list) -> bool:
    """One CLI stage call; True when it returned 0. Its stdout is discarded."""
    from terradapt import cli
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) == 0
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def run_pass(cfg_path: str, out_dir: str, variants, tracer=None, calibrate=None) -> dict:
    """Run gen-data, train and evaluate once; returns stage times and failures.

    With `calibrate`, it is also timed before the first stage and after every
    stage, so each stage sits between two calibration samples in "cal".
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    common = ["-c", cfg_path, "--out", out_dir]
    argvs = {"gen_data": ["gen-data", *common], "train": ["train", *common],
             "evaluate": ["evaluate", "--variants", *variants, *common]}
    times, failed = {}, []
    cal = [calibrate()] if calibrate else []
    for stage in STAGES:
        scope = tracer.span(f"stage.{stage}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with scope:
            ok = _call_cli(argvs[stage])
        times[stage] = time.perf_counter() - t0
        if calibrate:
            cal.append(calibrate())
        if not ok:
            failed.append(stage)
    return {"times": times, "failed": failed, "cal": cal}


def _sha256(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _read_json(path: str):
    with open(path) as f:
        return json.load(f)


def digest(out_dir: str, variants) -> dict:
    """Deterministic outputs of one pass, plus the work it did.

    Raises OSError, KeyError or ValueError when an output is missing or
    malformed; the caller counts that as a failed check.
    """
    base, adaptive = variants[0], variants[-1]
    info = _read_json(os.path.join(out_dir, "dataset_info.json"))
    train_info = _read_json(os.path.join(out_dir, "train_info.json"))
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    with open(os.path.join(out_dir, "loss_history.csv")) as f:
        losses = [float(r["loss"]) for r in csv.DictReader(f)]
    with open(os.path.join(out_dir, "runs.csv")) as f:
        runs = [[int(r["run"]), r["variant"], int(r["ticks"]), int(r["aborted"])]
                for r in csv.DictReader(f)]
    block = max(1, len(losses) // 5)
    health_keys = ("aborted", "fallback_ticks", "clamp_ticks", "rejected_ticks",
                   "feature_clamps")
    cum_err = summary["variants"][adaptive]["cum_tracking_error"]
    improvement = summary["improvements"][f"{adaptive}_vs_{base}"]["cum_tracking_error"]
    return {
        "train.final_loss": sum(losses[-block:]) / block,
        "evaluate.cum_err_median": cum_err["median"],
        "evaluate.improvement_pct": improvement["improvement_pct"],
        "runs": runs,
        "health": {v: {k: summary["variants"][v][k] for k in health_keys} for v in variants},
        "sha256": {name: _sha256(os.path.join(out_dir, name))
                   for name in (*IDENTITY_FILES, "summary.json")},
        "samples": info["n_traj"] * info["length"],
        "windows": train_info["iterations"] * train_info["config"]["training"]["batch_windows"],
        "ticks": sum(r[2] for r in runs),
        "episodes": len(runs),
        "aborted": sum(r[3] for r in runs),
    }


def compare(got: dict, want: dict) -> list:
    """Mismatches of `got` against a reference as (stage, message) pairs."""
    bad = []
    for key in QUALITY:
        g, w = got[key], want[key]
        if not (math.isfinite(g) and math.isclose(g, w, rel_tol=QUALITY_RTOL, abs_tol=0.0)):
            bad.append(("train" if key.startswith("train") else "evaluate",
                        f"{key} {g!r} != reference {w!r}"))
    if got["runs"] != want["runs"]:
        bad.append(("evaluate", "runs.csv run/variant/ticks/aborted columns differ"))
    if got["health"] != want["health"]:
        bad.append(("evaluate", f"health counts {got['health']} != reference {want['health']}"))
    return bad


def identical_files(got: dict, want: dict) -> dict:
    """Byte identity of the pipeline artefacts with the reference; not gated."""
    return {name: got["sha256"][name] == want["sha256"][name] for name in IDENTITY_FILES}


def same_outputs(a: dict, b: dict) -> list:
    """Stages whose deterministic outputs differ between two passes of one seed."""
    stages = []
    if a["sha256"]["dataset.tdc"] != b["sha256"]["dataset.tdc"]:
        stages.append("gen_data")
    if a["sha256"]["basis.tdc"] != b["sha256"]["basis.tdc"] or \
            a["train.final_loss"] != b["train.final_loss"]:
        stages.append("train")
    if a["sha256"]["runs.csv"] != b["sha256"]["runs.csv"] or \
            a["sha256"]["summary.json"] != b["sha256"]["summary.json"]:
        stages.append("evaluate")
    return stages


def reference_record(d: dict) -> dict:
    record = {k: d[k] for k in (*QUALITY, "runs", "health")}
    record["sha256"] = {name: d["sha256"][name] for name in IDENTITY_FILES}
    return record

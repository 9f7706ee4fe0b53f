"""terradapt benchmark: one workload per process, metrics on the last line.

    python3 perfbench/run.py --workload offline-tracked --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With --trace 0 the run repeats whole pipeline passes for
--seconds seconds and reports the end-to-end metrics as medians over the
passes. With --trace 1 it alternates untraced and traced passes and reports
per-layer calls, self time and counts, plus the tracing overhead. Either way
it then runs one pass at the reference seed and checks its deterministic
outputs against perfbench/reference.json. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every stage call succeeded, no episode aborted and every output check held.
"""

import os
import sys
import time

# Python's per-process string-hash randomisation changes dict layouts and can
# shift the speed of a whole process; the run re-executes itself (same
# process id) with a fixed hash seed to remove that source of spread.
HASH_SEED = "0"
if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable, *sys.argv])

T_START = time.perf_counter()

# pinned before numpy loads: one BLAS/OpenMP thread keeps the small matrix
# products deterministic and off the other cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import pipeline  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
SETUP_REPEATS = 5
# seconds the calibration loop takes on the machine that timed values are
# scaled to; any fixed value works, since parent and change share it
CAL_REF_S = 0.040
_CAL_SMALL = np.linspace(-0.5, 0.5, 24 * 24).reshape(24, 24)
_CAL_ROWS = np.linspace(-1.0, 1.0, 600 * 72).reshape(600, 72)
_CAL_LAYER = np.linspace(-0.1, 0.1, 72 * 64).reshape(72, 64)

END_TO_END_UNITS = {
    "setup_s": "s",
    "gen_data.samples_per_s": "samples/s",
    "train.windows_per_s": "windows/s",
    "evaluate.ticks_per_s": "ticks/s",
    "stages_s": "s",
    "peak_rss_mb": "MiB",
    "train.final_loss": "loss",
    "evaluate.cum_err_median": "m.s",
    "evaluate.improvement_pct": "%",
}


def import_package():
    """Import terradapt from this checkout's src/, or exit 1 without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "terradapt", "__init__.py")):
        sys.exit(f"error: no terradapt package under {src}")
    if not os.path.isfile(os.path.join(ROOT, "configs", "ackermann_circle.yaml")):
        sys.exit(f"error: no configs/ackermann_circle.yaml under {ROOT}")
    sys.path.insert(0, src)
    import terradapt.cli  # noqa: F401
    if not os.path.abspath(terradapt.cli.__file__).startswith(src + os.sep):
        sys.exit(f"error: terradapt imported from {terradapt.cli.__file__}, not {src}")


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter float work and array products.

    It does not touch terradapt, so a change to the program cannot move it.
    About half of it is scalar Python with small arrays (like the plant and
    controller loops) and half is layer-sized matrix products (like the
    trainer). It is timed before and after every timed stage, because the
    host's speed drifts by tens of percent within a run and between runs.
    """
    v = np.ones(24)
    t0 = time.perf_counter()
    for i in range(2500):
        x = 1e-3 * i
        for _ in range(20):
            x = math.sin(x) + 0.5 * math.cos(x)
        v = np.tanh(_CAL_SMALL @ v + x)
    for _ in range(35):
        h = np.tanh(_CAL_ROWS @ _CAL_LAYER)
        v = _CAL_ROWS.T @ h
    return time.perf_counter() - t0


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """A measured time scaled to the machine on which calibrate() takes CAL_REF_S,
    judging the machine by the calibration samples taken around it."""
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


def environment() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "thread_vars": list(THREAD_VARS),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same stages at toy lengths (self-test)")
    p.add_argument("--reference", default=REFERENCE,
                   help="reference outputs to check against")
    p.add_argument("--record-reference", action="store_true",
                   help="run the reference pass and store its outputs instead of measuring")
    return p.parse_args(argv)


class Run:
    """Book-keeping of one benchmark run: passes, failures and checks."""

    def __init__(self, args, work: str):
        self.args = args
        self.work = work
        self.variants = pipeline.WORKLOADS[args.workload][1]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def config(self, seed: int) -> str:
        path = os.path.join(self.work, f"config_seed{seed}.yaml")
        raw = pipeline.workload_config(ROOT, self.args.workload, self.args.size, seed)
        pipeline.write_config(raw, path)
        return path

    def one_pass(self, cfg_path: str, out_dir: str, tracer=None, calibrate=None):
        """A pass plus its digest; the digest is None when outputs are unusable."""
        p = pipeline.run_pass(cfg_path, out_dir, self.variants, tracer, calibrate)
        self.attempted += len(pipeline.STAGES)
        self.failed += len(p["failed"])
        for stage in p["failed"]:
            self.problems.append(f"stage {stage} failed in {out_dir}")
        d = None
        if not p["failed"]:
            try:
                d = pipeline.digest(out_dir, self.variants)
            except (OSError, KeyError, ValueError, TypeError) as e:
                self.failed += 1
                self.problems.append(f"unreadable outputs in {out_dir}: {e!r}")
        if d is not None:
            self.attempted += d["episodes"]
            self.failed += d["aborted"]
            if d["aborted"]:
                self.problems.append(f"{d['aborted']} aborted episodes in {out_dir}")
        return p, d

    def expect_same(self, first, other, what: str):
        if first is None or other is None:
            return
        for stage in pipeline.same_outputs(first, other):
            self.failed += 1
            self.problems.append(f"{what}: {stage} outputs differ between passes of one seed")


def setup(run: Run, seed: int):
    """Config build and world build, repeated; returns (config path, median s)."""
    from terradapt.config import load_config
    from terradapt.harness import build_world_for
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cfg_path = run.config(seed)
        build_world_for(load_config(cfg_path))
        times.append(time.perf_counter() - t0)
    return cfg_path, statistics.median(times)


def measure(run: Run, cfg_path: str, seconds: float) -> dict:
    """Repeat passes for `seconds`; medians over passes of the scaled stage
    times, the throughputs derived from them and their total."""
    out_dir = os.path.join(run.work, "pass")
    rows, first = [], None
    t_begin = time.perf_counter()
    while True:
        p, d = run.one_pass(cfg_path, out_dir, calibrate=calibrate)
        if d is None:
            break
        first = first or d
        run.expect_same(first, d, "untraced")
        t, cal = p["times"], p["cal"]
        st = {stage: scaled(t[stage], cal[i], cal[i + 1])
              for i, stage in enumerate(pipeline.STAGES)}
        rows.append({"gen_data.samples_per_s": d["samples"] / st["gen_data"],
                     "train.windows_per_s": d["windows"] / st["train"],
                     "evaluate.ticks_per_s": d["ticks"] / st["evaluate"],
                     "stages_s": sum(st.values()),
                     "raw_stages_s": sum(t.values()),
                     "cal_s": statistics.median(cal),
                     "raw": dict(t, cal=cal)})
        if time.perf_counter() - t_begin + rows[-1]["raw_stages_s"] > seconds:
            break
    if not rows:
        return {"passes": 0}
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0] if k != "raw"}
    out["passes"] = len(rows)
    out["raw"] = [r["raw"] for r in rows]
    return out


def trace(run: Run, cfg_path: str, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    tracer = spans.Tracer()
    out_dir = os.path.join(run.work, "pass")
    untraced, traced, first = [], [], None
    t_begin = time.perf_counter()
    while True:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer.install()
            try:
                p, d = run.one_pass(cfg_path, out_dir, tracer if with_trace else None)
            finally:
                tracer.restore()
            first = first or d
            run.expect_same(first, d, "traced vs untraced")
            (traced if with_trace else untraced).append(sum(p["times"].values()))
        pair = untraced[-1] + traced[-1]
        if time.perf_counter() - t_begin + pair > seconds or run.failed:
            break
    tracer.write(os.path.join(run.work, "spans.npz"))
    n = len(traced)

    def per_pass(total):
        q = total / n
        return int(q) if float(q).is_integer() else q

    layers, per_stage = tracer.self_times()
    metrics = {}
    for name in spans.LAYERS:
        calls, self_s = layers.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (per_pass(calls), "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
    for name, unit in spans.COUNTS.items():
        metrics[name] = (per_pass(tracer.counts[name]), unit)
    attempted = tracer.counts["control.adapt.attempted"]
    ratio = tracer.counts["control.adapt.accepted"] / attempted if attempted else 0.0
    metrics["control.adapt.accepted_ratio"] = (ratio, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    shares = {stage: {k: round(v / total, 4) for k, v in sorted(
        layer.items(), key=lambda kv: -kv[1])} for stage, layer in per_stage.items()
        if (total := sum(layer.values())) > 0}
    with open(os.path.join(run.work, "trace_summary.json"), "w") as f:
        json.dump({"traced_passes": n, "untraced_stages_s": untraced,
                   "traced_stages_s": traced, "missing_sites": tracer.missing,
                   "self_time_share_by_stage": shares}, f, indent=2, sort_keys=True)
    stage_totals = {stage: sum(layer.values()) for stage, layer in per_stage.items()}
    print("  traced pass time by stage: " + ", ".join(
        f"{stage} {t / sum(stage_totals.values()):.1%}" for stage, t in stage_totals.items()))
    for stage, share in shares.items():
        top = ", ".join(f"{k} {v:.1%}" for k, v in list(share.items())[:8])
        print(f"  {stage} self-time shares: {top}")
    if tracer.missing:
        print(f"  call sites not found: {', '.join(tracer.missing)}")
    return metrics


def check_reference(run: Run, reference: dict) -> dict:
    """One pass at the reference seed, compared with the recorded outputs."""
    cfg_path = run.config(REFERENCE_SEED)
    _, d = run.one_pass(cfg_path, os.path.join(run.work, "reference"))
    want = reference.get(run.args.size, {}).get(run.args.workload)
    if d is None:
        return {}
    if want is None:
        run.failed += 1
        run.problems.append(f"no reference for {run.args.size}/{run.args.workload}")
        return d
    for stage, message in pipeline.compare(d, want):
        run.failed += 1
        run.problems.append(f"reference check ({stage}): {message}")
    d["identical"] = pipeline.identical_files(d, want)
    return d


def record_reference(run: Run):
    cfg_path = run.config(REFERENCE_SEED)
    _, d = run.one_pass(cfg_path, os.path.join(run.work, "reference"))
    if d is None or run.failed:
        sys.exit("error: reference pass failed: " + "; ".join(run.problems))
    try:
        with open(run.args.reference) as f:
            stored = json.load(f)
    except FileNotFoundError:
        stored = {}
    stored.setdefault(run.args.size, {})[run.args.workload] = pipeline.reference_record(d)
    with open(run.args.reference, "w") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {run.args.size}/{run.args.workload} into {run.args.reference}")


def end_to_end(setup_s: float, m: dict, ref: dict) -> dict:
    metrics = {"setup_s": setup_s}
    if m["passes"]:
        for key in ("gen_data.samples_per_s", "train.windows_per_s",
                    "evaluate.ticks_per_s", "stages_s"):
            metrics[key] = m[key]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for key in pipeline.QUALITY:
        if key in ref:
            metrics[key] = ref[key]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import_s = time.perf_counter() - T_START
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.size}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(args, work)
    if args.record_reference:
        record_reference(run)
        return 0
    with open(args.reference) as f:
        reference = json.load(f)
    print(f"terradapt benchmark: workload={args.workload} seed={args.seed} "
          f"size={args.size} trace={args.trace}")

    calibrate()  # the first call pays numpy's lazy set-up
    cal_before = calibrate()
    cfg_path, config_s = setup(run, args.seed)
    raw_setup_s = import_s + config_s
    setup_s = scaled(raw_setup_s, cal_before, calibrate())
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "seconds": args.seconds, "environment": environment()}
    print("  environment: " + json.dumps(record["environment"], sort_keys=True))
    if args.trace:
        metrics = trace(run, cfg_path, args.seconds)
        ref = check_reference(run, reference)
    else:
        m = measure(run, cfg_path, args.seconds)
        ref = check_reference(run, reference)
        metrics = end_to_end(setup_s, m, ref)
        record.update({"passes": m["passes"], "raw_setup_s": raw_setup_s,
                       "raw_stages_s": m.get("raw_stages_s"), "cal_s": m.get("cal_s"),
                       "cal_ref_s": CAL_REF_S, "raw_passes": m.get("raw")})
        if m["passes"]:
            print(f"  passes measured: {m['passes']}; as measured: setup {raw_setup_s:.4f} s, "
                  f"stages {m['raw_stages_s']:.4f} s, calibration loop {m['cal_s'] * 1e3:.2f} ms "
                  f"(times below are scaled to {CAL_REF_S * 1e3:.0f} ms)")

    correct = run.failed == 0
    record.update({"problems": run.problems, "identical_to_reference": ref.get("identical"),
                   "failed_frac": {"value": run.failed / max(run.attempted, 1),
                                   "failed": run.failed, "attempted": run.attempted}})
    with open(os.path.join(work, "run_record.json"), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)

    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    ff = record["failed_frac"]
    print(f"  {'failed_frac':40s} {ff['value']:.6g} ratio "
          f"({ff['failed']} failed of {ff['attempted']} episodes + stage calls)")
    if ref.get("identical") is not None:
        print("  byte-identical to reference: " + ", ".join(
            f"{k}={'yes' if v else 'no'}" for k, v in ref["identical"].items()))
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

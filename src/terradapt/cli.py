"""Command-line entry points.

    terradapt gen-data -c cfg.yaml     drive the plant, record a dataset
    terradapt train -c cfg.yaml        meta-train the basis network
    terradapt simulate -c cfg.yaml     run the configured scenario
    terradapt evaluate -c cfg.yaml --variants pd dnn   paired comparison

Without an install, `python -m terradapt <command> ...` runs the same
commands (with `src` on PYTHONPATH).

All commands exit 0 on success. Failures print a single JSON object
{"error": ..., "message": ...} to stderr and exit 2 for configuration
problems or 1 for runtime errors. Output locations: config output_dir,
overridden by $TERRADAPT_OUT, overridden by --out.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import __version__
from .config import ConfigError, load_config, config_to_dict
from .harness import (build_world_for, generate_dataset, resolve_path,
                      run_scenario)
from .serialize import ContainerError, write_json
from .training import DivergenceError, TrajectoryDataset, train, write_loss_history
from .world import linear_margin_stats, save_world


def _out_dir(cfg, args) -> str:
    out = args.out or cfg.resolved_output_dir()
    os.makedirs(out, exist_ok=True)
    return out


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    world = build_world_for(cfg, out)
    dataset = generate_dataset(cfg, world)
    ds_path = resolve_path(cfg.dataset.file, out)
    dataset.save(ds_path, meta={"seed": cfg.seed, "vehicle": cfg.vehicle.type})
    world_path = os.path.join(out, "world.tdc")
    save_world(world_path, world)
    # sidecars carry basenames so two runs into different out dirs stay byte-identical
    write_json(os.path.join(out, "dataset_info.json"), {
        "dataset": os.path.basename(ds_path),
        "world": os.path.basename(world_path),
        "n_traj": dataset.n_traj,
        "length": dataset.length,
        "dims": {"x": dataset.x.shape[2], "u": dataset.u.shape[2],
                 "e": dataset.e.shape[2], "y": dataset.y.shape[2]},
        "separation": linear_margin_stats(world),
        "config": config_to_dict(cfg),
        "package_version": __version__,
    })
    print(f"dataset: {ds_path} ({dataset.n_traj} x {dataset.length} samples)")
    print(f"world:   {world_path}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    ds_path = resolve_path(cfg.dataset.file, out)
    dataset = TrajectoryDataset.load(ds_path)
    result = train(dataset, cfg.training)
    ckpt = resolve_path(cfg.controller.checkpoint, out)
    result.net.save(ckpt, extra_meta={
        "theta_r": list(cfg.training.theta_r),
        "train_seed": cfg.training.seed,
        "iterations": result.iterations,
        "converged": result.converged,
    })
    loss_path = os.path.join(out, "loss_history.csv")
    write_loss_history(loss_path, result.history)
    write_json(os.path.join(out, "train_info.json"), {
        "checkpoint": os.path.basename(ckpt),
        "loss_history": os.path.basename(loss_path),
        "iterations": result.iterations,
        "converged": result.converged,
        "final_loss": result.history[-1]["loss"] if result.history else None,
        "lipschitz_bound": result.net.lipschitz_bound(),
        "config": config_to_dict(cfg),
        "package_version": __version__,
    })
    status = "converged" if result.converged else "hit the iteration cap"
    print(f"training {status} after {result.iterations} iterations")
    print(f"checkpoint: {ckpt}")
    print(f"loss history: {loss_path}")
    return 0


def cmd_scenario(args) -> int:
    """simulate (one variant, controller.variant by default) and evaluate;
    run_scenario checks the variant names before it makes the output dir."""
    cfg = load_config(args.config)
    variants = args.variants or [args.variant or cfg.controller.variant]
    summary = run_scenario(cfg, variants, args.out or cfg.resolved_output_dir())
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="terradapt",
                                description="terrain-adaptive control testbench")
    p.add_argument("--version", action="version", version=f"terradapt {__version__}")
    p.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", required=True, help="YAML config file")
    common.add_argument("--out", default=None, help="override the output directory")

    sp = sub.add_parser("gen-data", parents=[common],
                        help="record a residual dataset by driving the plant")
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", parents=[common],
                        help="meta-train the basis network on a dataset")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("simulate", parents=[common],
                        help="run the configured scenario for one variant")
    sp.add_argument("--variant", default=None,
                    help="override controller.variant from the config")
    sp.set_defaults(func=cmd_scenario, variants=None)

    sp = sub.add_parser("evaluate", parents=[common],
                        help="paired comparison of controller variants")
    sp.add_argument("--variants", nargs="+", required=True,
                    help="variants to compare; the first is the baseline")
    sp.set_defaults(func=cmd_scenario)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as e:
        json.dump({"error": "ConfigError", "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ContainerError, DivergenceError, FileNotFoundError, ValueError, OSError) as e:
        json.dump({"error": type(e).__name__, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

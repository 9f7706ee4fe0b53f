"""Golden output digests: the shipped pipelines still write the same bytes.

Three output trees are rebuilt through the CLI and every file in them is
hashed (SHA-256); `loss_history.csv` is hashed without its `wall_time_s`
column, the one timing an output carries. The digests are compared with
`tests/golden_digests.json`:

- quickstart: `gen-data`, `train`, `evaluate --variants pd constant dnn`;
- ackermann_circle: `evaluate --variants pd constant`;
- quickstart-matrix: quickstart with the figure8 reference, a `track-square`
  fault and `law: matrix`, through the same three commands as quickstart.

Floating-point results depend on numpy, on the BLAS and its kernel, and on
the platform, so the file records all three; on another one the test fails
and names what differs. A change meant to move the outputs re-records the
file and says so:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np
import yaml

from terradapt import cli

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")
GOLDEN = os.path.join(HERE, "golden_digests.json")
TIMING_COLUMNS = {"loss_history.csv": "wall_time_s"}


def _blas() -> str:
    """The BLAS numpy was built with and, for the OpenBLAS that numpy's wheels
    bundle, the kernel it picked for this CPU at run time: kernels round
    differently."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return f"{name} ({corename().decode()})"
    return name


def environment() -> dict:
    return {"numpy": np.__version__, "blas": _blas(),
            "platform": f"{sys.platform}-{platform.machine()}"}


def _config(name: str, **overrides) -> dict:
    """A shipped config with its output_dir fixed (the sidecars record it)
    and the dotted keys of overrides set."""
    with open(os.path.join(CONFIGS, name)) as f:
        raw = yaml.safe_load(f)
    raw["output_dir"] = "out/golden"
    for dotted, value in overrides.items():
        *outer, key = dotted.split(".")
        node = raw
        for part in outer:
            node = node.setdefault(part, {})
        node[key] = value
    return raw


_PIPELINE = [["gen-data"], ["train"], ["evaluate", "--variants", "pd", "constant", "dnn"]]

TREES = {
    "quickstart": (_config("quickstart.yaml"), _PIPELINE),
    "ackermann_circle": (_config("ackermann_circle.yaml"),
                         [["evaluate", "--variants", "pd", "constant"]]),
    "quickstart-matrix": (_config("quickstart.yaml", **{
        "scenario.kind": "figure8",
        "scenario.fault.kind": "track-square",
        "controller.adaptation.law": "matrix"}), _PIPELINE),
}


def build_tree(name: str, out: str) -> None:
    """Run one tree's commands into out."""
    raw, commands = TREES[name]
    os.makedirs(out, exist_ok=True)
    cfg_path = os.path.join(out, os.pardir, f"{name}.yaml")
    with open(cfg_path, "w") as f:
        yaml.safe_dump(raw, f)
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command[0], "-c", cfg_path, "--out", out, *command[1:]])
        if code != 0:
            raise RuntimeError(f"{name}: `{' '.join(command)}` exited {code}")


def _content(path: str) -> bytes:
    with open(path, "rb") as f:
        data = f.read()
    column = TIMING_COLUMNS.get(os.path.basename(path))
    if column is None:
        return data
    lines = data.decode().splitlines()
    drop = lines[0].split(",").index(column)
    kept = [",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines]
    return "\n".join(kept).encode()


def digest_tree(out: str) -> dict:
    """SHA-256 of every file under out, keyed by its path relative to out."""
    digests = {}
    for root, _, files in os.walk(out):
        for fname in files:
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, out).replace(os.sep, "/")
            digests[rel] = hashlib.sha256(_content(path)).hexdigest()
    return dict(sorted(digests.items()))


def digest_all(work: str) -> dict:
    trees = {}
    for name in TREES:
        out = os.path.join(work, name, "out")
        build_tree(name, out)
        trees[name] = digest_tree(out)
    return trees


def differences(want: dict, got: dict) -> list[str]:
    """One line per differing, missing or unexpected file."""
    lines = []
    for tree in sorted(set(want) | set(got)):
        w, g = want.get(tree, {}), got.get(tree, {})
        for rel in sorted(set(w) | set(g)):
            if rel not in g:
                lines.append(f"{tree}/{rel}: missing")
            elif rel not in w:
                lines.append(f"{tree}/{rel}: not in the golden digests")
            elif w[rel] != g[rel]:
                lines.append(f"{tree}/{rel}: differs")
    return lines


def test_output_trees_match_golden_digests(tmp_path):
    with open(GOLDEN) as f:
        golden = json.load(f)
    env = environment()
    mismatched = {k: (golden["environment"].get(k), v) for k, v in env.items()
                  if golden["environment"].get(k) != v}
    assert not mismatched, (
        "the golden digests were recorded on another numpy, BLAS or platform "
        f"(recorded, here): {mismatched}; re-record them with "
        "`python tests/test_golden.py --record` on a checkout whose outputs are "
        "known to be right")
    diff = differences(golden["trees"], digest_all(str(tmp_path)))
    assert not diff, "output trees differ from tests/golden_digests.json:\n" + "\n".join(diff)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--record", action="store_true",
                   help="rebuild the trees and write their digests to golden_digests.json")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        trees = digest_all(work)
    if not args.record:
        with open(GOLDEN) as f:
            diff = differences(json.load(f)["trees"], trees)
        print("\n".join(diff) if diff else "all trees match")
        return 1 if diff else 0
    with open(GOLDEN, "w") as f:
        json.dump({"environment": environment(), "trees": trees}, f, indent=2)
        f.write("\n")
    print(f"recorded {sum(map(len, trees.values()))} files in {len(trees)} trees")
    return 0


if __name__ == "__main__":
    sys.exit(main())

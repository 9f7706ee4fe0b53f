"""Per-layer tracing from outside the program.

The tracer replaces named functions of the terradapt modules with wrappers
that record one span per call (layer name, parent span, start, end) in
memory. Nothing inside the package changes: every wrapper is installed on
the name the caller looks up at call time. `harness` imports
`integrate_step`, `tracked_derivative` and `eta_under_robot` by name, and
`training` imports `cho_factor` / `cho_solve` by name, so those are patched
in the importing module; patching only the defining module would record
nothing.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

import numpy as np


def _rows(out) -> int:
    phi = out[0] if isinstance(out, tuple) else out
    return int(phi.shape[0])


def _count_rows(tracer, name, args, out):
    tracer.add(name + ".rows", _rows(out))


def _count_csv_rows(tracer, name, args, out):
    tracer.add(name + ".rows", len(args[2]))


def _count_file_bytes(tracer, name, args, out):
    tracer.add(name + ".bytes", os.path.getsize(args[0]))


def _count_tick(tracer, name, args, out):
    tele = out[1]
    tracer.add("control.fallback_ticks", int(tele.fallback))
    tracer.add("control.clamp_ticks", int(tele.clamped))


def _count_adapt(tracer, name, args, out):
    tracer.add("control.adapt.attempted", 1)
    tracer.add("control.adapt.accepted", int(not out[1]))


def _count_clamp(tracer, name, args, out):
    tracer.add("world.feature_clamps", int(out[1]))


# layer name -> (call sites as "module:attribute path", counter or None)
LAYERS = {
    "vehicles.integrate_step": (["terradapt.harness:integrate_step"], None),
    "vehicles.derivative": (["terradapt.harness:tracked_derivative",
                             "terradapt.harness:ackermann_derivative"], None),
    "world.eta_under_robot": (["terradapt.harness:eta_under_robot"], None),
    "world.features_under_robot": (
        ["terradapt.world:FeatureProvider.features_under_robot"], None),
    "basis.eval": (["terradapt.basis:BasisNet.eval",
                    "terradapt.basis:ConstantBasis.eval"], None),
    "basis.forward_batch": (["terradapt.basis:BasisNet.forward_batch"], _count_rows),
    "basis.backward": (["terradapt.basis:BasisNet.backward"], None),
    "basis.spectral_normalize": (["terradapt.basis:BasisNet.spectral_normalize"], None),
    "control.tick": (["terradapt.control:TrackedController.tick_velocity",
                      "terradapt.control:TrackedController.tick_position",
                      "terradapt.control:AckermannController.tick"], _count_tick),
    "control.law": (["terradapt.control:control_tracked",
                     "terradapt.control:control_ackermann"], None),
    "control.adapt_step": (["terradapt.control:adapt_step_scalar",
                            "terradapt.control:adapt_step_matrix"], _count_adapt),
    "control.residual": (["terradapt.control:ResidualFilter.residual"], None),
    "training.train_step": (["terradapt.training:train_step"], None),
    "training.sample_window": (["terradapt.training:sample_window"], None),
    "training.window_cost_and_grad": (["terradapt.training:window_cost_and_grad"], None),
    "training.ridge": (["terradapt.training:cho_factor",
                        "terradapt.training:cho_solve"], None),
    "training.adam": (["terradapt.training:Adam.step"], None),
    "harness.episode": (["terradapt.harness:simulate_tracked",
                         "terradapt.harness:simulate_ackermann"], None),
    "harness.generate_dataset": (["terradapt.cli:generate_dataset"], None),
    "harness.run_scenario": (["terradapt.cli:run_scenario"], None),
    "harness.summarize_results": (["terradapt.harness:summarize_results"], None),
    "serialize.write_csv": (["terradapt.harness:write_csv",
                             "terradapt.training:write_csv"], _count_csv_rows),
    "serialize.save_arrays": (["terradapt.basis:save_arrays",
                               "terradapt.training:save_arrays",
                               "terradapt.world:save_arrays"], _count_file_bytes),
    "serialize.load_arrays": (["terradapt.basis:load_arrays",
                               "terradapt.training:load_arrays",
                               "terradapt.world:load_arrays"], _count_file_bytes),
    "config.load_config": (["terradapt.cli:load_config"], None),
}

# counted without a span: FeatureProvider calls this module function and
# bumps its clamp counter when the returned flag is set
TALLIES = {"world.feature_clamps": (["terradapt.world:features_under_robot"], _count_clamp)}

# reported counts and their units; "control.adapt.accepted" is kept for the
# accepted ratio only
COUNTS = {"basis.forward_batch.rows": "rows", "serialize.write_csv.rows": "rows",
          "serialize.save_arrays.bytes": "bytes", "serialize.load_arrays.bytes": "bytes",
          "world.feature_clamps": "count", "control.fallback_ticks": "count",
          "control.clamp_ticks": "count", "control.adapt.attempted": "count"}


def _resolve(site: str):
    module, path = site.split(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None, attr
    return owner, attr


class Tracer:
    """Records spans and counts while installed; restore() undoes every patch."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []     # [name id, parent span index, start, end]
        self.counts: dict[str, float] = {c: 0 for c in (*COUNTS, "control.adapt.accepted")}
        self.missing: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        i = len(spans)
        record = [self._id(name), stack[-1] if stack else -1, 0.0, 0.0]
        spans.append(record)
        stack.append(i)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def _wrap(self, name, fn, counter, with_span: bool):
        nid = self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if with_span:
                i = len(spans)
                record = [nid, stack[-1] if stack else -1, 0.0, 0.0]
                spans.append(record)
                stack.append(i)
                record[2] = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[3] = clock()
                    stack.pop()
            else:
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self, name, args, out)
            return out

        return traced

    def install(self) -> None:
        self.missing = []
        for table, with_span in ((LAYERS, True), (TALLIES, False)):
            for name, (sites, counter) in table.items():
                self._id(name)
                for site in sites:
                    owner, attr = _resolve(site)
                    if owner is None:
                        self.missing.append(site)
                        continue
                    original = vars(owner)[attr]
                    setattr(owner, attr, self._wrap(name, original, counter, with_span))
                    self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        a = np.array(self.spans, dtype=float).reshape(-1, 4)
        return a[:, 0].astype(np.int64), a[:, 1].astype(np.int64), a[:, 2], a[:, 3]

    def self_times(self, stage_prefix: str = "stage."):
        """(per-layer {name: (calls, self_s)}, per-stage {stage: {name: self_s}})."""
        ids, parent, t0, t1 = self.arrays()
        n_names = len(self.names)
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        calls = np.bincount(ids, minlength=n_names)
        self_s = np.bincount(ids, weights=own, minlength=n_names)
        layers = {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

        # spans start in index order and stage spans are top level, so each
        # span belongs to the last stage span opened at or before it
        stage_ids = [i for i, name in enumerate(self.names) if name.startswith(stage_prefix)]
        is_stage = np.isin(ids, stage_ids)
        stage_rows = np.flatnonzero(is_stage)
        per_stage = {}
        if stage_rows.size:
            owner = stage_rows[np.searchsorted(stage_rows, np.arange(len(ids)), "right") - 1]
            owner_name = ids[owner]
            for sid in stage_ids:
                rows = (owner_name == sid) & (np.arange(len(ids)) >= stage_rows[0])
                per = np.bincount(ids[rows], weights=own[rows], minlength=n_names)
                per_stage[self.names[sid]] = {self.names[i]: float(per[i])
                                              for i in range(n_names) if per[i] != 0.0}
        return layers, per_stage

    def write(self, path: str) -> None:
        ids, parent, t0, t1 = self.arrays()
        np.savez_compressed(path, name_id=ids, parent=parent, start=t0, end=t1,
                            names=np.array(self.names))

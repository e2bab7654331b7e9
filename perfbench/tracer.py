"""Span tracer for the traced run.

``Tracer.install`` replaces the public entry points of each qkinopt module
with wrappers, at the name the caller actually looks up: ``harness`` imports
``build_cost_table``, ``train`` and ``decode_all`` by name, ``qml`` imports
``fk_*`` and ``decode_all`` by name, and ``grover``, ``qsim`` and the CLI call
module attributes. Each call records one span (name, start, end, parent span,
op id) in flat in-memory arrays; ``save`` writes them out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Counter-only wrappers count calls without a span, so their time stays with
the enclosing span: the batched forward pass stays inside ``qml.loss`` and
``qml.gradient``, threshold counting inside ``grover.ladder``, and objective
evaluations inside the optimizer that asked for them.
"""

from __future__ import annotations

import collections
import functools
import statistics
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

GLUE_MODULES = ("harness.", "cli.")  # self time outside the leaf modules


def _rows(result) -> int:
    """Rows of a batched result: (B, k) arrays, or a tuple of them (fk_dual)."""
    first = result[0] if isinstance(result, tuple) else result
    return int(np.prod(np.shape(first)[:-1]))


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.counts: collections.Counter = collections.Counter()
        self.op = -1  # id of the op now running; set by the caller
        self._stack: list = []
        self._patches: list = []

    # --- wrappers ---------------------------------------------------------------

    def span(self, name: str, fn: Callable,
             count: Optional[Callable[[collections.Counter, tuple, object], None]] = None):
        """Wrap fn so that each call records a span; count(counts, args, result)
        may add exact work counts."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def counter(self, key: str, fn: Callable):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # --- install / remove -------------------------------------------------------------

    def install(self) -> None:
        from qkinopt import baselines, cli, grover, harness, qml, qsim

        def rows(key):
            def count(counts, args, result):
                counts[key] += _rows(result)
            return count

        def amplification(counts, args, result):
            counts["grover.oracle_rounds"] += args[2]
            counts["grover.amp_updates"] += args[2] * result.amps.size

        spans = [
            (harness, "decode_all", "encoding.decode_all", rows("encoding.decode_all.rows")),
            (qml, "decode_all", "encoding.decode_all", rows("encoding.decode_all.rows")),
            (baselines, "decode_all", "encoding.decode_all", rows("encoding.decode_all.rows")),
            (qml, "fk_one", "kinematics.fk", rows("kinematics.fk.rows")),
            (qml, "fk_two", "kinematics.fk", rows("kinematics.fk.rows")),
            (qml, "fk_dual", "kinematics.fk", rows("kinematics.fk.rows")),
            (harness, "build_cost_table", "qml.build_cost_table", None),
            (harness, "train", "qml.train", None),
            (qml, "loss", "qml.loss", None),
            (qml, "gradient", "qml.gradient", None),
            (qsim, "apply_single_qubit", "qsim.apply_single_qubit", None),
            (qsim, "apply_cnot", "qsim.apply_cnot", None),
            (qsim, "measure", "qsim.measure", None),
            (qsim, "expectation_diagonal", "qsim.expectation_diagonal", None),
            (grover, "search_with_state", "grover.search", None),
            (grover, "amplified_state", "grover.amplified_state", amplification),
            (grover, "shrink_schedule", "grover.ladder", None),
            (grover, "minimal_epsilon", "grover.ladder", None),
            (grover, "verify", "grover.verify", None),
            (baselines, "nelder_mead", "baselines.nelder_mead", None),
            (baselines, "quasi_newton", "baselines.quasi_newton", None),
            (baselines, "pso", "baselines.pso", None),
            (baselines, "exhaustive_scan", "baselines.exhaustive_scan", None),
            (harness, "run_case", "harness.run_case", None),
            (harness, "run_baselines", "harness.run_baselines", None),
            (harness, "sweep", "harness.sweep", None),
            (harness, "_actual_error_table", "harness.error_table", None),
            (harness, "emit_report", "harness.emit_report", None),
            (cli, "main", "cli.main", None),
        ]
        for owner, attr, name, count in spans:
            self._patch(owner, attr, self.span(name, getattr(owner, attr), count))
        for owner, attr, key in [
            (qml, "_predict_batch", "qml.forward_passes"),
            (grover, "count_solutions", "grover.count_solutions.calls"),
            (baselines.Objective, "evaluate", "baselines.evaluations"),
        ]:
            self._patch(owner, attr, self.counter(key, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------------------

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 start=self.start, end=self.end, parent=self.parent, op_id=self.op_id)

    def self_times(self):
        """(self seconds, total seconds, calls) per span name, as dicts."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        n = len(self.names)
        own = np.bincount(nid, weights=dur - covered, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        calls = np.bincount(nid, minlength=n)
        return ({name: float(own[i]) for i, name in enumerate(self.names)},
                {name: float(total[i]) for i, name in enumerate(self.names)},
                {name: int(calls[i]) for i, name in enumerate(self.names)})

    def layer_metrics(self, cycle_seconds) -> Dict[str, float]:
        """Per-layer metrics per workload cycle, given the traced wall time of
        each cycle."""
        own, total, calls = self.self_times()
        cycles, wall = len(cycle_seconds), sum(cycle_seconds)
        counts = self.counts

        def per_cycle(value):
            if isinstance(value, int) and value % cycles == 0:
                return value // cycles
            return value / cycles

        out = {f"{name}.s": per_cycle(own[name]) for name in self.names}
        for name in ("encoding.decode_all", "kinematics.fk", "qml.build_cost_table",
                     "qsim.apply_single_qubit", "qsim.apply_cnot"):
            out[f"{name}.calls"] = per_cycle(calls[name])
        for key in ("encoding.decode_all.rows", "kinematics.fk.rows", "qml.forward_passes",
                    "grover.oracle_rounds", "grover.amp_updates",
                    "grover.count_solutions.calls", "baselines.evaluations"):
            out[key] = per_cycle(int(counts[key]))
        epochs = calls["qml.gradient"]  # one gradient per epoch
        out["qml.epochs"] = per_cycle(epochs)
        out["qml.epoch_ms"] = 1e3 * total["qml.train"] / epochs if epochs else 0.0
        out["grover.searches"] = per_cycle(calls["grover.amplified_state"])
        updates = counts["grover.amp_updates"]
        out["grover.amp_ns_per_update"] = (
            1e9 * own["grover.amplified_state"] / updates if updates else 0.0)
        evaluations = counts["baselines.evaluations"]
        optimizers = sum(total[f"baselines.{m}"] for m in ("nelder_mead", "quasi_newton", "pso"))
        out["baselines.eval_us"] = 1e6 * optimizers / evaluations if evaluations else 0.0
        leaf = sum(t for name, t in own.items() if not name.startswith(GLUE_MODULES))
        out["trace.wall_s"] = statistics.median(cycle_seconds)
        out["trace.leaf_frac"] = leaf / wall
        return out

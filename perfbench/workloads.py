"""The benchmark's workloads: the configs they generate, the ops of one cycle,
and the output checks that run after the timed section.

Every op is one in-process ``qkinopt.cli.main`` call on a config file that
the benchmark writes from ``CONFIGS`` below. The three case configs are
copies of the shipped ``configs/*.json`` (a test keeps them equal), so the
workloads stay fixed when a later change edits the shipped files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi
FIT_RADIUS_M = 0.1  # criterion 5c: a prediction within 0.1 m of the analytic FK
TABLE_CHUNK = 1 << 20  # rows per step of the independent table minimum
COUNTS = ("oracle_rounds", "evaluations", "epochs")  # work counts the emitted files carry


def _param(name: str, lo: float, hi: float, qubits: int, angular: bool) -> dict:
    return {"name": name, "min": lo, "max": hi, "qubits": qubits, "angular": angular}


def _case(case: str, params: list, model: dict, task: dict, **qml) -> dict:
    return {
        "case": case, "mode": "analytic", "seed": 0, "shots": 10000,
        "params": params, "model": model, "task": task,
        "weights": {"alpha_p": 1.0, "alpha_R": 0.0, "epsilon": None},
        "search": {"epsilon0": None, "shrink": 0.5, "refine": True},
        "qml": {"n_qubits": None, "n_layers": 2, "epochs": 200, "learning_rate": 0.1,
                "train_seed": 0, "training_samples": None, **qml},
        "baselines": {"max_evals": 4000, "n_starts": 5, "swarm_size": 30,
                      "pso_iterations": 200, "seed": 0},
    }


_ONE_DOF = ("one_dof",
            [_param("l1", 0.1, 2.0, 5, False), _param("theta1", 0.0, TWO_PI, 5, True)],
            {"type": "one_link", "l1": 1.0},
            {"type": "position", "target": [0.8, 0.6], "phi": None, "tolerance": None})

CONFIGS: Dict[str, dict] = {
    "one_dof": _case(*_ONE_DOF),
    "two_dof": _case(
        "two_dof",
        [_param("theta1", 0.0, TWO_PI, 4, True), _param("theta2", 0.0, TWO_PI, 4, True),
         _param("l1", 0.1, 2.0, 4, False), _param("l2", 0.1, 2.0, 4, False)],
        {"type": "two_link", "l1": 1.0, "l2": 1.0},
        {"type": "position", "target": [1.0, 1.0], "phi": None, "tolerance": None}),
    "dual_arm": _case(
        "dual_arm",
        [_param(n, 0.0, TWO_PI, 4, True) for n in ("theta11", "theta12", "theta21", "theta22")],
        {"type": "dual_arm", "base1": [-0.8, 0.0], "base2": [0.8, 0.0],
         "links1": [1.0, 1.0], "links2": [1.0, 1.0]},
        {"type": "grasp", "center": [0.0, 1.2], "radius": 0.3, "axis": 0.0,
         "tolerance": None}),
    # criterion 5's training fixture: 4 qubits, 2 layers, 500 epochs at 0.3, seed 185
    "surrogate_fit": _case(*_ONE_DOF, n_qubits=4, n_layers=2, epochs=500,
                           learning_rate=0.3, train_seed=185),
}


@dataclass(frozen=True)
class Op:
    """One ``qkinopt`` command line; its outputs go to a fresh directory."""

    command: str
    config: str                   # key of CONFIGS
    qubits: Optional[int] = None  # --qubits-per-param
    sweep: Tuple[int, ...] = ()   # --qubits, for the sweep command
    mode: Optional[str] = None    # --mode

    @property
    def seeded(self) -> bool:
        """The sweep draws no measurement, so it takes no seed."""
        return self.command != "sweep"

    def argv(self, config_path: Path, out: Path, seed: Optional[int]) -> List[str]:
        argv = [self.command, "--config", str(config_path), "--out", str(out)]
        if self.qubits is not None:
            argv += ["--qubits-per-param", str(self.qubits)]
        if self.sweep:
            argv += ["--qubits", ",".join(str(q) for q in self.sweep)]
        if self.mode is not None:
            argv += ["--mode", self.mode]
        if seed is not None:
            argv += ["--seed", str(seed)]
        return argv


# One cycle of each workload; a run repeats whole cycles.
WORKLOADS: Dict[str, Tuple[Op, ...]] = {
    "search_n20": (Op("run", "two_dof", qubits=5),),
    "sweep_n24": (Op("sweep", "two_dof", sweep=(3, 4, 5, 6)),),
    "compare_mix": tuple(Op("compare", case) for case in ("one_dof", "two_dof", "dual_arm")),
    "surrogate_fit": (Op("run", "surrogate_fit", qubits=3, mode="surrogate"),),
}


# How each workload's op times are calibrated (see calibrate.py). Sampling
# during the op suits ops bound by interpreted Python and numpy call
# overhead, and ops of 10 s and more, which outlast a spell of host
# contention. sweep_n24 streams tables of 2^24 rows through memory: samples
# of small numpy calls taken during its ops made its runs spread wider, so
# it is calibrated by the memory kernels between its 5 s ops.
DURING, BETWEEN = "during", "between"
CALIBRATION: Dict[str, str] = {
    "search_n20": DURING,
    "sweep_n24": BETWEEN,
    "compare_mix": DURING,
    "surrogate_fit": DURING,
}


def write_configs(ops: Sequence[Op], directory: Path) -> Dict[str, Path]:
    """Write the configs the ops use; returns config name -> path."""
    paths = {}
    for name in sorted({op.config for op in ops}):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(CONFIGS[name], indent=2, sort_keys=True) + "\n")
        paths[name] = path
    return paths


# --- output checks (pure: each returns a list of errors, empty when correct) ----

def check_optimum(report: dict, grid_minimum: float) -> List[str]:
    """The answer's analytic cost is the exhaustive grid minimum, bit for bit,
    and the answer passed verification (criterion 2's rule)."""
    errors = []
    if report["analytic_best_cost"] != grid_minimum:
        errors.append(f"analytic cost {report['analytic_best_cost']!r} is not the "
                      f"grid minimum {grid_minimum!r}")
    if report["result"]["accepted"] is not True:
        errors.append("answer not accepted")
    return errors


def check_sweep(rows: Sequence[dict], minima: Dict[int, float], iteration_count) -> List[str]:
    """Each row's K follows the iteration formula for its (M, m), and its
    min_cost matches an independently computed table minimum."""
    errors = []
    seen = sorted(int(row["qubits_per_param"]) for row in rows)
    if seen != sorted(minima):
        errors.append(f"rows for qubits {seen}, expected {sorted(minima)}")
    for row in rows:
        q = int(row["qubits_per_param"])
        expected = iteration_count(int(row["space_size"]), int(row["solutions"]))
        if int(row["iterations"]) != expected:
            errors.append(f"q={q}: iterations {row['iterations']}, formula gives {expected}")
        if q in minima and not math.isclose(float(row["min_cost"]), minima[q],
                                            rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"q={q}: min_cost {row['min_cost']}, table minimum {minima[q]!r}")
    return errors


def check_surrogate(report: dict) -> List[str]:
    """The loss trace is finite and falls, and the answer passed verification."""
    errors = []
    trace = report.get("loss_trace") or []
    if not trace or not all(math.isfinite(v) for v in trace):
        errors.append("loss trace is empty or not finite")
    elif not trace[-1] < trace[0]:
        errors.append(f"final loss {trace[-1]!r} is not below initial {trace[0]!r}")
    if report["result"]["accepted"] is not True:
        errors.append("answer not accepted")
    return errors


def read_sweep(out: Path) -> List[dict]:
    with open(out / "sweep.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def file_counts(out: Path) -> Dict[str, int]:
    """Work counts the emitted files carry: oracle queries, classical
    evaluations of the optimizers (not the exhaustive scan) and epochs."""
    counts = dict.fromkeys(COUNTS, 0)
    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
        counts["oracle_rounds"] = int(report["queries_total"])
        trace = report["loss_trace"]
        counts["epochs"] = len(trace) - 1 if trace else 0
    baselines_path = out / "baselines.json"
    if baselines_path.exists():
        counts["evaluations"] = sum(int(run["evaluations"])
                                    for run in json.loads(baselines_path.read_text())
                                    if run["method"] != "exhaustive")
    return counts


def two_link_minimum(config: dict, qubits: int) -> float:
    """Minimum weighted squared tip error of a two-link position task over its
    full grid, written without qkinopt so the sweep check is independent of
    the code it checks. Works in chunks to bound memory at 2^24 rows."""
    specs = config["params"]
    levels = 1 << qubits
    size = 1 << (qubits * len(specs))
    tx, ty = config["task"]["target"]
    alpha = config["weights"]["alpha_p"]
    best = math.inf
    for start in range(0, size, TABLE_CHUNK):
        idx = np.arange(start, min(start + TABLE_CHUNK, size))
        col = {}
        for i, spec in enumerate(specs):
            k = (idx >> (i * qubits)) & (levels - 1)
            col[spec["name"]] = spec["min"] + k / (levels - 1) * (spec["max"] - spec["min"])
        t12 = col["theta1"] + col["theta2"]
        dx = col["l1"] * np.cos(col["theta1"]) + col["l2"] * np.cos(t12) - tx
        dy = col["l1"] * np.sin(col["theta1"]) + col["l2"] * np.sin(t12) - ty
        best = min(best, float((alpha * (dx * dx + dy * dy)).min()))
    return best


class Checker:
    """Runs the output checks of finished ops, computing each reference value
    once per run, and collects the fit fraction of each surrogate op. Needs
    ``qkinopt`` importable."""

    def __init__(self, config_paths: Dict[str, Path]):
        self._paths = config_paths
        self._cache: Dict[tuple, object] = {}
        self.fit_fractions: List[float] = []  # one per checked surrogate op

    def _config(self, op: Op):
        from qkinopt import harness

        return harness.load_config(str(self._paths[op.config])).with_overrides(
            qubits_per_param=op.qubits)

    def _grid_minimum(self, op: Op) -> float:
        key = ("min", op.config, op.qubits)
        if key not in self._cache:
            from qkinopt import baselines, qml

            config = self._config(op)
            names = config.grid.names()

            def costs(Z):
                return qml.configuration_costs(config.model, names, Z, config.task,
                                               config.weights)

            self._cache[key] = baselines.exhaustive_scan(config.grid, costs)[1]
        return self._cache[key]

    def _sweep_minima(self, op: Op) -> Dict[int, float]:
        key = ("sweep", op.config, op.sweep)
        if key not in self._cache:
            self._cache[key] = {q: two_link_minimum(CONFIGS[op.config], q) for q in op.sweep}
        return self._cache[key]

    def errors(self, op: Op, out: Path) -> List[str]:
        try:
            if op.command == "sweep":
                from qkinopt.grover import iteration_count

                return check_sweep(read_sweep(out), self._sweep_minima(op), iteration_count)
            report = json.loads((out / "report.json").read_text())
            if op.mode == "surrogate":
                errors = check_surrogate(report)
                self.fit_fractions.append(self.fit_fraction(op, out))
                return errors
            return check_optimum(report, self._grid_minimum(op))
        except Exception as exc:  # a malformed output fails its op; the others are still checked
            return [f"output check raised {exc!r}"]

    def fit_fraction(self, op: Op, out: Path) -> float:
        """Share of the training-grid points that the written surrogate predicts
        within FIT_RADIUS_M of the analytic FK, as criterion 5c counts it."""
        from qkinopt.qml import TrainingSet, load_surrogate, predict

        config = self._config(op)
        data = TrainingSet.from_grid(config.grid, config.model)
        surrogate = load_surrogate(out / "surrogate.params")
        errors = [np.linalg.norm(predict(surrogate, z) - label)
                  for z, label in zip(data.inputs, data.labels)]
        return float(np.mean(np.asarray(errors) <= FIT_RADIUS_M))

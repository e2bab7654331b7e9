"""Case-study runner: reads and writes case configs (the shipped cases are
configs/*.json), drives the quantum search and the classical baselines on
the same objectives, and emits machine-readable reports.

The quantum path takes the cost table, and the analytic error floor that its
default tolerance comes from, from one streamed grid pass, and checks only
the measured answer against the analytic kinematics. It runs one amplified
search per adaptive-threshold step: the threshold starts at `search.epsilon0`
(default 10x the cost-table floor), shrinks geometrically while solutions
remain, and ends at the floor, the smallest value that still marks a state,
so the last search marks only the grid minimum. The table is compared with
a threshold once, at the start; each step's search takes the sorted marked
indices, narrowed from the step's before. One "optimization iteration" is a
step. The sweep keeps only each cost block's floor and tie count, no table.

A config file is the dict form of a CaseConfig. Each section's keys are the
constructor fields of the class it builds, read and written by one reader
and one writer; the reader checks each value against its field's declared
type by `qml.json_value`, the one value rule of every file reader.

Reports are byte-stable for a fixed config and seed: floats are written with
17 significant digits and JSON keys are sorted.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import typing
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import baselines as cls_opt
from . import grover, qsim
from .encoding import ParamGrid, ParamSpec, bin_width, decode, decode_all
from .kinematics import DualArm, GraspTask, OneLink, PoseTarget, PoseWeights, TwoLink
from .qml import (
    Surrogate,
    TrainingSet,
    build_cost_table,
    configuration_costs,
    configuration_errors,
    configuration_positions,
    cost_blocks,
    json_value,
    make_surrogate,
    min_qubits,
    save_surrogate,
    train,
    write_json,
)

ITERATION_NOTE = "one optimization iteration = one adaptive-threshold search step"
COMPARISON_HEADER = ("method", "evaluations", "best_cost", "accepted", "evals_over_grover")
SWEEP_HEADER = ("qubits_per_param", "total_qubits", "space_size", "min_cost", "solutions",
                "iterations", "ratio", "note")


# --- configuration ------------------------------------------------------------

# caps of count keys, each (cap, reason): a larger value would not finish, or not fit,
# on a desk machine (timed on a 2-core host with one BLAS thread)
SHOTS_CAP = (10**8, "as a search keeps about 17 bytes of memory per shot")
QML_QUBITS_CAP = (12, "as one training epoch at 12 qubits and 2 layers took 209 s and 3.5 GB")
LAYERS_CAP = (1000, "as training keeps one 2^n x 2^n unitary per layer")
EPOCHS_CAP = (10**6, "as each epoch is one full-batch gradient, 38 ms on two_dof")
SWARM_CAP = (10**4, "as PSO evaluates its particles one at a time, about 40 us each")
PSO_ITERATIONS_CAP = (10**5, "as each PSO iteration evaluates the swarm, about 40 us a particle")
STARTS_CAP = (10**3, "as each start may spend the whole max_evals budget")
# training keeps one 2^n input state per row: one epoch on 2^24 amplitudes peaked at
# 530 MB RSS (two_dof, 20 qubits) and 690 MB (one_dof, 22 qubits)
TRAINING_AMPLITUDES_CAP = (1 << 24, "as one epoch on that many peaked at 530-690 MB")
# a surrogate circuit's size bounds: of the qml config keys, and of a --params file
CIRCUIT_BOUNDS = {"n_qubits": (2, QML_QUBITS_CAP), "n_layers": (1, LAYERS_CAP)}


def _check_range(settings, section: str, kind: str = "config key", **bounds) -> None:
    """Refuse a setting below its minimum, not finite, or above its cap; None
    means unset. A bound is a minimum, or a (minimum, (cap, reason)) pair."""
    for name, bound in bounds.items():
        low, (high, reason) = bound if isinstance(bound, tuple) else (bound, (math.inf, ""))
        value, key = getattr(settings, name), section + name
        if value is None:
            continue
        if not low <= value < math.inf:
            raise ValueError(f"{kind} {key!r} must be finite and >= {low}, got {value!r}")
        if value > high:
            raise ValueError(f"{kind} {key!r} must be <= {high:,}, {reason}, got {value!r}")


@dataclass(frozen=True)
class QmlSettings:
    n_qubits: Optional[int] = None
    n_layers: int = 2
    epochs: int = 200
    learning_rate: float = 0.1
    train_seed: int = 0
    training_samples: Optional[int] = None  # None = full grid

    def __post_init__(self):
        _check_range(self, "qml.", **CIRCUIT_BOUNDS, epochs=(1, EPOCHS_CAP),
                     learning_rate=0, train_seed=0, training_samples=1)


@dataclass(frozen=True)
class SearchSettings:
    epsilon0: Optional[float] = None  # None = 10x the cost-table floor
    shrink: float = 0.5
    refine: bool = True  # retired: the ladder always ends at the table floor

    def __post_init__(self):
        if not 0 < self.shrink < 1:
            raise ValueError(
                f"config key 'search.shrink' must be in (0, 1), got {self.shrink!r}")
        if not self.refine:
            raise ValueError("config key 'search.refine' must be true; ladders end at the floor")
        _check_range(self, "search.", epsilon0=0)


@dataclass(frozen=True)
class BaselineSettings:
    max_evals: int = 4000
    n_starts: int = 5
    swarm_size: int = 30
    pso_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        _check_range(self, "baselines.", max_evals=1, n_starts=(1, STARTS_CAP),
                     swarm_size=(2, SWARM_CAP), pso_iterations=(0, PSO_ITERATIONS_CAP), seed=0)


@dataclass(frozen=True)
class CaseConfig:
    """One case: the grid, model and task it searches, and its run settings.
    Its fields, and those of the classes they hold, are the config keys."""

    grid: ParamGrid
    model: object
    task: object
    case: str = "custom"
    weights: PoseWeights = PoseWeights()
    mode: str = "analytic"
    shots: int = 10000
    seed: int = 0
    search: SearchSettings = SearchSettings()
    qml: QmlSettings = QmlSettings()
    baselines: BaselineSettings = BaselineSettings()

    def __post_init__(self):
        if self.mode not in ("analytic", "surrogate"):
            raise ValueError("config key 'mode' must be 'analytic' or 'surrogate', "
                             f"got {self.mode!r}")
        # FK of grid row 0 refuses a missing parameter, a nonpositive length and tips the
        # task cannot use; the model reads only the parameters its LINKS and JOINTS name
        names = self.grid.names()
        tips = configuration_positions(self.model, dict(zip(names, decode(self.grid, 0))))
        for i, name in enumerate(names):
            if name not in self.model.LINKS + self.model.JOINTS:
                raise ValueError(f"config key 'params[{i}].name' must name a parameter "
                                 f"the model reads, got {name!r}")
        if tips.shape[-1] != (4 if isinstance(self.task, GraspTask) else 2):
            raise ValueError(f"config key 'task.type' must fit model type "
                             f"{_TYPE_NAMES[type(self.model)]!r}, got "
                             f"{_TYPE_NAMES[type(self.task)]!r}")
        if self.mode == "surrogate" and self.weights.alpha_R > 0:
            raise ValueError("config key 'weights.alpha_R' must be 0 in surrogate mode, "
                             "whose surrogate predicts positions only")
        # `train` fits the surrogate whatever the mode, so the minimum always holds
        low = min_qubits(self.grid, self.model)
        if self.qml.n_qubits is not None and self.qml.n_qubits < low:
            raise ValueError(f"config key 'qml.n_qubits' must be >= {low} for this grid "
                             f"and model, got {self.qml.n_qubits!r}")
        if isinstance(self.task, PoseTarget) and self.task.phi is None \
                and self.weights.alpha_R > 0:
            raise ValueError("config key 'task.phi' must be set when 'weights.alpha_R' > 0")
        for key, default in (("alpha_p", 1.0), ("alpha_R", 0.0)):
            if isinstance(self.task, GraspTask) and getattr(self.weights, key) != default:
                raise ValueError(f"config key 'weights.{key}' must be {default} on a grasp "
                                 "task, whose cost weighs only its contacts")
        _check_range(self, "", shots=(1, SHOTS_CAP), seed=0)
        _check_range(self.task, "task.", tolerance=0)

    def with_overrides(self, seed: Optional[int] = None, shots: Optional[int] = None,
                       mode: Optional[str] = None,
                       qubits_per_param: Optional[int] = None) -> "CaseConfig":
        changes = {key: value for key, value in (("seed", seed), ("shots", shots),
                                                  ("mode", mode)) if value is not None}
        if qubits_per_param is not None:
            changes["grid"] = ParamGrid(tuple(replace(s, n_qubits=qubits_per_param)
                                              for s in self.grid.specs))
        return replace(self, **changes) if changes else self


# --- config (de)serialization ---------------------------------------------------

# config keys that differ from their field names
_KEYS = {ParamSpec: {"lo": "min", "hi": "max", "n_qubits": "qubits"},
         PoseTarget: {"position": "target"},
         CaseConfig: {"grid": "params"}}
# the classes a "type" key selects, for the CaseConfig fields declared `object`
_TYPES = {"model": {"one_link": OneLink, "two_link": TwoLink, "dual_arm": DualArm},
          "task": {"position": PoseTarget, "grasp": GraspTask}}
_TYPE_NAMES = {cls: name for types in _TYPES.values() for name, cls in types.items()}


@functools.cache  # one entry per config class: resolving annotations is slow
def _fields(cls) -> tuple:
    """(config key, field, declared type, whether the type is Optional) of each
    constructor field of cls; an Optional[X] field is listed with type X."""
    hints, keys, out = typing.get_type_hints(cls), _KEYS.get(cls, {}), []
    for f in dataclasses.fields(cls):
        if f.init:
            args = typing.get_args(hints[f.name])
            optional = type(None) in args
            out.append((keys.get(f.name, f.name), f, args[0] if optional else hints[f.name],
                        optional))
    return tuple(out)


def _read(cls, data, prefix: str = ""):
    """Build cls from a config section; a type table in place of cls picks
    the class by the section's "type" key."""
    if not isinstance(data, dict):
        where = f"config key {prefix[:-1]!r}" if prefix else "a config"
        raise ValueError(f"{where} must be an object, got {data!r}")
    if isinstance(cls, dict):
        if "type" not in data:
            raise ValueError(f"missing config key {prefix + 'type'!r}")
        data = dict(data)
        name = _value(str, data.pop("type"), prefix + "type")
        if name not in cls:
            raise ValueError(f"config key {prefix + 'type'!r} must be one of "
                             f"{', '.join(map(repr, cls))}, got {name!r}")
        cls = cls[name]
    fields = _fields(cls)
    unknown = sorted(set(data) - {key for key, *_ in fields})
    if unknown:
        raise ValueError(f"unknown config key {prefix + unknown[0]!r}")
    kwargs = {}
    for key, f, tp, optional in fields:
        if key in data:
            value = data[key]
            kwargs[f.name] = None if optional and value is None else \
                _value(tp, value, prefix + key)
        elif f.default is dataclasses.MISSING:
            raise ValueError(f"missing config key {prefix + key!r}")
    return cls(**kwargs)


def _value(tp, value, key: str):
    """A config value checked against its field's declared type and converted."""
    name = f"config key {key!r}"
    if tp in (bool, int, float, str):
        return json_value(tp, value, name)
    if tp == Tuple[float, float]:
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ValueError(f"{name} must be a list of two finite numbers, got {value!r}")
        return tuple(json_value(float, v, name) for v in value)
    if tp is ParamGrid:
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return ParamGrid(tuple(_read(ParamSpec, spec, f"{key}[{i}].")
                               for i, spec in enumerate(value)))
    return _read(_TYPES[key] if tp is object else tp, value, key + ".")


def config_to_dict(value):
    """The config form of a CaseConfig, a section object, a grid or a field value:
    one key per constructor field of each section's class, under the names in
    _KEYS, and a model and a task "type"."""
    if isinstance(value, ParamGrid):
        return [config_to_dict(spec) for spec in value.specs]
    if isinstance(value, tuple):
        return list(value)
    if not dataclasses.is_dataclass(value):
        return value
    out = {key: config_to_dict(getattr(value, f.name)) for key, f, *_ in _fields(type(value))}
    if type(value) in _TYPE_NAMES:
        out["type"] = _TYPE_NAMES[type(value)]
    return out


def config_from_dict(data: dict) -> CaseConfig:
    """Build a CaseConfig from its config form (see `config_to_dict`). A key takes
    a value of its field's kind by `qml.json_value`, a pair key a list of two finite
    numbers, and an optional key also null. An unknown or missing key, a value of
    the wrong kind and an out-of-range setting raise a ValueError naming the key."""
    return _read(CaseConfig, data)


def load_config(path: str) -> CaseConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


# --- run records -----------------------------------------------------------------

@dataclass(frozen=True)
class AdaptiveStep:
    step: int
    epsilon: float
    solutions: int
    iterations: int
    expectation: float
    best_index: Optional[int]
    best_cost: Optional[float]


@dataclass
class RunReport:
    case: str
    mode: str
    seed: int
    shots: int
    total_qubits: int
    space_size: int
    resolution: List[dict]
    epsilon0: float
    final_epsilon: float
    tolerance: float
    steps: List[AdaptiveStep]
    result: grover.SearchResult
    analytic_best_cost: float
    queries_final: int
    queries_total: int
    iteration_definition: str = ITERATION_NOTE
    loss_trace: Optional[List[float]] = None
    surrogate: Optional[Surrogate] = None  # carried for emit, not serialized

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
               if f.name != "surrogate"}
        out["steps"] = [dataclasses.asdict(s) for s in self.steps]
        out["result"] = dict(dataclasses.asdict(self.result),
                             params=[float(v) for v in self.result.params])
        return out


# the reference that the tests check the error floor and `grover.verify` against;
# no src/ path calls it, and perfbench/tracer.py wraps it by name
def _actual_error_table(grid: ParamGrid, model, task, weights: PoseWeights) -> np.ndarray:
    """Verification error of every grid configuration, from its decoded rows."""
    return configuration_errors(model, grid.names(), decode_all(grid), task, weights)


def train_case_surrogate(config: CaseConfig) -> Tuple[Surrogate, np.ndarray]:
    """Fit the circuit surrogate on analytic FK labels for this case's grid. Raises
    CapacityError, before a row is decoded, when the input states would not fit."""
    settings, (cap, reason) = config.qml, TRAINING_AMPLITUDES_CAP
    base = make_surrogate(config.grid, config.model,
                          n_layers=settings.n_layers, n_qubits=settings.n_qubits)
    rows, n = min(settings.training_samples or math.inf, config.grid.size), base.ansatz.n_qubits
    if rows << n > cap:
        raise qsim.CapacityError(
            f"training on {rows:,} rows at {n} qubits holds {rows << n:,} state amplitudes, "
            f"cap is {cap:,}, {reason}; set qml.training_samples or reduce qubits per parameter")
    data = TrainingSet.from_grid(config.grid, config.model, sample=settings.training_samples,
                                 seed=settings.train_seed)
    return train(base, data, epochs=settings.epochs,
                 learning_rate=settings.learning_rate, seed=settings.train_seed)


def run_case(config: CaseConfig, surrogate: Optional[Surrogate] = None) -> RunReport:
    """Quantum pipeline: (train ->) cost table -> adaptive search -> verification.

    Raises CapacityError when the grid exceeds the simulator cap, and
    NoSolutionError when even the loosest threshold marks nothing (raise
    epsilon, coarsen the grid, or retrain the surrogate).
    """
    grid, task = config.grid, config.task
    loss_trace = None
    if config.mode != "surrogate":
        surrogate = None
    elif surrogate is None:
        surrogate, trace_arr = train_case_surrogate(config)
        loss_trace = [float(v) for v in trace_arr]
    # one grid pass, which keeps the analytic error floor when the tolerance is unset
    costs, floor = build_cost_table(grid, config.model, task, config.weights, surrogate,
                                    error_floor=task.tolerance is None)
    if floor is not None:
        # grid resolution bounds achievable accuracy; accept up to twice the
        # exhaustive error floor
        task = replace(task, tolerance=2.0 * floor)

    levels = grover.threshold_ladder(costs, config.search.epsilon0, config.search.shrink)
    epsilon0 = levels[0]
    marked = np.flatnonzero(costs <= epsilon0)  # the table's one threshold read

    total = float(costs.sum())  # each step's <C> reuses it
    steps = [AdaptiveStep(0, epsilon0, marked.size, 0, total / grid.size, None, None)]
    result = None
    queries_total = 0
    for j, eps in enumerate(levels, start=1):
        marked = marked[costs[marked] <= eps]  # each level narrows the one before
        result, state = grover.search_with_state(grid, marked, eps, config.shots, config.seed)
        queries_total += result.queries
        steps.append(AdaptiveStep(j, eps, result.solutions, result.queries,
                                  state.expectation(costs, total),
                                  result.index, float(costs[result.index])))
    assert result is not None

    e_actual, accepted = grover.verify(result.index, grid, config.model, task,
                                       config.weights)
    result = result.verified(e_actual, accepted)

    resolution = [dict(config_to_dict(s), bin_width=bin_width(s)) for s in grid.specs]
    return RunReport(
        case=config.case, mode=config.mode, seed=config.seed, shots=config.shots,
        total_qubits=grid.total_qubits, space_size=grid.size,
        resolution=resolution, epsilon0=epsilon0, final_epsilon=levels[-1],
        tolerance=task.tolerance, steps=steps, result=result,
        analytic_best_cost=float(_cost_fn(config)(result.params[None, :])[0]),
        queries_final=result.queries, queries_total=queries_total,
        loss_trace=loss_trace, surrogate=surrogate,
    )


# --- classical baselines ------------------------------------------------------------

def _cost_fn(config: CaseConfig):
    """Analytic cost of each row of a (B, d) batch of this case's configurations."""
    return functools.partial(configuration_costs, config.model, config.grid.names(),
                             task=config.task, weights=config.weights)


def case_objective(config: CaseConfig) -> cls_opt.Objective:
    """Counting objective: this case's analytic cost, one row per evaluation."""
    costs, specs = _cost_fn(config), config.grid.specs
    return cls_opt.Objective([(s.lo, s.hi) for s in specs], lambda z: costs(z[None, :])[0],
                             [s.angular for s in specs])


def run_baselines(config: CaseConfig) -> List[cls_opt.OptRun]:
    """Multi-start simplex and quasi-Newton, one PSO run, and the exhaustive
    grid scan, all on the same analytic objective."""
    settings = config.baselines
    runs: List[cls_opt.OptRun] = []

    for method in (cls_opt.nelder_mead, cls_opt.quasi_newton):
        runs.append(cls_opt.multi_start(method, case_objective(config),
                                        n_starts=settings.n_starts, seed=settings.seed,
                                        max_evals=settings.max_evals))
    runs.append(cls_opt.pso(case_objective(config), swarm_size=settings.swarm_size,
                            iterations=settings.pso_iterations, seed=settings.seed))
    idx, best_cost, evals = cls_opt.exhaustive_scan(config.grid, _cost_fn(config))
    runs.append(cls_opt.OptRun("exhaustive", decode(config.grid, idx), best_cost, evals,
                               [best_cost], True))
    return runs


def compare(report: dict, runs: Sequence[cls_opt.OptRun]) -> List[dict]:
    """Method-by-method table: query/evaluation counts, best analytic cost,
    acceptance, and the evaluation ratio against the final Grover search.

    `report` is the report.json form (`RunReport.to_dict()`), so a fresh run
    and a saved report give the same rows."""
    grover_queries = max(report["queries_final"], 1)
    methods = [("grover", report["queries_final"], report["analytic_best_cost"],
                bool(report["result"]["accepted"]))]
    methods += [(run.method, run.evaluations, run.best_cost, run.converged) for run in runs]
    return [dict(zip(COMPARISON_HEADER, (name, evals, cost, accepted, evals / grover_queries)))
            for name, evals, cost, accepted in methods]


def sweep(config: CaseConfig, qubit_counts: Sequence[int]) -> List[dict]:
    """Scaling table: resolution vs search effort at each qubits-per-parameter (analytic cost)."""
    rows = []
    for q in qubit_counts:
        cfg = config.with_overrides(qubits_per_param=q)
        try:
            cfg.grid.check_capacity()
        except qsim.CapacityError as exc:
            rows.append(dict(zip(SWEEP_HEADER, (q, cfg.grid.total_qubits, cfg.grid.size,
                                                math.nan, 0, 0, math.nan, str(exc)))))
            continue
        floor, m = math.inf, 0  # where every threshold ladder ends, and its ties
        for *_, block, _ in cost_blocks(cfg.grid, cfg.model, cfg.task, cfg.weights, None, False):
            low = float(block.min())
            if low < floor:
                floor, m = low, 0
            if low == floor:
                m += grover.count_solutions(block, low)
        K = grover.iteration_count(cfg.grid.size, m)
        rows.append(dict(zip(SWEEP_HEADER, (q, cfg.grid.total_qubits, cfg.grid.size,
                                            floor, m, K,
                                            cfg.grid.size / max(K, 1), ""))))
    return rows


# --- report emission -------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_table(path: str, header: Sequence[str], rows: Sequence[dict]) -> None:
    """A CSV of dict rows, their values in `header` order (COMPARISON_HEADER, SWEEP_HEADER)."""
    write_csv(path, header, [[row[h] for h in header] for row in rows])


def emit_report(report: RunReport, out_dir: str) -> dict:
    """Write trace.csv, report.json and the trained surrogate parameters;
    returns the path map."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    trace_path = os.path.join(out_dir, "trace.csv")
    write_csv(trace_path, ["iteration", "cost"],
              [(s.step, s.expectation) for s in report.steps])
    paths["trace"] = trace_path

    report_path = os.path.join(out_dir, "report.json")
    write_json(report_path, report.to_dict())
    paths["report"] = report_path

    if report.surrogate is not None:
        params_path = os.path.join(out_dir, "surrogate.params")
        save_surrogate(report.surrogate, params_path)
        paths["surrogate"] = params_path
    return paths


def write_optruns(runs: Sequence[cls_opt.OptRun], path: str) -> None:
    """baselines.json: one object per run, keyed by the OptRun fields."""
    write_json(path, [dict(vars(r), best_x=[float(v) for v in r.best_x],
                           trace=[float(v) for v in r.trace]) for r in runs])


def load_report(path: str) -> dict:
    """report.json as `emit_report` writes it; a value `compare` reads that is
    missing raises KeyError, and one that `json_value` refuses ValueError."""
    with open(path) as fh:
        report = json.load(fh)
    json_value(int, report["queries_final"], "key 'queries_final'")
    json_value(float, report["analytic_best_cost"], "key 'analytic_best_cost'")
    json_value(bool, report["result"]["accepted"], "key 'result.accepted'")
    return report


def load_optruns(path: str) -> List[cls_opt.OptRun]:
    """baselines.json as `write_optruns` writes it; a missing `best_x` raises KeyError,
    another missing or unknown key TypeError, and a value `json_value` refuses ValueError."""
    with open(path) as fh:
        runs = [cls_opt.OptRun(**dict(r, best_x=r["best_x"])) for r in json.load(fh)]
    return [cls_opt.OptRun(
        json_value(str, run.method, f"run {i} key 'method'"),
        np.array([json_value(float, v, f"run {i} key 'best_x[{j}]'")
                  for j, v in enumerate(run.best_x)]),
        json_value(float, run.best_cost, f"run {i} key 'best_cost'"),
        json_value(int, run.evaluations, f"run {i} key 'evaluations'"),
        [json_value(float, v, f"run {i} key 'trace[{j}]'") for j, v in enumerate(run.trace)],
        json_value(bool, run.converged, f"run {i} key 'converged'")) for i, run in enumerate(runs)]

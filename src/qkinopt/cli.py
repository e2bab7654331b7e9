"""Command-line entry point.

Subcommands:
  train     fit the circuit surrogate for a case and write surrogate.params
  run       run the quantum pipeline for one case (trace.csv, report.json)
  baseline  run the classical optimizers on the same objective
  compare   merge a quantum report and a baseline report into comparison.csv
  sweep     vary qubits per parameter and tabulate search effort
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .grover import NoSolutionError
from .qml import TrainingError, load_surrogate, make_surrogate, save_surrogate
from .qsim import QUBIT_CAP, CapacityError


# the CaseConfig.with_overrides keys, each the flag --key with "-" for "_"
_OVERRIDES = {
    "seed": dict(type=int, help="override run seed"),
    "shots": dict(type=int, help="override shot count"),
    "mode": dict(choices=("surrogate", "analytic"), help="override predictor mode"),
    "qubits_per_param": dict(type=int, help="override every parameter's qubit count"),
}


class InputError(Exception):
    """An input file, or a command-line value, was refused."""


def _read(loader, path, *args):
    """Load an input file; a missing, unreadable or malformed one is an InputError."""
    try:
        return loader(path, *args)
    except KeyError as exc:
        raise InputError(f"cannot load {path}: missing key {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise InputError(f"cannot load {path}: {exc}") from exc


def _load(args) -> harness.CaseConfig:
    config = _read(harness.load_config, args.config)
    try:
        return config.with_overrides(**{key: getattr(args, key, None) for key in _OVERRIDES})
    except ValueError as exc:
        raise InputError(f"invalid override: {exc}") from exc


def _load_params(path: str, config: harness.CaseConfig):
    """A --params surrogate within the qml caps and with this config's maps."""
    if config.mode != "surrogate":
        raise ValueError("--params needs surrogate mode")
    surrogate = load_surrogate(path)
    harness._check_range(surrogate.ansatz, "", "surrogate", **harness.CIRCUIT_BOUNDS)
    fit = make_surrogate(config.grid, config.model, surrogate.ansatz.n_layers,
                         surrogate.ansatz.n_qubits)  # refuses too few qubits
    if (fit.input_map, fit.readout) != (surrogate.input_map, surrogate.readout):
        raise ValueError("its maps do not fit this grid and model")
    return surrogate


def _cmd_train(args) -> int:
    config = _load(args)
    surrogate, trace = harness.train_case_surrogate(config)
    os.makedirs(args.out, exist_ok=True)
    params_path = os.path.join(args.out, "surrogate.params")
    save_surrogate(surrogate, params_path)
    trace_path = os.path.join(args.out, "training_trace.csv")
    harness.write_csv(trace_path, ["epoch", "loss"],
                      list(enumerate(float(v) for v in trace)))
    print(f"final loss {trace[-1]:.6g} after {len(trace) - 1} epochs")
    print(f"wrote {params_path} and {trace_path}")
    return 0


def _cmd_run(args) -> int:
    config = _load(args)
    surrogate = _read(_load_params, args.params, config) if args.params else None
    report, surrogate = harness.run_case(config, surrogate=surrogate)
    paths = harness.emit_report(report, surrogate, args.out)
    result = report["result"]
    print(f"case={report['case']} mode={report['mode']} N={report['total_qubits']} "
          f"M={report['space_size']}")
    print(f"best index {result['index']} (bits {result['bitstring']}) -> "
          f"params {[round(v, 6) for v in result['params']]}")
    print(f"e_actual={result['e_actual']:.6g} tolerance={report['tolerance']:.6g} "
          f"accepted={result['accepted']}")
    print(f"oracle queries: final {report['queries_final']}, "
          f"total {report['queries_total']}")
    print("wrote " + ", ".join(sorted(paths.values())))
    return 0 if result["accepted"] else 1


def _cmd_baseline(args) -> int:
    config = _load(args)
    runs = harness.run_baselines(config)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "baselines.json")
    harness.write_optruns(runs, path)
    for run in runs:
        print(f"{run.method}: best {run.best_cost:.6g} in {run.evaluations} "
              f"evaluations (converged={run.converged})")
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    if args.report or args.baselines or args.config is None:
        missing = [flag for flag in ("--report", "--baselines") if not getattr(args, flag[2:])]
        if missing:
            raise InputError(f"compare needs {' and '.join(missing)} to merge, "
                             "or --config alone to rerun both pipelines")
        unused = ["--" + key.replace("_", "-") for key in ("config", *_OVERRIDES)
                  if getattr(args, key) is not None]
        if unused:
            raise InputError(f"compare merges --report and --baselines as written, "
                             f"so it takes no {', '.join(unused)}")
        runs = _read(harness.load_optruns, args.baselines)
        report = _read(harness.load_report, args.report)
    else:
        config = _load(args)
        report, surrogate = harness.run_case(config)
        runs = harness.run_baselines(config)
        harness.emit_report(report, surrogate, args.out)
        harness.write_optruns(runs, os.path.join(args.out, "baselines.json"))
    rows = harness.compare(report, runs)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "comparison.csv")
    harness.write_table(path, harness.COMPARISON_HEADER, rows)
    for row in rows:
        print(f"{row['method']}: {row['evaluations']} evals, "
              f"best {row['best_cost']:.6g}, x{row['evals_over_grover']:.1f} vs grover")
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    counts = args.qubits.split(",")
    valid = {str(q) for q in range(1, QUBIT_CAP + 1)}  # int() refuses 4,300+ digits
    if not all(q.strip().lstrip("0") in valid for q in counts):
        raise InputError(f"--qubits must be comma-separated integers from 1 to {QUBIT_CAP}, "
                         f"the qubit cap, got {args.qubits!r}")
    config = _load(args)
    rows = harness.sweep(config, [int(q) for q in counts])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    harness.write_table(path, harness.SWEEP_HEADER, rows)
    for row in rows:
        note = f"  ({row['note']})" if row["note"] else ""
        print(f"q={row['qubits_per_param']}: N={row['total_qubits']} "
              f"M={row['space_size']} K={row['iterations']} "
              f"ratio={row['ratio']:.1f}{note}")
    print(f"wrote {path}")
    return 0


# name: (handler, help, the _OVERRIDES it takes, its own flags as (flag, default,
# help)); every command also takes --config and --out
_COMMANDS = {
    "train": (_cmd_train, "fit the circuit surrogate", ("qubits_per_param",), ()),
    "run": (_cmd_run, "run the quantum pipeline for one case", tuple(_OVERRIDES),
            (("--params", None, "pre-trained surrogate.params file"),)),
    "baseline": (_cmd_baseline, "run classical optimizers", ("qubits_per_param",), ()),
    "compare": (_cmd_compare, "build the method comparison table", tuple(_OVERRIDES),
                (("--report", None, "existing report.json to merge"),
                 ("--baselines", None, "existing baselines.json to merge"))),
    # --qubits sets the qubit counts, so the sweep takes no override
    "sweep": (_cmd_sweep, "scaling table over qubits per parameter", (),
              (("--qubits", "3,4,5", "comma-separated counts"),)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkinopt",
        description="Quantum-search manipulator optimization at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, overrides, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # compare merges --report and --baselines files without a config
        p.add_argument("--config", required=name != "compare", help="case config JSON file")
        for key in overrides:
            p.add_argument("--" + key.replace("_", "-"), **_OVERRIDES[key])
        for flag, default, flag_help in flags:
            p.add_argument(flag, default=default, help=flag_help)
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}; lower qml.learning_rate", file=sys.stderr)
        return 2
    except InputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
import json
import os
import sys

from . import harness
from .grover import NoSolutionError
from .qml import load_surrogate, make_surrogate, save_surrogate
from .qsim import CapacityError


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--config", required=config_required, help="case config JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override run seed")
    parser.add_argument("--shots", type=int, default=None, help="override shot count")
    parser.add_argument("--mode", choices=("surrogate", "analytic"), default=None,
                        help="override predictor mode")
    parser.add_argument("--qubits-per-param", type=int, default=None,
                        help="override every parameter's qubit count")
    parser.add_argument("--out", default="out", help="output directory")


class InputError(Exception):
    """A --config or --params file, or a command-line override, was refused."""


def _read(loader, path, *args):
    """Load an input file, turning its ValueError into an InputError."""
    try:
        return loader(path, *args)
    except ValueError as exc:
        raise InputError(f"cannot load {path}: {exc}") from exc


def _load(args) -> harness.CaseConfig:
    config = _read(harness.load_config, args.config)
    try:
        return config.with_overrides(seed=args.seed, shots=args.shots, mode=args.mode,
                                     qubits_per_param=args.qubits_per_param)
    except ValueError as exc:
        raise InputError(f"invalid override: {exc}") from exc


def _load_params(path: str, config: harness.CaseConfig):
    """A --params surrogate with the maps and parameter count of this config's surrogate."""
    if config.mode != "surrogate":
        raise ValueError("--params needs surrogate mode")
    surrogate = load_surrogate(path)
    fit = make_surrogate(config.grid, config.model, surrogate.ansatz.n_layers,
                         surrogate.ansatz.n_qubits)  # refuses too few qubits
    if ((fit.input_map, fit.readout, fit.params.shape)
            != (surrogate.input_map, surrogate.readout, surrogate.params.shape)):
        raise ValueError("its maps or parameter count do not fit this grid and model")
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
    report = harness.run_case(config, surrogate=surrogate)
    paths = harness.emit_report(report, args.out)
    result = report.result
    print(f"case={report.case} mode={report.mode} N={report.total_qubits} "
          f"M={report.space_size}")
    print(f"best index {result.index} (bits {result.bitstring}) -> "
          f"params {[round(float(v), 6) for v in result.params]}")
    print(f"e_actual={result.e_actual:.6g} tolerance={report.tolerance:.6g} "
          f"accepted={result.accepted}")
    print(f"oracle queries: final {report.queries_final}, "
          f"total {report.queries_total}")
    print("wrote " + ", ".join(sorted(paths.values())))
    return 0 if result.accepted else 1


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
    if args.report and args.baselines:
        with open(args.report) as fh:
            report = json.load(fh)
        runs = harness.load_optruns(args.baselines)
    else:
        if args.config is None:
            print("compare needs --config unless --report and --baselines are both given",
                  file=sys.stderr)
            return 2
        config = _load(args)
        quantum = harness.run_case(config)
        runs = harness.run_baselines(config)
        harness.emit_report(quantum, args.out)
        harness.write_optruns(runs, os.path.join(args.out, "baselines.json"))
        report = quantum.to_dict()
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
    config = _load(args)
    rows = harness.sweep(config, [int(q) for q in args.qubits.split(",")])
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkinopt",
        description="Quantum-search manipulator optimization at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit the circuit surrogate")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", help="run the quantum pipeline for one case")
    _add_common(p)
    p.add_argument("--params", default=None, help="pre-trained surrogate.params file")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("baseline", help="run classical optimizers")
    _add_common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("compare", help="build the method comparison table")
    _add_common(p, config_required=False)
    p.add_argument("--report", default=None, help="existing report.json to merge")
    p.add_argument("--baselines", default=None, help="existing baselines.json to merge")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="scaling table over qubits per parameter")
    _add_common(p)
    p.add_argument("--qubits", default="3,4,5", help="comma-separated counts")
    p.set_defaults(func=_cmd_sweep)

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
    except InputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process, started by run.py.

Set-up imports qkinopt from the checkout's ``src/`` and writes the generated
configs; the time it becomes ready is recorded on the system monotonic clock,
which the parent shares. The ops then run in a closed loop with one client,
in as many whole cycles as end nearest to ``--seconds``, with calibration
samples between them (see calibrate.py). Peak RSS is read after the first
cycle, whose work is fixed, and again when the loop ends; only then are the
outputs checked. Findings go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALIBRATION_SHARE = 0.1        # a calibration block's time, as a share of the op's
MIN_BLOCK_SAMPLES = 3          # samples in a calibration block, at least
SETUP_CALIBRATION_SAMPLES = 5  # calibration samples for a set-up time


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    parser.add_argument("--result", type=Path, required=True, help="JSON findings file")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once set-up is done (a set-up time sample)")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cycles(ops, main, configs, work: Path, seed: int, seconds: float, tracer,
               calibration: str):
    """Closed loop over whole cycles; returns (op records, peak RSS in MB once
    the first cycle is done). Each record carries the op's own seconds and
    its host factor. With calibration DURING, a Sampler runs during each op,
    and its time is left out of the op's. With BETWEEN, a block of
    calibration samples runs after the first cycle and after each later op,
    and an op's factor is over the blocks right before and after it; the
    first cycle runs without them, so that its peak RSS is the program's
    alone."""
    seeds = random.Random(seed)
    records, blocks, cycle_seconds = [], [], []
    sampler = calibrate.Sampler() if calibration == workloads.DURING else None
    calibrator = None
    start = time.perf_counter()
    while True:
        for op in ops:
            index = len(records)
            out = work / f"op{index}"
            op_seed = seeds.randrange(1 << 31) if op.seeded else None
            argv = op.argv(configs[op.config], out, op_seed)
            if tracer is not None:
                tracer.op = index
            error = None
            with sampler or contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    code = main(argv)
                except Exception as exc:  # a failed op is counted, the run goes on
                    code, error = None, repr(exc)
                elapsed = time.perf_counter() - t0
            record = {"op": op, "out": out, "seed": op_seed, "code": code, "error": error,
                      "wall": elapsed, "seconds": elapsed, "block": len(blocks)}
            if sampler is not None:
                record["seconds"] -= sampler.spent
                record["host_factor"] = sampler.host_factor()
            records.append(record)
            if calibrator is not None:
                blocks.append(calibrator_block(calibrator, elapsed))
        cycle_seconds.append(sum(r["seconds"] for r in records[-len(ops):]))
        if len(cycle_seconds) == 1:
            first_peak = peak_rss_mb()
            if calibration == workloads.BETWEEN:
                calibrator = calibrate.Calibrator(calibrate.BETWEEN_KERNELS)
                blocks.append(calibrator_block(calibrator, cycle_seconds[0]))
        # whole cycles, as many as end nearest to ``seconds``: stop when the
        # next one would end more than half a cycle after it
        if time.perf_counter() - start + statistics.median(cycle_seconds) / 2 > seconds:
            break
    for rec in records:
        after = rec.pop("block")  # and the block before it, if there is one
        if calibrator is not None:
            rec["host_factor"] = calibrate.host_factor(
                [sample for block in blocks[max(0, after - 1):after + 1] for sample in block])
    return records, first_peak


def calibrator_block(calibrator, seconds: float) -> list:
    """Calibration samples worth CALIBRATION_SHARE of ``seconds``, at least
    MIN_BLOCK_SAMPLES of them."""
    per_sample = sum(calibrate.REFERENCE_S[k] for k in calibrator.kernels)
    count = max(MIN_BLOCK_SAMPLES, round(CALIBRATION_SHARE * seconds / per_sample))
    return [calibrator.sample() for _ in range(count)]


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import qkinopt

    if Path(qkinopt.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"qkinopt was imported from {qkinopt.__file__}, not from {SRC}")
    from qkinopt import cli

    ops = workloads.WORKLOADS[args.workload]
    shutil.rmtree(args.work, ignore_errors=True)
    args.work.mkdir(parents=True)
    configs = workloads.write_configs(ops, args.work)
    ready = time.monotonic()
    setup_calibrator = calibrate.Calibrator(("small_calls",))  # imports are interpreted work
    setup_factor = calibrate.host_factor([setup_calibrator.sample()
                                          for _ in range(SETUP_CALIBRATION_SAMPLES)])
    if args.setup_only:
        shutil.rmtree(args.work)
        args.result.write_text(json.dumps({"ready": ready, "setup_factor": setup_factor}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    # look main up after install, so that the traced run enters through its wrapper
    records, first_peak = run_cycles(ops, cli.main, configs, args.work, args.seed,
                                     args.seconds, tracer, workloads.CALIBRATION[args.workload])
    last_peak = peak_rss_mb()
    cycles = [records[i:i + len(ops)] for i in range(0, len(records), len(ops))]
    cycle_seconds = [sum(r["seconds"] for r in cycle) for cycle in cycles]
    cycle_ref_seconds = [sum(r["seconds"] / r["host_factor"] for r in cycle) for cycle in cycles]
    layers = None
    if tracer is not None:
        tracer.uninstall()
        tracer.save(args.work.parent / f"spans-{args.workload}.npz")
        # the spans include the Sampler's time, so the wall time they cover does too
        layers = tracer.layer_metrics([sum(r["wall"] for r in cycle) for cycle in cycles])

    checker = workloads.Checker(configs)
    per_cycle_counts = [dict.fromkeys(workloads.COUNTS, 0) for _ in cycles]
    op_results = []
    for index, rec in enumerate(records):
        op, out = rec["op"], rec["out"]
        if rec["error"] is not None:
            errors = [f"raised {rec['error']}"]
        else:
            errors = [] if rec["code"] == 0 else [f"exit code {rec['code']}"]
            errors += checker.errors(op, out)
            try:
                counts = workloads.file_counts(out)
            except Exception as exc:  # as in Checker.errors
                errors.append(f"reading counts raised {exc!r}")
            else:
                for key, value in counts.items():
                    per_cycle_counts[index // len(ops)][key] += value
        op_results.append({"config": op.config, "seed": rec["seed"], "seconds": rec["seconds"],
                           "host_factor": rec["host_factor"], "errors": errors})
    shutil.rmtree(args.work, ignore_errors=True)

    args.result.write_text(json.dumps({
        "ready": ready,
        "env": environment(),
        "setup_factor": setup_factor,
        "calibration": workloads.CALIBRATION[args.workload],
        "cycle_seconds": cycle_seconds,
        "cycle_ref_seconds": cycle_ref_seconds,
        "ops": op_results,
        "peak_rss_mb": {"first_cycle": first_peak, "run": last_peak},
        "file_counts": per_cycle_counts,
        "fit_frac": statistics.median(checker.fit_fractions) if checker.fit_fractions else None,
        "layers": layers,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qkinopt benchmark: runs one workload, or all of them one after another,
each in its own child process; checks every output and prints the metrics.

    python3 perfbench/run.py --workload compare_mix --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` gives the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the workload untraced and then traced, each for half the
seconds, and gives the per-layer metrics of the traced run, the tracing
overhead, and the check that both runs did the same work as their emitted
files report. Units come from BENCHMARK.json. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines above it are a header and a table for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5     # child starts timed for setup_s; the median is reported
TIME_LIMIT_S = 170.0  # per workload, for all its children together
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
# count carried by the emitted files -> traced counter that must equal it
CROSS_CHECKS = {"oracle_rounds": "grover.oracle_rounds",
                "evaluations": "baselines.evaluations",
                "epochs": "qml.epochs"}


class BenchError(RuntimeError):
    """A child failed to run; the benchmark prints no result."""


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark may run in a copy that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


class Workload:
    """The child processes of one workload, all ending before its deadline."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def child(self, role: str, seconds: float, trace: int = 0,
              setup_only: bool = False) -> dict:
        result = WORK / f"{self.name}-{role}.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.name,
               "--seed", str(self.seed), "--seconds", str(seconds), "--trace", str(trace),
               "--work", str(WORK / f"{self.name}-{role}"), "--result", str(result)]
        if setup_only:
            cmd.append("--setup-only")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, env={**os.environ, **BLAS_THREADS}, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.name} {role}: child still running at the time limit")
        if proc.returncode != 0:
            raise BenchError(f"{self.name} {role}: child exited with {proc.returncode}\n"
                             f"{proc.stderr[-3000:]}")
        found = json.loads(result.read_text())
        result.unlink()
        found["setup_s"] = found["ready"] - started
        return found


class Outcome:
    """What the children of one workload found: metric values, op failures,
    run-level problems (such as a count mismatch) and report lines."""

    def __init__(self):
        self.env: dict = {}
        self.values: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.lines: list = []

    def add_ops(self, found: dict) -> dict:
        """Count one child's ops and failures; returns its counts per cycle
        from the emitted files, which every cycle must repeat."""
        self.env = found["env"]
        for i, op in enumerate(found["ops"]):
            self.attempted += 1
            if op["errors"]:
                self.failed += 1
                self.lines.append(f"  FAIL op {i} ({op['config']}, seed {op['seed']}): "
                                  + "; ".join(op["errors"]))
        first = found["file_counts"][0]
        if any(c != first for c in found["file_counts"]):
            self.problems.append(f"emitted counts differ between cycles: {found['file_counts']}")
        return first


def cross_check(counts: dict, layers: dict) -> list:
    """Mismatches between the counts in the emitted files and the traced
    counters; any mismatch means tracing changed what the program did."""
    return [f"files report {key}={counts[key]}, traced {layer}={layers[layer]}"
            for key, layer in CROSS_CHECKS.items() if counts[key] != layers[layer]]


def untraced(w: Workload, seconds: float) -> Outcome:
    def setup_samples(n):
        return [w.child("setup", seconds, setup_only=True) for _ in range(n)]

    # set-up samples on both sides of the measuring child, to spread them in time
    setups = setup_samples(SETUP_SAMPLES // 2)
    main = w.child("main", seconds)
    setups += [main] + setup_samples(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    out = Outcome()
    counts = out.add_ops(main)
    ops = main["ops"]
    out.values = v = {
        "setup_s": statistics.median(s["setup_s"] / s["setup_factor"] for s in setups),
        "wall_s": statistics.median(main["cycle_ref_seconds"]),
        "op_s": statistics.median(op["seconds"] / op["host_factor"] for op in ops),
        "peak_rss_mb": main["peak_rss_mb"]["first_cycle"],
    }
    fit = "n/a" if main["fit_frac"] is None else f"{main['fit_frac']:.6g}"
    cycles = len(main["cycle_seconds"])
    out.lines[:0] = [
        f"  timings are calibrated to reference host speed, by samples taken "
        f"{main['calibration']} ops; uncalibrated figures in parentheses",
        f"  setup_s      {v['setup_s']:<12.6g} s   median of {len(setups)} child starts "
        f"({statistics.median(s['setup_s'] for s in setups):.6g} s)",
        f"  wall_s       {v['wall_s']:<12.6g} s   median of {cycles} cycles of "
        f"{len(ops) // cycles} ops ({statistics.median(main['cycle_seconds']):.6g} s)",
        f"  op_s         {v['op_s']:<12.6g} s   median of {len(ops)} ops "
        f"({statistics.median(op['seconds'] for op in ops):.6g} s); host factors "
        + " ".join(f"{op['host_factor']:.3g}" for op in ops),
        f"  peak_rss_mb  {v['peak_rss_mb']:<12.6g} MB  ru_maxrss after the first cycle "
        f"({main['peak_rss_mb']['run']:.6g} MB at the end of the run)",
        f"  fail_frac    {out.failed / out.attempted:<12.6g} 1   "
        f"{out.failed} of {out.attempted} ops failed",
        f"  fit_frac     {fit:<12} 1   training-grid points within 0.1 m (surrogate ops)",
        "  counts per cycle in the emitted files: "
        + " ".join(f"{k}={n}" for k, n in counts.items()),
    ]
    return out


def traced(w: Workload, seconds: float) -> Outcome:
    plain = w.child("plain", seconds / 2)
    run = w.child("traced", seconds / 2, trace=1)
    out = Outcome()
    out.values = v = dict(run["layers"])
    # the two children ran at different times, so compare them at reference speed
    plain_wall = statistics.median(plain["cycle_ref_seconds"])
    traced_wall = statistics.median(run["cycle_ref_seconds"])
    v["trace.overhead_s"] = traced_wall - plain_wall
    v["qml.fit_frac"] = run["fit_frac"] if run["fit_frac"] is not None else 0.0
    for role, found in (("untraced", plain), ("traced", run)):
        out.problems += [f"{role} run: {p}" for p in cross_check(out.add_ops(found), v)]
    out.lines[:0] = [
        f"  median cycle at reference speed: untraced {plain_wall:.6g} s "
        f"({len(plain['cycle_seconds'])} cycles), traced {traced_wall:.6g} s "
        f"({len(run['cycle_seconds'])} cycles): overhead "
        f"{v['trace.overhead_s']:.6g} s ({v['trace.overhead_s'] / plain_wall:+.1%})",
        f"  leaf modules cover {v['trace.leaf_frac']:.1%} of traced wall time",
    ]
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    chosen = names if args.workload == "all" else [args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measure = traced if args.trace else untraced
    try:
        outcomes = {name: measure(Workload(name, args.seed), args.seconds) for name in chosen}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    header = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "commit": git_commit(), **outcomes[chosen[0]].env}
    print("header " + json.dumps(header, sort_keys=True))
    metrics = {}
    for name, out in outcomes.items():
        print(f"{name}: {out.attempted} ops, {out.failed} failed")
        print("\n".join(out.lines + [f"  FAIL {p}" for p in out.problems]))
        prefix = "" if len(chosen) == 1 else f"{name}."
        for m in declared:
            value = out.values[m["name"]]
            if args.trace:
                print(f"  {m['name']:<30} {value:<14.6g} {m['unit']}")
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = sum(out.attempted for out in outcomes.values())
    failed = sum(out.failed for out in outcomes.values())
    correct = failed == 0 and not any(out.problems for out in outcomes.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

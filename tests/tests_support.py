"""Shared helpers for the test suite."""

import dataclasses
import math
import pathlib

from hypothesis import strategies as st

from qkinopt import grover, harness, qml, qsim
from qkinopt.encoding import ParamGrid, ParamSpec
from qkinopt.kinematics import DualArm, GraspTask, OneLink, PoseTarget, PoseWeights, TwoLink

TWO_PI = 2 * math.pi
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def shipped_case(name, qubits_per_param=None, **fields):
    """The shipped case configs/<name>.json, at `qubits_per_param` qubits per
    parameter (None: the file's) and with `fields` replaced (seed, mode, ...)."""
    config = harness.load_config(CONFIGS / f"{name}.json")
    return dataclasses.replace(config.with_overrides(qubits_per_param=qubits_per_param),
                               **fields)


def table_sweep(config, qubit_counts):
    """`harness.sweep` rows from a whole 2^N cost table, read once for its floor
    and once for the floor's tie count: the reference that the streamed sweep
    must match byte for byte."""
    rows = []
    for q in qubit_counts:
        cfg = config.with_overrides(qubits_per_param=q)
        grid = cfg.grid
        try:
            grid.check_capacity()
        except qsim.CapacityError as exc:
            rows.append(dict(zip(harness.SWEEP_HEADER, (q, grid.total_qubits, grid.size,
                                                        math.nan, 0, 0, math.nan, str(exc)))))
            continue
        costs, _ = qml.build_cost_table(grid, cfg.model, cfg.task, cfg.weights)
        floor = float(costs.min())
        m = grover.count_solutions(costs, floor)
        K = grover.iteration_count(grid.size, m)
        rows.append(dict(zip(harness.SWEEP_HEADER, (q, grid.total_qubits, grid.size, floor, m,
                                                    K, grid.size / max(K, 1), ""))))
    return rows


angles = st.floats(-10.0, 10.0)


@st.composite
def verification_cases(draw):
    """A small grid, model, task and weights: a one- or two-link pose task,
    with or without an orientation target and weight, or a dual-arm grasp."""
    kind = draw(st.sampled_from(["one_link", "two_link", "grasp"]))
    qubits = st.integers(1, 2)
    lo = draw(st.floats(-math.pi, 0.0))
    angle_specs = [ParamSpec(name, lo, lo + TWO_PI, draw(qubits), angular=True)
                   for name in (("theta1",) if kind == "one_link" else ("theta1", "theta2"))]
    if kind == "grasp":
        grid = ParamGrid(tuple(ParamSpec(name, lo, lo + TWO_PI, draw(qubits), angular=True)
                               for name in ("theta11", "theta12", "theta21", "theta22")))
        task = GraspTask((draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 2.0))),
                         draw(st.floats(0.1, 0.5)), draw(angles), tolerance=0.1)
        return grid, DualArm(), task, PoseWeights()
    lengths = [ParamSpec(name, 0.1, 2.0, draw(qubits))
               for name in ("l1", "l2")[:len(angle_specs)] if draw(st.booleans())]
    grid = ParamGrid(tuple(angle_specs + lengths))
    model = OneLink() if kind == "one_link" else TwoLink()
    phi = draw(st.none() | angles)
    task = PoseTarget((draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))), phi,
                      tolerance=0.5)
    alpha_R = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.01, 5.0))
    return grid, model, task, PoseWeights(1.0, alpha_R)


def first_format_text(surrogate):
    """A surrogate file in the plain-text format that JSON replaced: a header,
    `qubits <n> layers <n>`, one `input <q,q,...> <lo> <hi> angular|linear` and
    one `readout <q> <lo> <hi>` line per map, then `params` and one parameter a line."""
    lines = ["qkinopt-surrogate 1",
             f"qubits {surrogate.ansatz.n_qubits} layers {surrogate.ansatz.n_layers}"]
    lines += [f"input {','.join(map(str, qubits))} {lo!r} {hi!r} "
              f"{'angular' if angular else 'linear'}"
              for qubits, lo, hi, angular in surrogate.input_map]
    lines += [f"readout {qubit} {lo!r} {hi!r}" for qubit, lo, hi in surrogate.readout]
    lines += ["params"] + [repr(float(p)) for p in surrogate.params]
    return "\n".join(lines) + "\n"

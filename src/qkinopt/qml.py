"""Parameterized-circuit surrogate of forward kinematics.

The surrogate uploads each physical parameter as an RY rotation on every
qubit of its block, runs a layered RX/RY + CNOT-ring ansatz, and reads one
<Z> expectation per output coordinate, affine-mapped onto the workspace
interval.

The upload angle is injective on each parameter's range. A full turn
(`encoding.full_turn`) maps affinely onto [-pi, pi], whose ends are one
angle. Any other value z, on a partial arc too, is encoded relative to zero
(Mitarai et al. 2018, "Quantum circuit learning"): cos(angle) =
z / max(|lo|, |hi|), so z becomes the qubit's <Z> component and a product
such as l1 * cos(theta) becomes a two-qubit parity. Uploading an input on
several qubits gives each readout its own copy: <Z> and <X> of one qubit,
which carry cos(theta) and sin(theta), are not jointly measurable.

Gradients use the parameter-shift rule (+-pi/2 shifts of each rotation
angle, combined through the chain rule of the squared loss). All 2P+1
circuits of one gradient run as one pass over a stack of states, where the
shifted copies of a parameter branch off the unshifted circuit at its gate;
the unshifted slot also gives the loss. Rows go through in blocks of at most
GRADIENT_BLOCK_AMPS stacked amplitudes, unless one row alone needs more.
Training is full-batch Adam seeded for reproducibility, one pass per epoch.

This module also builds the diagonal cost table that the search oracle
consumes: one `kinematics.task_cost` per basis state, from the trained
surrogate's predicted tips or from the analytical kinematics, whose grid
columns bind to FK by parameter name. `build_cost_table` is the one grid
pass: it walks `grid_blocks` and can keep the least analytic
`kinematics.task_error` over the grid as it goes, without a table of it.
`configuration_costs` and `configuration_errors` give the analytic cost and
error of any batch of configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from . import qsim
from .encoding import ParamGrid, decode_all, full_turn, grid_blocks
from .kinematics import (
    DualArm,
    OneLink,
    PoseTarget,
    PoseWeights,
    TwoLink,
    cost_of_deviation,
    error_of_deviation,
    fk_dual,
    fk_one,
    fk_two,
    squared_deviation,
    task_cost,
    task_error,
)

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# complex values in one gradient stack (1 MiB): it stays in cache, and on the
# 65,536-row two_dof grid larger blocks measured both slower and heavier
GRADIENT_BLOCK_AMPS = 1 << 16


class TrainingError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class Ansatz:
    """Layered template: RX and RY on every qubit, then a CNOT ring i -> i+1."""

    n_qubits: int
    n_layers: int

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError("ansatz needs at least 2 qubits")
        if self.n_layers < 1:
            raise ValueError("ansatz needs at least 1 layer")

    @property
    def parameter_count(self) -> int:
        return 2 * self.n_qubits * self.n_layers

    def gates(self, params: Sequence[float]) -> list:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.parameter_count,):
            raise ValueError(
                f"ansatz expects {self.parameter_count} parameters, got {params.shape}"
            )
        gates = []
        p = 0
        for _ in range(self.n_layers):
            for q in range(self.n_qubits):
                gates.append(qsim.RX(q, float(params[p])))
                gates.append(qsim.RY(q, float(params[p + 1])))
                p += 2
            for q in range(self.n_qubits):
                gates.append(qsim.CNOT(q, (q + 1) % self.n_qubits))
        return gates


@dataclass(frozen=True)
class Surrogate:
    """Ansatz + parameters + input and readout maps.

    input_map:  one (qubits, lo, hi, angular) per physical parameter; the
                value is uploaded once on each of `qubits`.
    readout:    one (qubit, lo, hi) per output coordinate; <Z> in [-1, 1]
                maps affinely onto [lo, hi].
    """

    ansatz: Ansatz
    params: np.ndarray
    input_map: Tuple[Tuple[Tuple[int, ...], float, float, bool], ...]
    readout: Tuple[Tuple[int, float, float], ...]

    @property
    def n_inputs(self) -> int:
        return len(self.input_map)

    @property
    def n_outputs(self) -> int:
        return len(self.readout)

    def with_params(self, params: np.ndarray) -> "Surrogate":
        return replace(self, params=np.asarray(params, dtype=float))


def workspace_box(model, grid: ParamGrid) -> Tuple[Tuple[float, float], ...]:
    """Output intervals that bound every reachable tip position."""
    names = grid.names()

    def length_hi(name: str, default: float) -> float:
        return grid.specs[names.index(name)].hi if name in names else default

    if isinstance(model, OneLink):
        r = length_hi("l1", model.l1)
        return ((-r, r), (-r, r))
    if isinstance(model, TwoLink):
        r = length_hi("l1", model.l1) + length_hi("l2", model.l2)
        return ((-r, r), (-r, r))
    if isinstance(model, DualArm):
        out = []
        for base, links in ((model.base1, model.links1), (model.base2, model.links2)):
            r = links[0] + links[1]
            out.append((base[0] - r, base[0] + r))
            out.append((base[1] - r, base[1] + r))
        return tuple(out)
    raise TypeError(f"unknown robot model {model!r}")


def min_qubits(grid: ParamGrid, model) -> int:
    """Fewest qubits a surrogate of this grid and model takes: max(inputs, readouts, 2)."""
    return max(grid.dimension, len(workspace_box(model, grid)), 2)


def make_surrogate(grid: ParamGrid, model, n_layers: int = 2,
                   n_qubits: Optional[int] = None) -> Surrogate:
    """Untrained surrogate wired to a grid: input i on each qubit of its block
    {q : q * d // n_qubits = i}, readouts on the top qubits, all angles zero.

    With n_qubits = d every input has one qubit. A 2-D readout of an angle
    needs at least two qubits per input, one copy for each coordinate.
    """
    low = min_qubits(grid, model)
    n_qubits = low if n_qubits is None else n_qubits
    if n_qubits < low:
        raise ValueError(f"need at least {low} qubits")
    box = workspace_box(model, grid)
    d, out = grid.dimension, len(box)
    ansatz = Ansatz(n_qubits, n_layers)
    inputs = tuple(
        (tuple(q for q in range(n_qubits) if q * d // n_qubits == i),
         s.lo, s.hi, s.angular)
        for i, s in enumerate(grid.specs)
    )
    readout = tuple(
        (n_qubits - out + j, lo, hi) for j, (lo, hi) in enumerate(box)
    )
    return Surrogate(ansatz, np.zeros(ansatz.parameter_count), inputs, readout)


# --- prediction ---------------------------------------------------------------

def input_angles(surrogate: Surrogate, z: np.ndarray) -> np.ndarray:
    """RY upload angle of each physical value.

    Values on a full turn map affinely onto [-pi, pi]. Other values, on a partial
    arc too, are clamped to [lo, hi] and encoded as arccos(z / max(|lo|, |hi|)).
    """
    z = np.asarray(z, dtype=float)
    angles = np.empty_like(z)
    for i, (_, lo, hi, angular) in enumerate(surrogate.input_map):
        if angular and full_turn(lo, hi):
            angles[..., i] = -math.pi + (z[..., i] - lo) / (hi - lo) * math.tau
        else:
            angles[..., i] = np.arccos(np.clip(z[..., i], lo, hi) / max(abs(lo), abs(hi)))
    return angles


def encode_input(surrogate: Surrogate, z: Sequence[float]) -> qsim.Circuit:
    """One RY per input parameter on each qubit of its block."""
    z = np.asarray(z, dtype=float)
    if z.shape != (surrogate.n_inputs,):
        raise ValueError(f"expected {surrogate.n_inputs} inputs, got {z.shape}")
    angles = input_angles(surrogate, z)
    return qsim.Circuit(surrogate.ansatz.n_qubits,
                        [qsim.RY(qubit, float(a))
                         for (qubits, *_), a in zip(surrogate.input_map, angles)
                         for qubit in qubits])


def _z_signs(n_qubits: int, qubit: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    return 1.0 - 2.0 * ((idx >> qubit) & 1)


def _input_states(surrogate: Surrogate, Z: np.ndarray) -> np.ndarray:
    """(B, 2^n) complex128 input states of a (B, d) batch.

    The uploads act on |0...0>, so each row's input state is a product of one
    RY(a)|0> = cos(a/2)|0> + sin(a/2)|1> factor per qubit, where a sums the
    angles uploaded on that qubit.
    """
    n = surrogate.ansatz.n_qubits
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.shape[1] != surrogate.n_inputs:
        raise ValueError(f"expected {surrogate.n_inputs} inputs per row, got {Z.shape[1]}")
    uploads = np.zeros((surrogate.n_inputs, n))
    for i, (qubits, *_) in enumerate(surrogate.input_map):
        uploads[i, list(qubits)] = 1.0
    half = input_angles(surrogate, Z) @ uploads / 2.0
    cos, sin = np.cos(half), np.sin(half)
    amps = np.ones((Z.shape[0], 1))
    for q in range(n):  # qubit q becomes the high bit of the index so far
        amps = np.concatenate([amps * cos[:, q:q + 1], amps * sin[:, q:q + 1]], axis=1)
    return amps.astype(np.complex128)


def _readout(surrogate: Surrogate, amps: np.ndarray) -> np.ndarray:
    """Outputs (..., n_outputs) of states (..., 2^n): each readout's <Z>
    mapped affinely onto its interval."""
    n = surrogate.ansatz.n_qubits
    probs = np.abs(amps) ** 2
    out = np.empty(amps.shape[:-1] + (surrogate.n_outputs,))
    for j, (qubit, lo, hi) in enumerate(surrogate.readout):
        # fixed-order pairwise sum over the last axis: a state reduces
        # identically whatever batch or stack it sits in
        z_expect = (probs * _z_signs(n, qubit)).sum(axis=-1)
        out[..., j] = lo + (z_expect + 1.0) / 2.0 * (hi - lo)
    return out


def _predict_batch(surrogate: Surrogate, Z: np.ndarray,
                   params: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorised prediction over a (B, d) batch; returns (B, n_outputs)."""
    theta = surrogate.params if params is None else params
    amps = _input_states(surrogate, Z)
    for gate in surrogate.ansatz.gates(theta):
        qsim._apply_gate_inplace(amps, gate, surrogate.ansatz.n_qubits)
    return _readout(surrogate, amps)


def predict(surrogate: Surrogate, z: Sequence[float]) -> np.ndarray:
    """Deterministic prediction for one configuration."""
    z = np.asarray(z, dtype=float)
    if z.shape != (surrogate.n_inputs,):
        raise ValueError(f"expected {surrogate.n_inputs} inputs, got {z.shape}")
    return _predict_batch(surrogate, z[None, :])[0]


# --- training ------------------------------------------------------------------

@dataclass(frozen=True)
class TrainingSet:
    """Configurations with labels from the analytical forward kinematics."""

    inputs: np.ndarray   # (B, d)
    labels: np.ndarray   # (B, n_outputs)

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0] or self.inputs.shape[0] == 0:
            raise ValueError("training set must be non-empty with matching shapes")

    @classmethod
    def from_grid(cls, grid: ParamGrid, model,
                  sample: Optional[int] = None, seed: int = 0) -> "TrainingSet":
        """Full-grid labels, or a seeded subsample of `sample` grid points;
        only the rows used are decoded."""
        grid.check_capacity()
        pick = None
        if sample is not None and sample < grid.size:
            pick = np.sort(np.random.default_rng(seed).choice(grid.size, sample, replace=False))
        Z = decode_all(grid, indices=pick)
        return cls(Z, configuration_positions(model, dict(zip(grid.names(), Z.T))))


def _mean_square(resid: np.ndarray) -> float:
    return float(np.mean(np.sum(resid ** 2, axis=1)))


def loss(surrogate: Surrogate, data: TrainingSet,
         params: Optional[np.ndarray] = None) -> float:
    """Mean over samples of the squared prediction error (summed over coords)."""
    return _mean_square(_predict_batch(surrogate, data.inputs, params) - data.labels)


def gradient(surrogate: Surrogate, data: TrainingSet,
             params: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
    """(loss, d loss / d theta) at theta, the gradient by the parameter-shift rule.

    For each rotation angle theta_j the prediction derivative is
    (pred(theta_j + pi/2) - pred(theta_j - pi/2)) / 2; the squared-loss chain
    rule contributes 2 * (pred - label).

    All 2P+1 circuits run in one pass over a stack of states: slot 0 holds
    the circuit at theta, and the two shifted copies of parameter j are
    copied from slot 0 just before theta_j's gate, so they share the gates
    before it. Training rows go through in blocks of the most rows (one at
    least) that keep the stack's (2P+1) * rows * 2^n complex values within
    GRADIENT_BLOCK_AMPS. The result is bit-identical to 2P+1 separate
    `_predict_batch` passes, and the loss, read off slot 0, to `loss`.
    """
    theta = np.asarray(surrogate.params if params is None else params, dtype=float)
    n = surrogate.ansatz.n_qubits
    slots = 2 * theta.size + 1
    rows = max(1, GRADIENT_BLOCK_AMPS // (slots << n))
    circuits = [surrogate.ansatz.gates(t)
                for t in (theta, theta + math.pi / 2, theta - math.pi / 2)]
    pred = np.empty((slots, data.inputs.shape[0], surrogate.n_outputs))
    for start in range(0, data.inputs.shape[0], rows):
        block = data.inputs[start:start + rows]
        amps = np.empty((slots, block.shape[0], 1 << n), dtype=np.complex128)
        amps[0] = _input_states(surrogate, block)
        live = 1
        for gate, plus, minus in zip(*circuits):
            if isinstance(gate, qsim.CNOT):  # the ansatz's only gate without a parameter
                qsim._apply_gate_inplace(amps[:live], gate, n)
                continue
            amps[live:live + 2] = amps[0]
            qsim._apply_gate_inplace(amps[:live], gate, n)
            qsim._apply_gate_inplace(amps[live], plus, n)
            qsim._apply_gate_inplace(amps[live + 1], minus, n)
            live += 2
        pred[:, start:start + block.shape[0]] = _readout(surrogate, amps)
    resid = pred[0] - data.labels
    return _mean_square(resid), np.mean(np.sum(resid * (pred[1::2] - pred[2::2]), axis=2), axis=1)


def train(surrogate: Surrogate, data: TrainingSet, epochs: int = 200,
          learning_rate: float = 0.1, seed: int = 0) -> Tuple[Surrogate, np.ndarray]:
    """Full-batch Adam from a seed-derived uniform [-pi, pi) init.

    `learning_rate` is Adam's step size; the moment decays and epsilon are the fixed
    ADAM_BETAS and ADAM_EPS. Returns the trained surrogate and the loss trace (length
    epochs + 1, starting at the initial loss), each epoch's loss from its gradient
    pass; identical seeds give identical traces. A non-finite loss raises TrainingError.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if learning_rate < 0:
        raise ValueError("learning rate must be non-negative")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, size=surrogate.ansatz.parameter_count)
    trace = np.empty(epochs + 1)
    beta1, beta2 = ADAM_BETAS
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for epoch in range(epochs + 1):
        if epoch == epochs:  # the final parameters take no gradient
            trace[epoch] = loss(surrogate, data, theta)
        else:
            trace[epoch], g = gradient(surrogate, data, theta)
        if not math.isfinite(trace[epoch]):
            raise TrainingError(f"loss diverged at epoch {epoch}")
        if epoch < epochs:
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** (epoch + 1))
            v_hat = v / (1.0 - beta2 ** (epoch + 1))
            theta = theta - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return surrogate.with_params(theta), trace


# --- serialization ----------------------------------------------------------------

def save_surrogate(surrogate: Surrogate, path) -> None:
    """Plain-text dump: ansatz metadata, input and readout maps, then one
    parameter per line. An input line reads `input <q,q,...> <lo> <hi>
    angular|linear`."""
    lines = ["qkinopt-surrogate 1"]
    lines.append(f"qubits {surrogate.ansatz.n_qubits} layers {surrogate.ansatz.n_layers}")
    for qubits, lo, hi, angular in surrogate.input_map:
        kind = "angular" if angular else "linear"
        lines.append(f"input {','.join(map(str, qubits))} {lo!r} {hi!r} {kind}")
    for qubit, lo, hi in surrogate.readout:
        lines.append(f"readout {qubit} {lo!r} {hi!r}")
    lines.append("params")
    lines.extend(repr(float(p)) for p in surrogate.params)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_surrogate(path) -> Surrogate:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].split() != ["qkinopt-surrogate", "1"]:
        raise ValueError("not a surrogate parameter file")
    if len(lines) < 2:
        raise ValueError("a file without a 'qubits <n> layers <n>' line is not in the "
                         "current format; retrain the surrogate")
    _, nq, _, nl = lines[1].split()
    inputs, readout, params = [], [], []
    section = "maps"
    for ln in lines[2:]:
        if ln == "params":
            section = "params"
            continue
        if section == "maps":
            kind, qubits, lo, hi, *flag = ln.split()
            if kind == "readout" and not flag:
                readout.append((int(qubits), float(lo), float(hi)))
            elif kind == "input" and flag in (["angular"], ["linear"]):
                inputs.append((tuple(int(q) for q in qubits.split(",")),
                               float(lo), float(hi), flag == ["angular"]))
            else:
                raise ValueError(f"map line {ln!r} is not in the current format "
                                 "(an input line ends in angular|linear); retrain the surrogate")
        else:
            params.append(float(ln))
    return Surrogate(
        Ansatz(int(nq), int(nl)),
        np.asarray(params, dtype=float),
        tuple(inputs),
        tuple(readout),
    )


# --- cost tables -------------------------------------------------------------------

def configuration_positions(model, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Analytic tip positions (..., 2 or 4) from one `fk_*` call.

    FK arguments bind by spec name (l1, theta1, ... / theta11.. for dual arms)
    to `columns`, arrays that broadcast together, such as the columns of a
    (B, d) batch; lengths missing there fall back to the model's fixed values.
    """
    def col(name: str, default: Optional[float] = None):
        if name in columns:
            return columns[name]
        if default is not None:
            return default
        raise ValueError(f"grid has no parameter named {name!r}")

    if isinstance(model, OneLink):
        return fk_one(col("l1", model.l1), col("theta1"))
    if isinstance(model, TwoLink):
        return fk_two(col("l1", model.l1), col("l2", model.l2),
                      col("theta1"), col("theta2"))
    if isinstance(model, DualArm):
        return fk_dual(model, col("theta11"), col("theta12"), col("theta21"), col("theta22"))
    raise TypeError(f"unknown robot model {model!r}")


def _task_rows(model, columns: Mapping[str, np.ndarray], task,
               weights: PoseWeights) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Tip positions of the configurations in `columns` and, if the task weighs
    them, the planar tip orientations (the sum of the joint angles)."""
    phis = None
    if isinstance(task, PoseTarget) and weights.alpha_R > 0:
        if not isinstance(model, (OneLink, TwoLink)):
            raise TypeError(f"orientation undefined for model {model!r}")
        phis = columns["theta1"]
        if isinstance(model, TwoLink):
            phis = phis + columns["theta2"]
    return configuration_positions(model, columns), phis


def configuration_costs(model, names: Tuple[str, ...], Z: np.ndarray,
                        task, weights: PoseWeights) -> np.ndarray:
    """Task cost for each row of Z using the analytical kinematics."""
    return task_cost(task, *_task_rows(model, dict(zip(names, Z.T)), task, weights), weights)


def configuration_errors(model, names: Tuple[str, ...], Z: np.ndarray,
                         task, weights: PoseWeights) -> np.ndarray:
    """Analytic verification error for each row of Z."""
    return task_error(task, *_task_rows(model, dict(zip(names, Z.T)), task, weights), weights)


def build_cost_table(grid: ParamGrid, model, task, weights: PoseWeights,
                     surrogate: Optional[Surrogate] = None,
                     error_floor: bool = False) -> Tuple[np.ndarray, Optional[float]]:
    """The one grid pass: the length-2^N diagonal of the cost observable and,
    if `error_floor`, the least analytic verification error over the grid
    (else None), kept as a running minimum over the `grid_blocks`.

    The cost reads the trained surrogate's tips, predicted from the block's
    decoded rows, or else the closed-form kinematics' tips (the verification
    oracle's) from its per-parameter columns, which the error always reads.
    Either lies on the block's C-order tensor of table rows, and the cost and
    error of the analytic tips share one `squared_deviation`."""
    if surrogate is not None and not isinstance(surrogate, Surrogate):
        raise ValueError(f"expected a trained Surrogate (None: analytic), got {surrogate!r}")
    if surrogate is not None and weights.alpha_R > 0:
        raise ValueError("surrogate predicts positions only")
    grid.check_capacity()
    names = grid.names()
    costs = np.empty(grid.size)
    floor = math.inf if error_floor else None
    for start, stop, cols in grid_blocks(grid):
        shape = np.broadcast_shapes(*(c.shape for c in cols))
        if surrogate is None or error_floor:
            tips, phis = _task_rows(model, dict(zip(names, cols)), task, weights)
            d2 = squared_deviation(task, tips)
            if error_floor:
                floor = min(floor, float(np.min(error_of_deviation(task, d2, phis, weights))))
        if surrogate is not None:
            tips = _predict_batch(surrogate, decode_all(grid, start, stop)).reshape(shape + (-1,))
            d2, phis = squared_deviation(task, tips), None
        costs[start:stop].reshape(shape)[...] = cost_of_deviation(task, d2, phis, weights)
    return costs, floor

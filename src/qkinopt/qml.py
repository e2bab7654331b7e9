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

The circuit is read in the Heisenberg picture (Schuld, Sweke & Meyer 2021):
the uploads act on |0...0>, so a row's input state psi(z) is a real product
state, and each readout is psi^T O_q psi with O_q = Re(U^H Z_q U), one matrix
for every row. Gradients are adjoint (Jones & Gacon 2020), one pass back
through the layers. Training is full-batch Adam, seeded, one gradient per
epoch, from input states that `train` builds once.

This module also builds the diagonal cost table that the search oracle
consumes: one `kinematics.task_cost` per basis state, from the trained
surrogate's predicted tips or from `kinematics.fk_chain` on each of the
model's chains, its only view of a model, whose grid columns bind by name.
`cost_blocks` is the one block-cost path over `grid_blocks` of the oracle's
cost: `build_cost_table` writes its blocks into the table and keeps their
least analytic `kinematics.task_error` as a running minimum; `harness.sweep`
keeps only each block's floor and tie count. `baselines.exhaustive_scan` walks
the same blocks on decoded rows, with a caller's cost function.
`configuration_costs` and `configuration_errors` give the analytic cost and
error of one row, bound as Python floats, or of a batch. `write_json` is the
one JSON writer, of `save_surrogate` and the harness reports, and `json_value`
the one value rule of `load_surrogate` and the harness readers.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from . import qsim
from .encoding import ParamGrid, decode_all, full_turn, grid_blocks
from .kinematics import (  # perfbench's tracer looks fk_one, fk_two and fk_dual up here
    PoseTarget,
    PoseWeights,
    chain_trig,
    fk_chain,
    fk_dual,
    fk_one,
    fk_two,
    squared_deviation,
    task_cost,
    task_error,
)

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# marks a saved surrogate file as current; a file without it must be retrained
SURROGATE_FORMAT = "qkinopt-surrogate 2"


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

    def angles(self, params: Sequence[float]) -> np.ndarray:
        """(n_layers, n_qubits, 2) RX and RY angles of a parameter vector."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.parameter_count,):
            raise ValueError(f"ansatz takes {self.parameter_count} parameters, got {params.shape}")
        return params.reshape(self.n_layers, self.n_qubits, 2)


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

    def with_params(self, params: np.ndarray) -> "Surrogate":
        return replace(self, params=np.asarray(params, dtype=float))


def workspace_box(model, grid: ParamGrid) -> Tuple[Tuple[float, float], ...]:
    """Output intervals that bound every tip: each chain's base (the origin if None) -+
    its summed maximum link lengths, a grid length's max or the model's length."""
    specs = dict(zip(grid.names(), grid.specs))
    return tuple((c - r, c + r) for base, links, _ in model.chains
                 for r in [sum(specs[name].hi if name in specs else length
                               for name, length in links)]
                 for c in base or (0.0, 0.0))


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


def _input_states(surrogate: Surrogate, Z: np.ndarray) -> np.ndarray:
    """(B, 2^n) float64 input states of a (B, d) batch.

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
    return amps


def _layer_unitaries(n_qubits: int, angles: np.ndarray) -> np.ndarray:
    """(..., 2^n, 2^n) unitaries of ansatz layers given their (..., n, 2) RX and
    RY angles: the Kronecker product of each qubit's RY(b).RX(a), qubit 0 the
    last factor (the least significant bit), then the CNOT ring i -> i+1."""
    rot = qsim._ry_matrix(angles[..., 1]) @ qsim._rx_matrix(angles[..., 0])  # (..., n, 2, 2)
    u = rot[..., n_qubits - 1, :, :]
    for q in range(n_qubits - 2, -1, -1):  # each factor doubles both axes
        u = (u[..., :, None, :, None] * rot[..., q, None, :, None, :]).reshape(
            rot.shape[:-3] + (2 * u.shape[-1],) * 2)
    ring = np.arange(1 << n_qubits)  # basis index each output index reads, gate by gate
    for q in range(n_qubits):
        ring = ring[qsim._cnot_source(q, (q + 1) % n_qubits, n_qubits)]
    return u[..., ring, :]


def _running_products(layers: np.ndarray) -> list:
    """[I, L_0, L_1 L_0, ..., U]: the circuit before each layer, then all of it."""
    return list(itertools.accumulate(layers, lambda done, layer: layer @ done,
                                     initial=np.eye(layers.shape[-1])))


def _observables(surrogate: Surrogate, u: np.ndarray) -> np.ndarray:
    """(..., n_outputs, 2^n, 2^n) observables Re(U^H Z_q U) = V^T diag(z_q, z_q) V of
    circuit unitaries U (..., 2^n, 2^n), where V stacks Re U on Im U."""
    idx = np.arange(2 << surrogate.ansatz.n_qubits)  # V's rows: bit n tells Re from Im
    signs = np.stack([1.0 - 2.0 * ((idx >> q) & 1) for q, _, _ in surrogate.readout])
    v = np.concatenate([u.real, u.imag], axis=-2)
    return (np.swapaxes(v, -1, -2)[..., None, :, :] * signs[:, None, :]) @ v[..., None, :, :]


def _readout(surrogate: Surrogate, states: np.ndarray, observables: np.ndarray) -> np.ndarray:
    """Outputs (B, n_outputs) of real states (B, 2^n): each readout's <Z>, the
    quadratic form of its observable, mapped affinely onto its interval."""
    # stacked one-row products: a row reduces identically whatever batch it sits in
    z_expect = (states[:, None, None, :] @ observables @ states[:, None, :, None])[..., 0, 0]
    lo, hi = np.array([(lo, hi) for _, lo, hi in surrogate.readout]).T
    return lo + (z_expect + 1.0) / 2.0 * (hi - lo)


def _predict_batch(surrogate: Surrogate, states: np.ndarray,
                   params: Optional[np.ndarray] = None) -> np.ndarray:
    """Predictions (B, n_outputs) of (B, 2^n) input states (`_input_states`)."""
    angles = surrogate.ansatz.angles(surrogate.params if params is None else params)
    u = _running_products(_layer_unitaries(surrogate.ansatz.n_qubits, angles))[-1]
    return _readout(surrogate, states, _observables(surrogate, u))


def predict(surrogate: Surrogate, z: Sequence[float]) -> np.ndarray:
    """Deterministic prediction for one configuration."""
    z = np.asarray(z, dtype=float)
    if z.shape != (surrogate.n_inputs,):
        raise ValueError(f"expected {surrogate.n_inputs} inputs, got {z.shape}")
    return _predict_batch(surrogate, _input_states(surrogate, z[None, :]))[0]


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
        Z = decode_all(grid, pick)
        planes = configuration_positions(model, dict(zip(grid.names(), Z.T)))
        return cls(Z, np.stack(planes, axis=-1))


def _mean_square(resid: np.ndarray) -> float:
    return float(np.mean(np.sum(resid ** 2, axis=1)))


def loss(surrogate: Surrogate, states: np.ndarray, labels: np.ndarray,
         params: Optional[np.ndarray] = None) -> float:
    """Mean over the input states' rows of the squared prediction error (summed over coords)."""
    return _mean_square(_predict_batch(surrogate, states, params) - labels)


def gradient(surrogate: Surrogate, states: np.ndarray, labels: np.ndarray,
             params: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
    """(loss, d loss / d theta) at theta by adjoint differentiation (Jones & Gacon 2020): with
    G_q = sum_b w_bq psi_b psi_b^T, w the residual times readout q's half span over the row
    count, and H = sum_q G_q U^H Z_q U, an angle of layer l has derivative 2 Im tr(N_l P),
    N_l = B_l H B_l^H, B_l the layers before it and P its generator on its qubit: X for RX,
    RX(a)^H Y RX(a) = cos(a) Y - sin(a) Z for RY. The loss is `loss`'s."""
    angles = surrogate.ansatz.angles(surrogate.params if params is None else params)
    products = _running_products(_layer_unitaries(surrogate.ansatz.n_qubits, angles))
    u, before = products[-1], np.stack(products[:-1])
    resid = _readout(surrogate, states, _observables(surrogate, u)) - labels
    value = _mean_square(resid)  # first: after a complex BLAS product its reduction ran 10x slower
    weights = resid * np.array([(hi - lo) / 2.0 for _, lo, hi in surrogate.readout]) / len(resid)
    g = (states.T * weights.T[:, None, :]) @ states  # G_q, (n_outputs, 2^n, 2^n)
    idx, bits = np.arange(len(u)), 1 << np.arange(surrogate.ansatz.n_qubits)[:, None]
    signs = np.where(idx & bits, -1.0, 1.0)  # (n, 2^n): the diagonal of each Z_q
    zu = u.conj().T * signs[[q for q, _, _ in surrogate.readout], None, :]  # U^H Z_q
    nl = before @ ((g @ zu).sum(axis=0) @ u) @ before.conj().swapaxes(-1, -2)  # (L, 2^n, 2^n)
    flip = nl[:, idx, idx ^ bits]  # (L, n, 2^n); tr(N_l Y_q) = i sum_i signs[q, i] flip[l, q, i]
    ry = (np.cos(angles[..., 0]) * (flip * signs).sum(axis=-1).real
          - np.sin(angles[..., 0]) * (nl[:, idx, idx] @ signs.T).imag)  # RY after RX(a)
    return value, 2.0 * np.stack([flip.sum(axis=-1).imag, ry], axis=-1).ravel()


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
    trace, states = np.empty(epochs + 1), _input_states(surrogate, data.inputs)
    beta1, beta2 = ADAM_BETAS
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises instead
        for epoch in range(epochs):
            trace[epoch], g = gradient(surrogate, states, data.labels, theta)
            if not math.isfinite(trace[epoch]):
                raise TrainingError(f"loss diverged at epoch {epoch}")
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** (epoch + 1))
            v_hat = v / (1.0 - beta2 ** (epoch + 1))
            theta = theta - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        # the final parameters take no gradient
        trace[epochs] = loss(surrogate, states, data.labels, theta)
    if not math.isfinite(trace[epochs]):
        raise TrainingError(f"loss diverged at epoch {epochs}")
    return surrogate.with_params(theta), trace


# --- serialization ----------------------------------------------------------------

def write_json(path, payload) -> None:
    """JSON with sorted keys, two-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_surrogate(surrogate: Surrogate, path) -> None:
    """The format marker, the ansatz size, the maps and the parameters, by `write_json`;
    the parameters' float reprs read back bit for bit."""
    write_json(path, {
        "format": SURROGATE_FORMAT, "qubits": surrogate.ansatz.n_qubits,
        "layers": surrogate.ansatz.n_layers, "params": surrogate.params.tolist(),
        "inputs": [{"qubits": list(q), "lo": lo, "hi": hi, "angular": angular}
                   for q, lo, hi, angular in surrogate.input_map],
        "readout": [{"qubit": q, "lo": lo, "hi": hi} for q, lo, hi in surrogate.readout]})


def json_value(kind, value, name: str):
    """kind(value) for a JSON value of kind bool, int, float or str: an integer counts as
    a float only within float range, and a boolean never counts as a number. Any other
    value, NaN and infinities too, raises one ValueError that begins with `name`, the key."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    want, valid = {bool: ("a boolean", isinstance(value, bool)),
                   int: ("an integer", number and isinstance(value, int)),
                   float: ("a finite number", number and abs(value) <= sys.float_info.max),
                   str: ("a string", isinstance(value, str))}[kind]
    if not valid:
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return kind(value)


def load_surrogate(path) -> Surrogate:
    """The surrogate `save_surrogate` wrote. A missing key raises KeyError. A file
    that is not JSON or lacks the format marker raises ValueError, and so does a
    value that no surrogate can use: a count, qubit index, parameter, bound or flag
    that `json_value` refuses as its kind, a qubit index outside [0, qubits) or a
    parameter count other than 2 * qubits * layers."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError:  # not JSON
            data = None
    if not isinstance(data, dict) or data.get("format") != SURROGATE_FORMAT:
        raise ValueError("not in the current format; retrain the surrogate")

    def fields(record, where, **kinds):
        return tuple(json_value(k, record[key], repr(where + key)) for key, k in kinds.items())

    ansatz = Ansatz(*fields(data, "", qubits=int, layers=int))
    params = np.array([json_value(float, p, f"'params[{k}]'")
                       for k, p in enumerate(data["params"])])
    if params.size != ansatz.parameter_count:
        raise ValueError(f"'params' must hold {ansatz.parameter_count} values, got {params.size}")
    inputs = tuple((tuple(json_value(int, q, f"'inputs[{k}].qubits[{j}]'")
                          for j, q in enumerate(i["qubits"])),
                    *fields(i, f"inputs[{k}].", lo=float, hi=float, angular=bool))
                   for k, i in enumerate(data["inputs"]))
    readout = tuple(fields(r, f"readout[{k}].", qubit=int, lo=float, hi=float)
                    for k, r in enumerate(data["readout"]))
    for q in [q for qubits, *_ in inputs for q in qubits] + [q for q, *_ in readout]:
        if not 0 <= q < ansatz.n_qubits:
            raise ValueError(f"qubit {q} lies outside [0, {ansatz.n_qubits})")
    return Surrogate(ansatz, params, inputs, readout)


# --- cost tables -------------------------------------------------------------------

def configuration_positions(model, columns: Mapping[str, np.ndarray],
                            trig=None) -> Tuple[np.ndarray, ...]:
    """Analytic tip coordinate planes, (x, y) per chain of `model.chains`, by `fk_chain`:
    a chain's joint angles and named link lengths bind by name to `columns`, arrays that
    broadcast together, such as a (B, d) batch's columns (a length not there is the
    chain's own), and `trig`, if given, holds each chain's `chain_trig`."""
    if not hasattr(model, "chains"):
        raise TypeError(f"unknown robot model {model!r}")
    planes, i = (), 0  # plain loops: this runs once per one-row objective evaluation
    try:
        for base, links, joints in model.chains:
            lengths, angles = [], []
            for name, length in links:
                lengths.append(columns.get(name, length))
            for name in joints:
                angles.append(columns[name])
            planes += fk_chain(lengths, angles, base, trig[i] if trig else None)
            i += 1
    except KeyError as missing:
        raise ValueError(f"grid has no parameter named {missing.args[0]!r}") from None
    return planes


def _task_rows(model, columns: Mapping[str, np.ndarray], task, weights: PoseWeights,
               trig=None) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The `squared_deviation` of the configurations in `columns` and, if the task
    weighs them, the planar tip orientation of the one chain (its joint angles' sum)."""
    planes, phis = configuration_positions(model, columns, trig), None
    if isinstance(task, PoseTarget) and weights.alpha_R > 0:
        if len(model.chains) > 1:
            raise TypeError(f"orientation undefined for model {model!r}")
        first, *rest = (columns[name] for name in model.chains[0][2])
        phis = sum(rest, first)
    return squared_deviation(task, planes), phis


def _configuration_rows(model, names, Z, task, weights):
    """`_task_rows` of each row of Z, or of the one row Z, bound as Python floats."""
    return _task_rows(model, dict(zip(names, Z.tolist() if Z.ndim == 1 else Z.T)), task, weights)


def configuration_costs(model, names: Tuple[str, ...], Z: np.ndarray,
                        task, weights: PoseWeights) -> np.ndarray:
    """Analytic task cost for each row of Z, or of the one row Z."""
    return task_cost(task, *_configuration_rows(model, names, Z, task, weights), weights)


def configuration_errors(model, names: Tuple[str, ...], Z: np.ndarray,
                         task, weights: PoseWeights) -> np.ndarray:
    """Analytic verification error for each row of Z, or of the one row Z."""
    return task_error(task, *_configuration_rows(model, names, Z, task, weights), weights)


def cost_blocks(grid: ParamGrid, model, task, weights: PoseWeights,
                surrogate: Optional[Surrogate], error_floor: bool):
    """(start, stop, costs, least error) of each `grid_blocks` block. The costs lie
    on the block's C-order tensor of rows and read the trained surrogate's tips,
    predicted from its decoded rows, or else the closed-form kinematics' tips from
    its columns. Its least analytic verification error (inf unless `error_floor`)
    shares their `squared_deviation`. The callers check the qubit cap and the joints. A
    chain keeps its `chain_trig` while the block start masked to its joint registers, its
    key, repeats: `grid_blocks` builds columns from those bits only."""
    names, memo = grid.names(), [(None, None)] * len(model.chains)  # each chain's (key, trig)
    masks = [sum((s.levels - 1) << shift for s, shift in zip(grid.specs, grid.shifts)
                 if s.name in joints) for *_, joints in model.chains]
    for start, stop, cols in grid_blocks(grid):
        shape, low = np.broadcast_shapes(*(c.shape for c in cols)), math.inf
        if surrogate is None or error_floor:
            columns = dict(zip(names, cols))
            for i, (mask, (*_, joints)) in enumerate(zip(masks, model.chains)):
                if memo[i][0] != start & mask:
                    memo[i] = start & mask, chain_trig([columns[name] for name in joints])
            d2, phis = _task_rows(model, columns, task, weights, [trig for _, trig in memo])
            if error_floor:
                low = float(np.min(task_error(task, d2, phis, weights)))
        if surrogate is not None:
            rows = decode_all(grid, np.arange(start, stop))
            tips = _predict_batch(surrogate, _input_states(surrogate, rows)).reshape(shape + (-1,))
            d2, phis = squared_deviation(task, np.moveaxis(tips, -1, 0)), None
        yield start, stop, np.broadcast_to(task_cost(task, d2, phis, weights), shape), low


def build_cost_table(grid: ParamGrid, model, task, weights: PoseWeights,
                     surrogate: Optional[Surrogate] = None,
                     error_floor: bool = False) -> Tuple[np.ndarray, Optional[float]]:
    """The length-2^N diagonal of the cost observable, from the `cost_blocks`,
    and, if `error_floor`, their least analytic verification error (else None)."""
    if surrogate is not None and not isinstance(surrogate, Surrogate):
        raise ValueError(f"expected a trained Surrogate (None: analytic), got {surrogate!r}")
    if surrogate is not None and weights.alpha_R > 0:
        raise ValueError("surrogate predicts positions only")
    grid.check_capacity()
    costs, floor = np.empty(grid.size), math.inf
    for start, stop, block, low in cost_blocks(grid, model, task, weights, surrogate, error_floor):
        costs[start:stop].reshape(block.shape)[...] = block
        floor = min(floor, low)
    return costs, floor if error_floor else None

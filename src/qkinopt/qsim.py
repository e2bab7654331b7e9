"""Dense statevector simulator: the gate-level reference.

Amplitudes are stored as a dense array indexed by basis integer,
little-endian qubit order: qubit 0 is the least significant bit of the basis
index. States built by gates are complex128; a Grover state
(`grover.AmplifiedState`) holds two real values and builds its float64
amplitudes when read. Gate kernels act on the last axis, so they also take
batches of states ``(..., 2**n_qubits)``. Gates preserve the norm up to
floating-point drift; drift beyond 1e-9 is a bug, so nothing renormalises.

No pipeline path runs `apply_circuit`, the kernels, `measure` or
`expectation_diagonal`: they are what the tests check the surrogate's
observables, the search's two-value sampler and its <C> against. `qml` takes
only the rotation matrices and the CNOT permutation from here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

QUBIT_CAP = 24


class CapacityError(ValueError):
    """Requested register size exceeds the configured simulator cap."""


# --- gate set -------------------------------------------------------------

@dataclass(frozen=True)
class Hadamard:
    target: int


@dataclass(frozen=True)
class RX:
    target: int
    angle: float


@dataclass(frozen=True)
class RY:
    target: int
    angle: float


@dataclass(frozen=True)
class RZ:
    target: int
    angle: float


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int


Gate = Union[Hadamard, RX, RY, RZ, CNOT]

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def _rx_matrix(angle) -> np.ndarray:
    """RX(angle), or one per entry, (..., 2, 2), of an array of angles."""
    c, s = np.cos(np.divide(angle, 2)), np.sin(np.divide(angle, 2))
    return np.moveaxis(np.array([[c, -1j * s], [-1j * s, c]], dtype=complex), (0, 1), (-2, -1))


def _ry_matrix(angle) -> np.ndarray:
    """RY(angle), or one per entry, (..., 2, 2), of an array of angles."""
    c, s = np.cos(np.divide(angle, 2)), np.sin(np.divide(angle, 2))
    return np.moveaxis(np.array([[c, -s], [s, c]], dtype=complex), (0, 1), (-2, -1))


def _rz_matrix(angle: float) -> np.ndarray:
    e = np.exp(-0.5j * angle)
    return np.array([[e, 0], [0, e.conjugate()]], dtype=np.complex128)


@dataclass
class StateVector:
    n_qubits: int
    amps: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def check_capacity(n_qubits: int) -> None:
    if not 1 <= n_qubits <= QUBIT_CAP:
        raise CapacityError(
            f"n_qubits={n_qubits} outside supported range [1, {QUBIT_CAP}]"
        )


def new_zero_state(n_qubits: int) -> StateVector:
    """|0...0>: amplitude 1 at index 0."""
    check_capacity(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def uniform_superposition(n_qubits: int) -> StateVector:
    """Equal real amplitude 1/sqrt(2^n) on every basis index."""
    check_capacity(n_qubits)
    dim = 1 << n_qubits
    amps = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    return StateVector(n_qubits, amps)


# --- kernels (operate in place on the last axis) ---------------------------

def apply_single_qubit(amps: np.ndarray, matrix: np.ndarray, target: int,
                       n_qubits: int) -> np.ndarray:
    """Apply a 2x2 matrix to `target` of every state along the last axis."""
    if not 0 <= target < n_qubits:
        raise IndexError(f"qubit {target} out of range for {n_qubits} qubits")
    lead = amps.shape[:-1]
    view = amps.reshape(*lead, 1 << (n_qubits - target - 1), 2, 1 << target)
    a0 = view[..., 0, :].copy()
    a1 = view[..., 1, :]
    view[..., 0, :] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    view[..., 1, :] = matrix[1, 0] * a0 + matrix[1, 1] * a1
    return amps


def apply_cnot(amps: np.ndarray, control: int, target: int,
               n_qubits: int) -> np.ndarray:
    if not 0 <= control < n_qubits:
        raise IndexError(f"qubit {control} out of range for {n_qubits} qubits")
    if not 0 <= target < n_qubits:
        raise IndexError(f"qubit {target} out of range for {n_qubits} qubits")
    if control == target:
        raise ValueError("CNOT control and target must differ")
    amps[...] = amps[..., _cnot_source(control, target, n_qubits)]
    return amps


@functools.lru_cache(maxsize=64)
def _cnot_source(control: int, target: int, n_qubits: int) -> np.ndarray:
    """Source index of every basis index under CNOT; read-only, shared by callers."""
    idx = np.arange(1 << n_qubits)
    src = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    src.flags.writeable = False
    return src


def _apply_gate_inplace(amps: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    if isinstance(gate, Hadamard):
        return apply_single_qubit(amps, _H_MATRIX, gate.target, n_qubits)
    if isinstance(gate, RX):
        return apply_single_qubit(amps, _rx_matrix(gate.angle), gate.target, n_qubits)
    if isinstance(gate, RY):
        return apply_single_qubit(amps, _ry_matrix(gate.angle), gate.target, n_qubits)
    if isinstance(gate, RZ):
        return apply_single_qubit(amps, _rz_matrix(gate.angle), gate.target, n_qubits)
    if isinstance(gate, CNOT):
        return apply_cnot(amps, gate.control, gate.target, n_qubits)
    raise TypeError(f"unknown gate {gate!r}")


# --- public operations ------------------------------------------------------

def apply_circuit(state: StateVector, gates: Sequence[Gate]) -> StateVector:
    """Apply the gates in order; returns a new StateVector. A gate on a qubit
    outside the state's register raises IndexError."""
    out = state.amps.copy()
    for gate in gates:
        _apply_gate_inplace(out, gate, state.n_qubits)
    return StateVector(state.n_qubits, out)


def expectation_diagonal(state: StateVector, costs: Sequence[float]) -> float:
    """<psi| diag(costs) |psi> = sum_k |a_k|^2 costs[k]."""
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (state.dim,):
        raise ValueError(f"costs must have length {state.dim}, got {costs.shape}")
    return float(state.probabilities() @ costs)


def measure(state: StateVector, shots: int, seed: int) -> dict:
    """Sample basis indices; returns {index: count} with counts summing to shots.

    Sampling uses a seeded PCG64 generator, so histograms are reproducible
    for a fixed (state, shots, seed) triple.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = state.probabilities()  # |a|^2 >= 0 already, so nothing needs clipping
    probs /= probs.sum()
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    nz = np.nonzero(counts)[0]
    return {int(k): int(counts[k]) for k in nz}

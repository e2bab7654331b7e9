"""Statevector kernels, the qubit cap, and the rotation matrices the surrogate uses.

Amplitudes are a dense array indexed by basis integer, little-endian qubit
order: qubit 0 is the least significant bit of the basis index. The kernels
act in place on the last axis, so they also take batches of states
``(..., 2**n_qubits)``, and preserve the norm up to floating-point drift;
drift beyond 1e-9 is a bug, so nothing renormalises.

`qml` takes the RX and RY matrices and the CNOT permutation from here, and
`grover` the qubit cap. No pipeline path runs the kernels, `measure` or
`expectation_diagonal`; they stay for perfbench, which wraps each by name,
and for the tests' gate-level reference. `measure` and
`expectation_diagonal` read only a state's `amps`, so they take a
`grover.AmplifiedState` as well as a dense state.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

QUBIT_CAP = 24


class CapacityError(ValueError):
    """Requested register size exceeds the configured simulator cap."""


def _rx_matrix(angle) -> np.ndarray:
    """RX(angle), or one per entry, (..., 2, 2), of an array of angles."""
    c, s = np.cos(np.divide(angle, 2)), np.sin(np.divide(angle, 2))
    return np.moveaxis(np.array([[c, -1j * s], [-1j * s, c]], dtype=complex), (0, 1), (-2, -1))


def _ry_matrix(angle) -> np.ndarray:
    """RY(angle), or one per entry, (..., 2, 2), of an array of angles."""
    c, s = np.cos(np.divide(angle, 2)), np.sin(np.divide(angle, 2))
    return np.moveaxis(np.array([[c, -s], [s, c]], dtype=complex), (0, 1), (-2, -1))


def check_capacity(n_qubits: int) -> None:
    if not 1 <= n_qubits <= QUBIT_CAP:
        raise CapacityError(
            f"n_qubits={n_qubits} outside supported range [1, {QUBIT_CAP}]"
        )


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


def expectation_diagonal(state, costs: Sequence[float]) -> float:
    """<psi| diag(costs) |psi> = sum_k |a_k|^2 costs[k] of any state with `amps`."""
    costs = np.asarray(costs, dtype=float)
    probs = np.abs(state.amps) ** 2
    if costs.shape != probs.shape:
        raise ValueError(f"costs must have length {probs.size}, got {costs.shape}")
    return float(probs @ costs)


def measure(state, shots: int, seed: int) -> dict:
    """Sample basis indices of any state with `amps`; returns {index: count}
    with counts summing to shots.

    Sampling uses a seeded PCG64 generator, so histograms are reproducible
    for a fixed (state, shots, seed) triple.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(state.amps) ** 2  # >= 0 already, so nothing needs clipping
    probs /= probs.sum()
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    nz = np.nonzero(counts)[0]
    return {int(k): int(counts[k]) for k in nz}

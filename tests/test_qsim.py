import math

import numpy as np
import pytest

from qkinopt import qsim
from qkinopt.qsim import CapacityError, expectation_diagonal, measure
from reference import (
    H,
    StateVector,
    apply_circuit,
    new_zero_state,
    random_gate_stream,
    rx,
    ry,
    rz,
    uniform_superposition,
)

INV_SQRT2 = 1 / math.sqrt(2)


def bell_state() -> StateVector:
    return apply_circuit(new_zero_state(2), [(H, 0), (0, 1)])


class TestNewZeroState:
    def test_two_qubits(self):
        np.testing.assert_array_equal(new_zero_state(2).amps, [1, 0, 0, 0])

    def test_one_qubit(self):
        np.testing.assert_array_equal(new_zero_state(1).amps, [1, 0])

    def test_three_qubits_norm(self):
        state = new_zero_state(3)
        assert state.amps[0] == 1
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)

    def test_capacity_errors(self):
        with pytest.raises(CapacityError):
            new_zero_state(0)
        with pytest.raises(CapacityError):
            new_zero_state(25)
        with pytest.raises(CapacityError):
            uniform_superposition(25)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_circuit(new_zero_state(1), [(H, 0)])
        np.testing.assert_allclose(out.amps, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_rx_pi(self):
        # dense 2x2 product: RX(pi) |0> = [cos(pi/2), -i sin(pi/2)] = [0, -i]
        out = apply_circuit(new_zero_state(1), [(rx(math.pi), 0)])
        np.testing.assert_allclose(out.amps, [0, -1j], atol=1e-15)

    def test_cnot_truth_table(self):
        # |10> = index 2 (qubit 1 set); control=1 flips target 0 -> |11>
        state = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
        out = apply_circuit(state, [(1, 0)])
        np.testing.assert_array_equal(out.amps, [0, 0, 0, 1])

    def test_little_endian_targets(self):
        # Hadamard on qubit 1 of |00> spreads over indices {0, 2}
        out = apply_circuit(new_zero_state(2), [(H, 1)])
        np.testing.assert_allclose(out.amps, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15)

    def test_invalid_index(self):
        with pytest.raises(IndexError):
            apply_circuit(new_zero_state(2), [(H, 2)])
        with pytest.raises(IndexError):
            apply_circuit(new_zero_state(2), [(0, 5)])
        with pytest.raises(ValueError):
            apply_circuit(new_zero_state(2), [(1, 1)])

    def test_does_not_mutate_input(self):
        state = new_zero_state(1)
        apply_circuit(state, [(H, 0)])
        np.testing.assert_array_equal(state.amps, [1, 0])


class TestApplyCircuit:
    def test_empty_circuit_identity(self):
        state = apply_circuit(new_zero_state(2), [(H, 0)])
        out = apply_circuit(state, [])
        np.testing.assert_array_equal(out.amps, state.amps)

    def test_hadamard_squared(self):
        out = apply_circuit(new_zero_state(1), [(H, 0), (H, 0)])
        np.testing.assert_allclose(out.amps, [1, 0], atol=1e-12)

    def test_bell_state(self):
        # by-hand matrix application: H then CNOT gives (|00> + |11>)/sqrt(2)
        np.testing.assert_allclose(
            bell_state().amps, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15
        )

    def test_qubit_count_mismatch(self):
        # a gate list for a larger register: every gate type refuses a target or
        # control outside the state's two qubits, and the state is left as it was
        state = new_zero_state(2)
        for q in (2, 3, -1):
            for gate in ((H, q), (rx(0.3), q), (ry(0.3), q), (rz(0.3), q), (q, 0), (0, q)):
                with pytest.raises(IndexError):
                    apply_circuit(state, [(H, 0), gate])
        np.testing.assert_array_equal(state.amps, [1, 0, 0, 0])


class TestUniformSuperposition:
    def test_three_qubits(self):
        state = uniform_superposition(3)
        np.testing.assert_allclose(state.amps, np.full(8, 1 / math.sqrt(8)))
        assert state.amps[0] == pytest.approx(0.35355, abs=1e-5)

    def test_one_qubit(self):
        np.testing.assert_allclose(uniform_superposition(1).amps, [INV_SQRT2] * 2)

    def test_two_qubits(self):
        np.testing.assert_allclose(uniform_superposition(2).amps, [0.5] * 4)

    def test_matches_hadamard_layer(self):
        out = apply_circuit(new_zero_state(3), [(H, q) for q in range(3)])
        np.testing.assert_allclose(out.amps, uniform_superposition(3).amps, atol=1e-15)


class TestExpectationDiagonal:
    def test_uniform_two_states(self):
        assert expectation_diagonal(uniform_superposition(1), [0, 2]) == pytest.approx(1.0)

    def test_basis_state_projector(self):
        state = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
        assert expectation_diagonal(state, [5.0, 6.0, 7.0, 8.0]) == 7.0

    def test_uniform_four_states(self):
        assert expectation_diagonal(uniform_superposition(2), [1, 2, 3, 4]) == pytest.approx(2.5)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            expectation_diagonal(uniform_superposition(2), [1, 2, 3])


class TestMeasure:
    def test_delta_distribution(self):
        amps = np.zeros(8, dtype=complex)
        amps[5] = 1.0
        assert measure(StateVector(3, amps), shots=100, seed=1) == {5: 100}

    def test_uniform_counts_within_binomial_bound(self):
        counts = measure(uniform_superposition(2), shots=4096, seed=42)
        assert sum(counts.values()) == 4096
        for k in range(4):
            assert abs(counts[k] - 1024) <= 150  # > 5 sigma of Bin(4096, 1/4)

    def test_seed_determinism(self):
        state = uniform_superposition(3)
        assert measure(state, 500, seed=7) == measure(state, 500, seed=7)
        assert measure(state, 500, seed=7) != measure(state, 500, seed=8)

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            measure(uniform_superposition(1), shots=0, seed=0)


class TestInvariants:
    def test_norm_preserved_by_random_circuits(self):
        state = uniform_superposition(5)
        for gate in random_gate_stream(500, 5, seed=0):
            state = apply_circuit(state, [gate])
            assert abs(np.linalg.norm(state.amps) ** 2 - 1.0) <= 1e-9

    def test_involutions(self):
        rng = np.random.default_rng(1)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(3, amps)
        twice_h = apply_circuit(apply_circuit(state, [(H, 1)]), [(H, 1)])
        np.testing.assert_allclose(twice_h.amps, state.amps, atol=1e-12)
        twice_cx = apply_circuit(apply_circuit(state, [(0, 2)]), [(0, 2)])
        np.testing.assert_allclose(twice_cx.amps, state.amps, atol=1e-12)

    def test_batched_kernel_matches_per_row(self):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        matrix = ry(0.8)
        expected = np.stack([
            qsim.apply_single_qubit(row.copy(), matrix, 1, 3) for row in batch
        ])
        out = qsim.apply_single_qubit(batch.copy(), matrix, 1, 3)
        np.testing.assert_allclose(out, expected, atol=1e-15)

import collections
import json
import math
import pathlib
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkinopt import encoding, harness, kinematics, qml, qsim
from qkinopt.encoding import ParamGrid, ParamSpec, decode, decode_all
from qkinopt.kinematics import (
    DualArm,
    GraspTask,
    OneLink,
    PoseTarget,
    PoseWeights,
    TwoLink,
    fk_one,
    squared_deviation,
    task_cost,
)
from qkinopt.qml import (
    Ansatz,
    TrainingSet,
    build_cost_table,
    configuration_costs,
    gradient,
    input_angles,
    load_surrogate,
    loss,
    make_surrogate,
    predict,
    save_surrogate,
    train,
    workspace_box,
)
from reference import ansatz_gates, apply_circuit, encode_input, new_zero_state, rx, ry
from tests_support import TWO_PI, first_format_text, shipped_case, verification_cases


def one_dof_grid(n=3):
    return ParamGrid((
        ParamSpec("l1", 0.1, 2.0, n),
        ParamSpec("theta1", 0.0, TWO_PI, n, angular=True),
    ))


def gate_level_predictions(s, Z, theta):
    """(rows, outputs): each row's own circuit, its uploads then the ansatz at
    theta, through the gate-level reference, and each readout's <Z> mapped affinely."""
    n = s.ansatz.n_qubits
    idx = np.arange(1 << n)
    out = []
    for z in Z:
        state = apply_circuit(new_zero_state(n), encode_input(s, z) + ansatz_gates(s.ansatz, theta))
        out.append([lo + (qsim.expectation_diagonal(state, 1.0 - 2.0 * ((idx >> q) & 1)) + 1.0)
                    / 2.0 * (hi - lo) for q, lo, hi in s.readout])
    return np.array(out)


def fit_args(s, data):
    """The input states and the labels of a training set, as `gradient` and `loss` take them."""
    return qml._input_states(s, data.inputs), data.labels


def predict_rows(s, Z, params=None):
    """`_predict_batch` on the input states of the rows Z."""
    return qml._predict_batch(s, qml._input_states(s, Z), params)


def random_surrogate(rng, n_qubits=3, n_layers=1):
    grid = ParamGrid((
        ParamSpec("l1", 0.1, 2.0, 2),
        ParamSpec("theta1", 0.0, TWO_PI, 2, angular=True),
    ))
    s = make_surrogate(grid, OneLink(), n_layers=n_layers, n_qubits=n_qubits)
    return s.with_params(rng.uniform(-math.pi, math.pi, s.ansatz.parameter_count)), grid


def random_training_set(rng, rows):
    # lengths run past the grid's [0.1, 2.0] so clamping is exercised too
    Z = np.column_stack([rng.uniform(0.0, 2.2, rows), rng.uniform(0.0, TWO_PI, rows)])
    return TrainingSet(Z, rng.uniform(-2.0, 2.0, size=(rows, 2)))


class TestBuildAnsatz:
    def test_parameter_counts(self):
        assert Ansatz(4, 2).parameter_count == 16
        assert Ansatz(3, 1).parameter_count == 6

    def test_two_qubit_single_layer_structure(self):
        gates = ansatz_gates(Ansatz(2, 1), [0.1, 0.2, 0.3, 0.4])
        expected = [(rx(0.1), 0), (ry(0.2), 0), (rx(0.3), 1), (ry(0.4), 1), (0, 1), (1, 0)]
        assert [target for _, target in gates] == [target for _, target in expected]
        for (first, _), (want, _) in zip(gates, expected):
            np.testing.assert_array_equal(first, want)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ansatz(1, 1)
        with pytest.raises(ValueError):
            Ansatz(2, 0)
        with pytest.raises(ValueError):
            ansatz_gates(Ansatz(2, 1), [0.0])


class TestEncodeInput:
    def test_midpoint_gives_identity_rotation(self):
        # the identity rotation sits at the angular midpoint theta = pi and, for
        # the length encoded relative to zero, at l1 = max(|lo|, |hi|) = 2.0
        s = make_surrogate(one_dof_grid(), OneLink())
        gates = encode_input(s, [2.0, math.pi])
        np.testing.assert_allclose([m for m, _ in gates], ry(np.zeros(2)), rtol=0, atol=1e-12)

    def test_minimum_gives_minus_pi(self):
        # theta = 0 still maps to -pi; the length minimum l1 = 0.1 maps to
        # arccos(0.1 / 2.0), so that cos(angle) is the length over its bound
        s = make_surrogate(one_dof_grid(), OneLink())
        gates = encode_input(s, [0.1, 0.0])
        np.testing.assert_allclose([m for m, _ in gates],
                                   ry(np.array([math.acos(0.05), -math.pi])), atol=1e-12)

    def test_injective_across_bins(self):
        # compare encoded states up to a global phase: angles of -pi and pi
        # differ as numbers but give the same state
        grid = ParamGrid((ParamSpec("a", 0.0, 1.0, 1), ParamSpec("b", 2.0, 3.0, 1)))
        s = make_surrogate(grid, OneLink())  # box irrelevant for angles
        zero = new_zero_state(s.ansatz.n_qubits)
        states = [apply_circuit(zero, encode_input(s, decode(grid, k))).amps
                  for k in range(grid.size)]
        for j in range(grid.size):
            for k in range(j):
                assert abs(np.vdot(states[j], states[k])) < 1 - 1e-9

    def test_each_input_uploaded_on_its_block(self):
        s = make_surrogate(one_dof_grid(), OneLink(), n_qubits=4)
        assert [qubits for qubits, *_ in s.input_map] == [(0, 1), (2, 3)]
        assert [target for _, target in encode_input(s, [1.0, 0.5])] == [0, 1, 2, 3]

    def test_lengths_outside_range_are_clamped(self):
        s = make_surrogate(one_dof_grid(), OneLink())
        outside = input_angles(s, np.array([[2.5, 1.0], [-0.3, 1.0]]))
        bounds = input_angles(s, np.array([[2.0, 1.0], [0.1, 1.0]]))
        np.testing.assert_array_equal(outside, bounds)

    def test_partial_arc_ends_upload_and_predict_apart(self):
        # on a quarter turn theta1 = 0 and pi/2 are the tips (l1, 0) and (0, l1); an
        # affine map onto [-pi, pi] would upload both as the same state, RY(-pi) and RY(pi)
        grid = ParamGrid((ParamSpec("l1", 0.1, 2.0, 3),
                          ParamSpec("theta1", 0.0, math.pi / 2, 3, angular=True)))
        s = make_surrogate(grid, OneLink(), n_qubits=4)
        s = s.with_params(np.random.default_rng(0).uniform(-math.pi, math.pi,
                                                           s.ansatz.parameter_count))
        ends = [[1.0, 0.0], [1.0, math.pi / 2]]
        zero = new_zero_state(s.ansatz.n_qubits)
        a, b = (apply_circuit(zero, encode_input(s, z)).amps for z in ends)
        assert abs(np.vdot(a, b)) < 1 - 1e-9
        assert np.abs(predict(s, ends[0]) - predict(s, ends[1])).max() > 1e-3

    @pytest.mark.parametrize("name", ["one_dof", "two_dof", "dual_arm"])
    def test_shipped_angles_are_full_turns(self, name):
        # so each shipped angle keeps its affine upload onto [-pi, pi]
        grid = harness.load_config(f"configs/{name}.json").grid
        assert all(encoding.full_turn(s.lo, s.hi) for s in grid.specs if s.angular)

    def test_dimension_mismatch(self):
        s = make_surrogate(one_dof_grid(), OneLink())
        with pytest.raises(ValueError):
            encode_input(s, [1.0])


class TestPredict:
    def test_zero_params_midpoint_hits_box_top(self):
        # all rotations are identity at zero parameters and the identity inputs
        # (l1 = 2.0, theta = pi), so the state stays |0...0>, <Z> = +1, and each
        # output sits at its upper endpoint
        s = make_surrogate(one_dof_grid(), OneLink(), n_layers=2)
        out = predict(s, [2.0, math.pi])
        np.testing.assert_allclose(out, [2.0, 2.0], atol=1e-12)

    def test_outputs_within_workspace_box(self):
        rng = np.random.default_rng(0)
        s, grid = random_surrogate(rng, n_qubits=4, n_layers=2)
        box = workspace_box(OneLink(), grid)
        for _ in range(25):
            z = [rng.uniform(0.1, 2.0), rng.uniform(0.0, TWO_PI)]
            out = predict(s, z)
            for v, (lo, hi) in zip(out, box):
                assert lo - 1e-12 <= v <= hi + 1e-12

    def test_batch_matches_gate_level_circuit(self):
        rng = np.random.default_rng(9)
        for n_qubits in (2, 3, 4):
            s, grid = random_surrogate(rng, n_qubits=n_qubits, n_layers=2)
            for z in decode_all(grid):
                np.testing.assert_allclose(predict(s, z),
                                           gate_level_predictions(s, [z], s.params)[0],
                                           atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_layer_unitaries_match_gate_level_circuit(self, n_qubits, n_layers, rows, seed):
        # the Kronecker product of each layer's rotations and the CNOT ring's
        # permutation, against the gates one by one
        rng = np.random.default_rng(seed)
        s, _ = random_surrogate(rng, n_qubits=n_qubits, n_layers=n_layers)
        Z = random_training_set(rng, rows).inputs
        np.testing.assert_allclose(predict_rows(s, Z),
                                   gate_level_predictions(s, Z, s.params), rtol=0, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        s, _ = random_surrogate(rng)
        z = [0.7, 1.3]
        np.testing.assert_array_equal(predict(s, z), predict(s, z))


class TestLoss:
    def test_zero_when_labels_match_predictions(self):
        rng = np.random.default_rng(2)
        s, grid = random_surrogate(rng)
        Z = decode_all(grid)
        labels = np.stack([predict(s, z) for z in Z])
        assert loss(s, *fit_args(s, TrainingSet(Z, labels))) == 0.0

    def test_single_sample_error_vector(self):
        rng = np.random.default_rng(3)
        s, _ = random_surrogate(rng)
        z = np.array([[0.5, 1.0]])
        label = predict(s, z[0]) - np.array([0.3, 0.4])
        assert loss(s, *fit_args(s, TrainingSet(z, label[None, :]))) == pytest.approx(0.25)

    def test_duplicating_samples_leaves_loss_unchanged(self):
        rng = np.random.default_rng(4)
        s, grid = random_surrogate(rng)
        Z = decode_all(grid)[:4]
        labels = np.tile([0.3, -0.2], (4, 1))
        single = loss(s, *fit_args(s, TrainingSet(Z, labels)))
        doubled = loss(s, *fit_args(s, TrainingSet(np.vstack([Z, Z]),
                                                   np.vstack([labels, labels]))))
        assert doubled == pytest.approx(single, rel=1e-15)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            TrainingSet(np.empty((0, 2)), np.empty((0, 2)))


class TestGradient:
    def test_shift_rule_single_qubit(self):
        # f(t) = <Z> after RX(t) is cos t; at t = pi/2 the derivative is -1
        def f(t):
            state = apply_circuit(new_zero_state(1), [(rx(t), 0)])
            return qsim.expectation_diagonal(state, [1.0, -1.0])

        t = math.pi / 2
        shift = (f(t + math.pi / 2) - f(t - math.pi / 2)) / 2
        fd = (f(t + 1e-6) - f(t - 1e-6)) / 2e-6
        assert shift == pytest.approx(-1.0, abs=1e-12)
        assert shift == pytest.approx(fd, abs=1e-6)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(4):
            s, grid = random_surrogate(rng, n_qubits=3, n_layers=1 + trial % 2)
            Z = decode_all(grid)[:: 3]
            labels = rng.uniform(-1.5, 1.5, size=(Z.shape[0], 2))
            states = qml._input_states(s, Z)
            _, g = gradient(s, states, labels)
            h = 1e-6
            for j in range(s.ansatz.parameter_count):
                plus = s.params.copy()
                plus[j] += h
                minus = s.params.copy()
                minus[j] -= h
                fd = (loss(s, states, labels, plus) - loss(s, states, labels, minus)) / (2 * h)
                assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_zero_residual_gives_zero_gradient(self):
        rng = np.random.default_rng(6)
        s, grid = random_surrogate(rng)
        Z = decode_all(grid)
        labels = np.stack([predict(s, z) for z in Z])
        _, g = gradient(s, qml._input_states(s, Z), labels)
        assert np.all(np.abs(g) <= 1e-9)


def shift_rule_gradient(predictions, data, theta):
    """Reference: the parameter-shift gradient from predictions(Z, params) at
    theta and at theta +- pi/2 e_j."""
    resid = predictions(data.inputs, theta) - data.labels
    grad = np.empty(theta.size)
    for j in range(theta.size):
        plus = theta.copy()
        plus[j] += math.pi / 2
        minus = theta.copy()
        minus[j] -= math.pi / 2
        dpred = predictions(data.inputs, plus) - predictions(data.inputs, minus)
        grad[j] = float(np.mean(np.sum(resid * dpred, axis=1)))
    return grad


def separate_shift_passes(s, data, theta):
    """Reference: one `_predict_batch` pass at theta and at theta +- pi/2 e_j."""
    return shift_rule_gradient(lambda Z, t: predict_rows(s, Z, t), data, theta)


def assert_close_in_max_norm(got, expected, rel, scale=None):
    """max |got - expected| within rel of max |expected|, or of `scale` if given."""
    scale = np.max(np.abs(expected)) if scale is None else scale
    assert np.max(np.abs(got - expected)) <= rel * scale


def gradient_bound(s, data):
    """The largest size a loss-gradient entry can take: |d<Z_q>/d theta_j| <= 1,
    so |d loss / d theta_j| <= mean_b sum_q |r_bq| (hi_q - lo_q), r the residuals."""
    resid = predict_rows(s, data.inputs) - data.labels
    spans = np.array([hi - lo for _, lo, hi in s.readout])
    return float(np.mean(np.sum(np.abs(resid) * spans, axis=1)))


class TestObservableGradient:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_equals_separate_and_gate_level_passes(self, n_qubits, n_layers, rows, seed):
        rng = np.random.default_rng(seed)
        s, _ = random_surrogate(rng, n_qubits=n_qubits, n_layers=n_layers)
        data = random_training_set(rng, rows)
        value, got = gradient(s, *fit_args(s, data))
        assert_close_in_max_norm(got, separate_shift_passes(s, data, s.params), 1e-12)
        assert np.float64(value).tobytes() == np.float64(loss(s, *fit_args(s, data))).tobytes()
        # each of the first rows through its own 2P+1 gate-level circuits
        head = TrainingSet(data.inputs[:3], data.labels[:3])
        reference = shift_rule_gradient(
            lambda Z, t: gate_level_predictions(s, Z, t), head, s.params)
        assert_close_in_max_norm(gradient(s, *fit_args(s, head))[1], reference, 1e-12)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(5, 8), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_bit_order_past_four_qubits(self, n_qubits, n_layers, rows, seed):
        # the adjoint gradient reads N_l at (i, i ^ 2^q) for qubit q: against the
        # parameter-shift references on registers wider than the fixture's. Past
        # 4 qubits a readout can be a parity of many factors, whose gradient is
        # 1e-4 of its bound while both sides sum terms of the bound's size, so
        # the error is taken relative to the bound
        rng = np.random.default_rng(seed)
        s, _ = random_surrogate(rng, n_qubits=n_qubits, n_layers=n_layers)
        data = random_training_set(rng, rows)
        assert_close_in_max_norm(gradient(s, *fit_args(s, data))[1],
                                 separate_shift_passes(s, data, s.params),
                                 1e-12, gradient_bound(s, data))
        head = TrainingSet(data.inputs[:1], data.labels[:1])
        reference = shift_rule_gradient(
            lambda Z, t: gate_level_predictions(s, Z, t), head, s.params)
        assert_close_in_max_norm(gradient(s, *fit_args(s, head))[1], reference, 1e-12,
                                 gradient_bound(s, head))

    def test_peak_memory_on_shipped_two_dof(self):
        # the shipped two_dof surrogate trains on its whole 2^16-row grid; a
        # gradient that ran the parameter-shift rule's 33 circuits over every row
        # would hold 33 * 65536 * 16 complex values (553 MB). The bound is the
        # peak measured for one gradient from the 33 shifted observables, 27.7 MB,
        # plus 25%; the adjoint gradient peaks at 27.4 MB, its input states included
        config = harness.load_config("configs/two_dof.json")
        s = make_surrogate(config.grid, config.model, n_layers=config.qml.n_layers,
                           n_qubits=config.qml.n_qubits)
        data = TrainingSet.from_grid(config.grid, config.model)
        assert data.inputs.shape[0] == 65536
        tracemalloc.start()
        try:
            gradient(s, *fit_args(s, data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 27.7e6


class TestTrain:
    def make_data(self, grid):
        return TrainingSet.from_grid(grid, OneLink())

    def test_loss_decreases_on_small_grid(self):
        grid = one_dof_grid(3)
        s = make_surrogate(grid, OneLink(), n_layers=2, n_qubits=4)
        trained, trace = train(s, self.make_data(grid), epochs=40,
                               learning_rate=0.3, seed=1)
        assert trace[-1] < trace[0]
        assert trained.params.shape == (16,)

    def test_zero_learning_rate_constant_trace(self):
        grid = one_dof_grid(2)
        s = make_surrogate(grid, OneLink(), n_qubits=4)
        _, trace = train(s, self.make_data(grid), epochs=5, learning_rate=0.0, seed=2)
        assert np.all(trace == trace[0])

    def test_identical_seeds_identical_traces(self):
        grid = one_dof_grid(2)
        s = make_surrogate(grid, OneLink(), n_qubits=4)
        data = self.make_data(grid)
        _, t1 = train(s, data, epochs=8, learning_rate=0.2, seed=9)
        _, t2 = train(s, data, epochs=8, learning_rate=0.2, seed=9)
        np.testing.assert_array_equal(t1, t2)

    def test_one_gradient_and_loss_per_epoch(self, monkeypatch):
        # benchmarks count epochs as module-level `gradient` calls
        calls = collections.Counter()

        def counted(name, fn):
            def run(*args):
                calls[name] += 1
                return fn(*args)
            return run

        for name in ("gradient", "loss"):
            monkeypatch.setattr(qml, name, counted(name, getattr(qml, name)))
        grid = one_dof_grid(2)
        s = make_surrogate(grid, OneLink(), n_qubits=4)
        train(s, self.make_data(grid), epochs=7, learning_rate=0.2, seed=3)
        assert calls == {"gradient": 7, "loss": 1}

    @pytest.mark.parametrize("epochs", [1, 12])
    def test_input_states_built_once_per_training(self, monkeypatch, epochs):
        # the states do not change during training: the gradients and the
        # final loss read the ones that `train` built first
        calls, seen = collections.Counter(), []
        build, grad = qml._input_states, qml.gradient

        def counted(*args):
            calls["states"] += 1
            return build(*args)

        def recording(s, states, *args):
            seen.append(states)
            return grad(s, states, *args)

        monkeypatch.setattr(qml, "_input_states", counted)
        monkeypatch.setattr(qml, "gradient", recording)
        grid = one_dof_grid(2)
        s = make_surrogate(grid, OneLink(), n_qubits=4)
        data = self.make_data(grid)
        train(s, data, epochs=epochs, learning_rate=0.2, seed=3)
        assert calls["states"] == 1
        assert all(states is seen[0] for states in seen)
        np.testing.assert_array_equal(seen[0], build(s, data.inputs))
        # another register width has other states
        wider = make_surrogate(grid, OneLink(), n_qubits=5)
        train(wider, data, epochs=epochs, learning_rate=0.2, seed=3)
        assert seen[-1].shape == (data.inputs.shape[0], 32)
        assert calls["states"] == 2

    @pytest.mark.parametrize("epochs, learning_rate, nan_label, epoch", [
        (1, math.nan, False, 1),  # the NaN step's parameters meet the final `loss` pass
        (3, math.nan, False, 1),  # ... and the second gradient's loss
        (3, 0.2, True, 0),        # a NaN label makes the initial loss NaN
    ], ids=["nan_step_final_loss", "nan_step_gradient_loss", "nan_label_initial_loss"])
    def test_divergence_names_first_nonfinite_epoch(self, epochs, learning_rate, nan_label,
                                                    epoch):
        grid = one_dof_grid(2)
        s = make_surrogate(grid, OneLink(), n_qubits=4)
        data = self.make_data(grid)
        if nan_label:
            labels = data.labels.copy()
            labels[0, 0] = math.nan
            data = TrainingSet(data.inputs, labels)
        with pytest.raises(qml.TrainingError, match=f"diverged at epoch {epoch}$"):
            train(s, data, epochs=epochs, learning_rate=learning_rate, seed=3)

    def test_validation(self):
        grid = one_dof_grid(2)
        s = make_surrogate(grid, OneLink(), n_qubits=4)
        with pytest.raises(ValueError):
            train(s, self.make_data(grid), epochs=0)
        with pytest.raises(ValueError):
            train(s, self.make_data(grid), learning_rate=-0.1)

    def test_from_grid_sampling_reproducible(self):
        grid = one_dof_grid(3)
        d1 = TrainingSet.from_grid(grid, OneLink(), sample=10, seed=3)
        d2 = TrainingSet.from_grid(grid, OneLink(), sample=10, seed=3)
        np.testing.assert_array_equal(d1.inputs, d2.inputs)
        assert d1.inputs.shape == (10, 2)

    @pytest.mark.parametrize("qubits, sample", [(2, 40), (3, 256), (6, 256)])
    def test_from_grid_decodes_only_the_sample(self, monkeypatch, qubits, sample):
        grid = shipped_case("two_dof", qubits_per_param=qubits).grid
        rows = []

        def counting(*args, **kwargs):
            out = decode_all(*args, **kwargs)
            rows.append(len(out))
            return out

        monkeypatch.setattr(qml, "decode_all", counting)
        data = TrainingSet.from_grid(grid, TwoLink(), sample=sample, seed=5)
        assert sum(rows) == sample
        # the rows that decoding the whole grid and then picking gives
        pick = np.sort(np.random.default_rng(5).choice(grid.size, sample, replace=False))
        Z = np.concatenate([decode_all(grid, np.array([k])) for k in pick])
        assert data.inputs.tobytes() == Z.tobytes()
        planes = qml.configuration_positions(TwoLink(), dict(zip(grid.names(), Z.T)))
        assert data.labels.tobytes() == np.stack(planes, axis=-1).tobytes()
        assert data.labels.shape == (sample, 2) and data.labels.flags.c_contiguous

    def test_from_grid_keeps_capacity_check(self):
        grid = shipped_case("two_dof", qubits_per_param=7).grid  # 28 qubits
        with pytest.raises(qsim.CapacityError):
            TrainingSet.from_grid(grid, TwoLink(), sample=10)
        with pytest.raises(qsim.CapacityError):
            TrainingSet.from_grid(grid, TwoLink())

    def test_from_grid_full_grid_when_sample_covers_it(self):
        grid = one_dof_grid(2)
        for sample in (None, grid.size, grid.size + 3):
            data = TrainingSet.from_grid(grid, OneLink(), sample=sample)
            assert data.inputs.tobytes() == decode_all(grid).tobytes()


class TestCostTable:
    def test_target_at_config_zero_is_minimum(self):
        grid = one_dof_grid(3)
        target = fk_one(*decode(grid, 0))
        costs, _ = build_cost_table(grid, OneLink(), PoseTarget(tuple(target)),
                                    PoseWeights(1.0, 0.0))
        assert costs[0] == 0.0
        assert costs.min() == 0.0

    def test_all_entries_non_negative(self):
        grid = one_dof_grid(3)
        costs, _ = build_cost_table(grid, OneLink(), PoseTarget((0.4, 0.3)),
                                    PoseWeights(1.0, 0.0))
        assert np.all(costs >= 0.0)

    def test_matches_direct_cost_exhaustively(self):
        # definitional round trip at every index, against the scalar cost path
        grid = ParamGrid((
            ParamSpec("theta1", 0.0, TWO_PI, 3, angular=True),
            ParamSpec("theta2", 0.0, TWO_PI, 3, angular=True),
            ParamSpec("l1", 0.1, 2.0, 2),
            ParamSpec("l2", 0.1, 2.0, 2),
        ))
        task = PoseTarget((1.0, 1.0))
        weights = PoseWeights(1.0, 0.0)
        costs, _ = build_cost_table(grid, TwoLink(), task, weights)
        from qkinopt.kinematics import fk_two

        for k in range(grid.size):
            t1, t2, l1, l2 = decode(grid, k)
            d2 = squared_deviation(task, fk_two(l1, l2, t1, t2))
            direct = task_cost(task, d2, None, weights)
            assert costs[k] == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_surrogate_table_runs(self):
        rng = np.random.default_rng(7)
        grid = one_dof_grid(2)
        s = make_surrogate(grid, OneLink(), n_qubits=4)
        s = s.with_params(rng.uniform(-1, 1, s.ansatz.parameter_count))
        costs, _ = build_cost_table(grid, OneLink(), PoseTarget((0.5, 0.5)),
                                    PoseWeights(1.0, 0.0), s)
        assert costs.shape == (grid.size,)
        assert np.all(costs >= 0.0)
        tips = predict_rows(s, decode_all(grid))
        np.testing.assert_array_equal(costs, np.sum((tips - [0.5, 0.5]) ** 2, axis=1))

    def test_surrogate_requires_instance(self):
        grid = one_dof_grid(2)
        with pytest.raises(ValueError):
            build_cost_table(grid, OneLink(), PoseTarget((0.5, 0.5)),
                             PoseWeights(1.0, 0.0), "surrogate")

    def test_surrogate_refuses_orientation_weight(self):
        grid = one_dof_grid(2)
        s = make_surrogate(grid, OneLink(), n_qubits=4)
        with pytest.raises(ValueError, match="positions only"):
            build_cost_table(grid, OneLink(), PoseTarget((0.5, 0.5), phi=0.7),
                             PoseWeights(1.0, 0.5), s)

    def test_orientation_weighted_table(self):
        grid = one_dof_grid(3)
        costs, _ = build_cost_table(grid, OneLink(), PoseTarget((0.5, 0.5), phi=0.7),
                                    PoseWeights(1.0, 0.5))
        z = decode(grid, 5)
        task = PoseTarget((0.5, 0.5), phi=0.7)
        expected = task_cost(task, squared_deviation(task, fk_one(*z)), z[1],
                             PoseWeights(1.0, 0.5))
        assert costs[5] == pytest.approx(expected, rel=1e-12)


# log2 block sizes of the streamed pass: one row per block, two rows, and one
# block larger than any grid here
BLOCK_BITS = [0, 1, 20]


def bits(table):
    return np.asarray(table, dtype=float).view(np.uint64)


def no_cost(task, weights):
    """An orientation weight without an orientation target: an error, no cost."""
    return isinstance(task, PoseTarget) and task.phi is None and weights.alpha_R > 0


class TestStreamedTables:
    """The one grid pass equals one-shot evaluation over the whole grid, and its
    error floor the least entry of the reference error table."""

    @pytest.mark.parametrize("block_bits", BLOCK_BITS)
    @settings(max_examples=60, deadline=None)
    @given(case=verification_cases())
    def test_analytic_tables_bit_identical(self, block_bits, case):
        grid, model, task, weights = case
        reference = harness._actual_error_table(grid, model, task, weights)
        if no_cost(task, weights):
            with pytest.raises(ValueError, match="angles are missing"):
                build_cost_table(grid, model, task, weights, error_floor=True)
            # the error reads no orientation without a target, so the pass
            # without the weight has the same error floor
            weights = PoseWeights(weights.alpha_p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoding, "BLOCK_BITS", block_bits)
            costs, floor = build_cost_table(grid, model, task, weights, error_floor=True)
            costs_only, no_floor = build_cost_table(grid, model, task, weights)
        Z = decode_all(grid)
        np.testing.assert_array_equal(
            bits(costs), bits(configuration_costs(model, grid.names(), Z, task, weights)))
        np.testing.assert_array_equal(bits(costs_only), bits(costs))
        assert no_floor is None
        assert floor.hex() == float(reference.min()).hex()

    @settings(max_examples=60, deadline=None)
    @given(case=verification_cases())
    def test_one_row_cost_is_table_entry(self, case):
        grid, model, task, weights = case
        if no_cost(task, weights):
            weights = PoseWeights(weights.alpha_p)
        costs, _ = build_cost_table(grid, model, task, weights)
        for k in range(grid.size):
            row = configuration_costs(model, grid.names(), decode(grid, k)[None, :], task,
                                      weights)
            np.testing.assert_array_equal(bits(row), bits(costs[k:k + 1]))

    @settings(max_examples=60, deadline=None)
    @given(case=verification_cases())
    def test_one_dimensional_row_cost_is_table_entry(self, case):
        # the baselines' objective passes each point as a 1-D row, whose tip
        # coordinates are scalars: its cost is one scalar, with the table entry's bits
        grid, model, task, weights = case
        if no_cost(task, weights):
            weights = PoseWeights(weights.alpha_p)
        costs, _ = build_cost_table(grid, model, task, weights)
        for k in range(grid.size):
            cost = configuration_costs(model, grid.names(), decode(grid, k), task, weights)
            assert np.ndim(cost) == 0
            np.testing.assert_array_equal(bits(cost), bits(costs[k]))

    @pytest.mark.parametrize("block_bits", BLOCK_BITS)
    @settings(max_examples=30, deadline=None)
    @given(case=verification_cases(), seed=st.integers(0, 2 ** 32 - 1))
    def test_surrogate_table_bit_identical(self, block_bits, case, seed):
        grid, model, task, weights = case
        weights = PoseWeights(weights.alpha_p)  # the surrogate predicts positions only
        s = make_surrogate(grid, model)
        s = s.with_params(np.random.default_rng(seed).uniform(
            -math.pi, math.pi, s.ansatz.parameter_count))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoding, "BLOCK_BITS", block_bits)
            costs, floor = build_cost_table(grid, model, task, weights, s, error_floor=True)
        tips = predict_rows(s, decode_all(grid))
        one_shot = task_cost(task, squared_deviation(task, np.moveaxis(tips, -1, 0)), None,
                             weights)
        np.testing.assert_array_equal(bits(costs), bits(one_shot))
        # the error floor is the analytic one, whatever tips the cost reads
        reference = harness._actual_error_table(grid, model, task, weights)
        assert floor.hex() == float(reference.min()).hex()

    @staticmethod
    def trig_calls(monkeypatch, block_bits):
        """The (theta1, theta2) columns of each `arm_trig` call, at `block_bits`."""
        calls = []

        def counted(theta1, theta2):
            calls.append((theta1, theta2))
            return kinematics.arm_trig(theta1, theta2)

        monkeypatch.setattr(encoding, "BLOCK_BITS", block_bits)
        monkeypatch.setattr(qml, "arm_trig", counted)
        return calls

    @pytest.mark.parametrize("error_floor", [False, True])
    def test_trig_once_per_pass_when_the_joints_fit_a_block(self, monkeypatch, error_floor):
        angles = [ParamSpec(name, -math.pi, math.pi, 2, angular=True)
                  for name in ("theta1", "theta2")]
        grid = ParamGrid((*angles, ParamSpec("l1", 0.5, 1.5, 2), ParamSpec("l2", 0.5, 1.0, 1)))
        task, weights = PoseTarget((0.9, 0.4), phi=0.3), PoseWeights(1.0, 0.5)
        reference = configuration_costs(TwoLink(), grid.names(), decode_all(grid), task, weights)
        calls = self.trig_calls(monkeypatch, 4)  # 8 blocks
        costs, _ = build_cost_table(grid, TwoLink(), task, weights, error_floor=error_floor)
        assert len(calls) == 1
        np.testing.assert_array_equal(bits(costs), bits(reference))

    @pytest.mark.parametrize("block_bits, arm2_keys", [(4, 8), (5, 4), (6, 2), (7, 1)])
    def test_dual_arm_trig_once_per_arm_and_key(self, monkeypatch, block_bits, arm2_keys):
        # arm 1 takes bits 0-3 and arm 2 bits 4-6: at 5 and 6 block bits, arm 2's
        # registers straddle the block boundary
        specs = [ParamSpec(name, lo, lo + TWO_PI, n, angular=True) for name, lo, n in
                 (("theta11", -1.0, 2), ("theta12", 0.0, 2), ("theta21", -2.0, 1),
                  ("theta22", -0.5, 2))]
        grid, task = ParamGrid(tuple(specs)), GraspTask((0.0, 1.2), 0.3, 0.4)
        reference = configuration_costs(DualArm(), grid.names(), decode_all(grid), task,
                                         PoseWeights())
        calls = self.trig_calls(monkeypatch, block_bits)
        costs, _ = build_cost_table(grid, DualArm(), task, PoseWeights())
        np.testing.assert_array_equal(bits(costs), bits(reference))
        arm2 = [(tuple(t1.ravel()), tuple(t2.ravel())) for t1, t2 in calls[1:]]
        assert len(calls) == 1 + arm2_keys  # arm 1 once, in the first block
        assert calls[0][0].size == 4 and len(set(arm2)) == len(arm2) == arm2_keys

    @pytest.mark.parametrize("block_bits, keys", [(2, 16), (3, 16), (4, 8), (6, 2)])
    def test_joints_above_the_block_keep_their_bits(self, monkeypatch, block_bits, keys):
        # the joints take bits 3-6, above the block or across its boundary
        grid = ParamGrid((ParamSpec("l1", 0.5, 1.5, 2), ParamSpec("l2", 0.5, 1.0, 1),
                          *[ParamSpec(name, -math.pi, math.pi, 2, angular=True)
                            for name in ("theta1", "theta2")]))
        task, weights = PoseTarget((0.9, 0.4), phi=0.3), PoseWeights(1.0, 0.5)
        reference = configuration_costs(TwoLink(), grid.names(), decode_all(grid), task, weights)
        calls = self.trig_calls(monkeypatch, block_bits)
        costs, floor = build_cost_table(grid, TwoLink(), task, weights, error_floor=True)
        np.testing.assert_array_equal(bits(costs), bits(reference))
        assert floor.hex() == float(harness._actual_error_table(
            grid, TwoLink(), task, weights).min()).hex()
        assert len(calls) == keys  # once per distinct sub-range of the joints

    def test_blocks_cover_each_row_once(self, monkeypatch):
        monkeypatch.setattr(encoding, "BLOCK_BITS", 2)
        seen = []

        def recording_blocks(grid):
            for start, stop, cols in encoding.grid_blocks(grid):
                seen.append((start, stop))
                yield start, stop, cols

        monkeypatch.setattr(qml, "grid_blocks", recording_blocks)
        qml.build_cost_table(one_dof_grid(2), OneLink(), PoseTarget((0.5, 0.5)),
                             PoseWeights())
        assert seen == [(0, 4), (4, 8), (8, 12), (12, 16)]


SPECIAL_FLOATS = [-0.0, 5e-324, 1.7e308, -1.7e308]


@st.composite
def saved_surrogates(draw):
    """A surrogate of 2-5 qubits and 1-3 layers with random input and readout
    maps, whose parameters hold a signed zero, the least subnormal and values
    near both ends of the float range among random finite floats."""
    n, layers = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    qubit, bound = st.integers(0, n - 1), st.floats(0.1, 5.0)
    inputs = tuple((tuple(draw(st.lists(qubit, min_size=1, max_size=n, unique=True))),
                    -draw(bound), draw(bound), draw(st.booleans()))
                   for _ in range(draw(st.integers(1, 3))))
    readout = tuple((draw(qubit), -draw(bound), draw(bound))
                    for _ in range(draw(st.integers(1, 4))))
    rest = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2 * n * layers - 4, max_size=2 * n * layers - 4)
    params = np.array(draw(st.permutations(SPECIAL_FLOATS + draw(rest))))
    return qml.Surrogate(Ansatz(n, layers), params, inputs, readout)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        s, grid = random_surrogate(rng, n_qubits=4, n_layers=2)
        path = tmp_path / "surrogate.params"
        save_surrogate(s, path)
        loaded = load_surrogate(path)
        assert loaded.ansatz == s.ansatz
        assert loaded.input_map == s.input_map
        assert loaded.readout == s.readout
        np.testing.assert_array_equal(loaded.params, s.params)
        z = [0.9, 2.2]
        np.testing.assert_array_equal(predict(loaded, z), predict(s, z))

    def test_rejects_old_format_input_line(self, tmp_path):
        rng = np.random.default_rng(8)
        s, _ = random_surrogate(rng)
        path = tmp_path / "surrogate.params"
        text = first_format_text(s)
        # the plain-text format JSON replaced, and that format with the
        # single-qubit, flagless input line that the affine encoding wrote
        flagless = "".join("input 0 0.1 2.0\n" if ln.startswith("input 0,") else ln
                           for ln in text.splitlines(keepends=True))
        for old in (text, flagless):
            path.write_text(old)
            with pytest.raises(ValueError, match="not in the current format"):
                load_surrogate(path)

    @settings(max_examples=60, deadline=None)
    @given(s=saved_surrogates())
    def test_round_trip_is_bit_exact(self, s):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "surrogate.params"
            save_surrogate(s, path)
            data = json.loads(path.read_text())
            loaded = load_surrogate(path)
        assert data["format"] == "qkinopt-surrogate 2"
        assert loaded.ansatz == s.ansatz
        assert loaded.params.tobytes() == s.params.tobytes()
        assert repr((loaded.input_map, loaded.readout)) == repr((s.input_map, s.readout))
        z = [(lo + hi) / 2 for _, lo, hi, _ in s.input_map]
        np.testing.assert_array_equal(predict(loaded, z), predict(s, z))

    @pytest.mark.parametrize("key", ["qubits", "layers", "params", "inputs", "readout"])
    def test_missing_key_raises_key_error(self, key, tmp_path):
        s, _ = random_surrogate(np.random.default_rng(8))
        path = tmp_path / "surrogate.params"
        save_surrogate(s, path)
        data = json.loads(path.read_text())
        del data[key]
        path.write_text(json.dumps(data))
        with pytest.raises(KeyError, match=key):
            load_surrogate(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(qubits="3"), "'qubits' must be an integer"),
        (lambda d: d.update(layers=1.0), "'layers' must be an integer"),
        (lambda d: d.update(format="qkinopt-surrogate 1"), "not in the current format"),
        (lambda d: d.update(format=None), "not in the current format"),
        # hand-edited files: each value is converted only from its own JSON type
        (lambda d: d.update(params=[str(p) for p in d["params"]]),
         "'params[0]' must be a finite number"),
        (lambda d: d["params"].__setitem__(0, True), "'params[0]' must be a finite number"),
        (lambda d: d["inputs"][0].update(lo="0.1"), "'inputs[0].lo' must be a finite number"),
        (lambda d: d["inputs"][0].update(qubits=[0.0]), "'inputs[0].qubits[0]' must be an integer"),
        (lambda d: d["inputs"][1].update(angular=1), "'inputs[1].angular' must be a boolean"),
        (lambda d: d["readout"][0].update(qubit=True), "'readout[0].qubit' must be an integer"),
        (lambda d: d["readout"][1].update(hi=None), "'readout[1].hi' must be a finite number"),
        # values of the right JSON type that no surrogate can use
        (lambda d: [r.update(qubit=12 + k) for k, r in enumerate(d["readout"])],
         "qubit 12 lies outside"),
        (lambda d: d["inputs"][0].update(qubits=[-1]), "qubit -1 lies outside"),
        (lambda d: d["params"].append(0.0), "'params' must hold"),
        (lambda d: d["params"].pop(), "'params' must hold"),
        (lambda d: d["params"].__setitem__(0, math.nan), "'params[0]' must be a finite number"),
        (lambda d: d["params"].__setitem__(0, -math.inf), "'params[0]' must be a finite number"),
        (lambda d: d["inputs"][1].update(hi=math.inf), "'inputs[1].hi' must be a finite number"),
        (lambda d: d["readout"][0].update(lo=math.nan), "'readout[0].lo' must be a finite number"),
        (lambda d: d["params"].__setitem__(0, 10**400), "'params[0]' must be a finite number"),
    ], ids=["qubits_string", "layers_float", "first_format_marker", "no_marker",
            "params_strings", "param_bool", "bound_string", "input_qubit_float",
            "angular_int", "readout_qubit_bool", "bound_null", "readout_qubits_past_register",
            "input_qubit_negative", "params_too_many", "params_too_few", "param_nan",
            "param_minus_infinity", "input_bound_infinity", "readout_bound_nan",
            "param_past_float_range"])
    def test_wrong_types_and_markers_refused(self, edit, message, tmp_path):
        # every refusal is one ValueError, and a wrong JSON type names its key
        s, _ = random_surrogate(np.random.default_rng(8))
        path = tmp_path / "surrogate.params"
        save_surrogate(s, path)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_surrogate(path)

    def test_loaded_values_have_their_types(self, tmp_path):
        # integral bounds and parameters, as a hand-written file may hold them,
        # load as floats
        s, _ = random_surrogate(np.random.default_rng(8))
        path = tmp_path / "surrogate.params"
        save_surrogate(s, path)
        data = json.loads(path.read_text())
        data["params"][0] = 1
        data["inputs"][0].update(lo=0, hi=2)
        path.write_text(json.dumps(data))
        loaded = load_surrogate(path)
        assert loaded.params.dtype == np.float64 and loaded.params[0] == 1.0
        assert [type(v) for v in loaded.input_map[0]] == [tuple, float, float, bool]
        assert [type(v) for v in loaded.readout[0]] == [int, float, float]

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a parameter file\n")
        with pytest.raises(ValueError):
            load_surrogate(path)


class TestWorkspaceBox:
    def test_one_link_box_from_grid(self):
        assert workspace_box(OneLink(), one_dof_grid()) == ((-2.0, 2.0), (-2.0, 2.0))

    def test_two_link_box(self):
        grid = ParamGrid((
            ParamSpec("theta1", 0.0, TWO_PI, 2, angular=True),
            ParamSpec("theta2", 0.0, TWO_PI, 2, angular=True),
            ParamSpec("l1", 0.1, 2.0, 2),
            ParamSpec("l2", 0.1, 1.5, 2),
        ))
        assert workspace_box(TwoLink(), grid) == ((-3.5, 3.5), (-3.5, 3.5))

    def test_configuration_costs_scalar_row(self):
        grid = one_dof_grid(2)
        z = np.array([1.0, 0.5])
        got = configuration_costs(OneLink(), grid.names(), z[None, :],
                                  PoseTarget((0.2, 0.1)), PoseWeights(1.0, 0.0))
        task = PoseTarget((0.2, 0.1))
        expected = task_cost(task, squared_deviation(task, fk_one(1.0, 0.5)), None,
                             PoseWeights(1.0, 0.0))
        assert got[0] == pytest.approx(expected, rel=1e-14)

"""Acceptance suite: one test per release criterion, each printing a PASS line
(run with ``pytest -s tests/test_acceptance.py`` to see them).

Criterion 5c (surrogate accuracy) needs an injective input encoding: the
link length is encoded relative to zero (cos(angle) = l1 / max(|lo|, |hi|))
and uploaded on two qubits, as is the joint angle, so that each of the two
readouts has its own copy of cos(theta) and sin(theta).
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.stats

import reference
from qkinopt import grover, harness, qsim
from qkinopt.baselines import exhaustive_scan
from qkinopt.encoding import ParamGrid, ParamSpec, decode, decode_all, encode
from qkinopt.grover import iteration_count, minimal_epsilon, search_with_state
from qkinopt.harness import (
    COMPARISON_HEADER,
    QmlSettings,
    compare,
    emit_report,
    run_baselines,
    run_case,
    write_table,
)
from qkinopt.kinematics import OneLink
from qkinopt.qml import (
    TrainingSet,
    _input_states,
    build_cost_table,
    configuration_costs,
    gradient,
    loss,
    make_surrogate,
    predict,
    train,
)
from tests_support import TWO_PI, shipped_case


def exhaustive_reference(config):
    names = config.grid.names()

    def fn(Z):
        return configuration_costs(config.model, names, Z, config.task, config.weights)

    return exhaustive_scan(config.grid, fn)


# --- criterion 1 ------------------------------------------------------------------

def test_criterion_1_grover_analytics():
    """Empirical amplification matches the closed-form success probability."""
    start = time.monotonic()
    shots = 10000
    rng = np.random.default_rng(0)
    for M, m in [(4, 1), (8, 1), (16, 1), (256, 4), (1024, 16)]:
        n = M.bit_length() - 1
        grid = ParamGrid((ParamSpec("x", 0.0, 1.0, n),))
        costs = np.ones(M)
        costs[rng.choice(M, m, replace=False)] = 0.0
        K = math.floor(math.pi / 4 * math.sqrt(M / m))
        result, state = search_with_state(grid, np.flatnonzero(costs <= 0.5), 0.5, shots,
                                          seed=101)
        assert result["queries"] == K
        p = state.p_marked
        assert p == pytest.approx(reference.success_probability(M, m, K), abs=1e-12)
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(result["marked_probability"] - p) <= 3 * sigma + 1e-12
        if (M, m) == (4, 1):
            assert p >= 1.0 - 1e-9
            assert result["marked_probability"] == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1 (grover analytics): PASS ({elapsed:.1f}s)")


# --- criterion 2 ------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    """Across 100 seeded runs per case, the quantum pipeline lands on the
    exhaustive grid minimum (bit-exact cost equality; index equality whenever
    the minimum is unique)."""
    start = time.monotonic()
    for name in ("one_dof", "two_dof", "dual_arm"):
        config0 = shipped_case(name, qubits_per_param=4)
        idx_ref, best_cost, _ = exhaustive_reference(config0)
        costs, _ = build_cost_table(config0.grid, config0.model, config0.task,
                                    config0.weights)
        unique_minimum = int((costs == best_cost).sum()) == 1
        hits = 0
        for seed in range(100):
            report, _ = run_case(dataclasses.replace(config0, seed=seed))
            ok = report["analytic_best_cost"] == best_cost and report["result"]["accepted"]
            if unique_minimum:
                ok = ok and report["result"]["index"] == idx_ref
            hits += ok
        assert hits >= 99, f"{config0.case}: {hits}/100"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 2 (oracle equivalence): PASS ({elapsed:.1f}s)")


# --- criterion 3 ------------------------------------------------------------------

def test_criterion_3_query_count_ratio(tmp_path):
    """Wall-clock speedups are not reproducible here; the substitute metric is
    the exhaustive/Grover query ratio at M = 4096 with at most 4 solutions."""
    # closed-form anchor
    K = iteration_count(4096, 4)
    assert K == 25
    assert 4096 / K == pytest.approx(163.8, abs=0.1)

    # full machinery on a 12-qubit table with exactly four minimum-cost states
    grid = ParamGrid(tuple(ParamSpec(nm, 0.0, 1.0, 4) for nm in "abc"))
    rng = np.random.default_rng(7)
    costs = rng.uniform(0.1, 1.0, grid.size)
    minima = rng.choice(grid.size, 4, replace=False)
    costs[minima] = 0.05
    eps = minimal_epsilon(float(costs.min()), 1.0)
    assert grover.count_solutions(costs, eps) == 4
    result, _ = search_with_state(grid, np.flatnonzero(costs <= eps), eps, shots=10000,
                                  seed=3)
    assert result["queries"] == 25
    assert result["index"] in minima

    def table_lookup(Z):
        return np.array([costs[encode(grid, z)] for z in Z])

    _, scan_best, scan_evals = exhaustive_scan(grid, table_lookup)
    assert scan_evals == 4096 and scan_best == 0.05
    ratio = scan_evals / result["queries"]
    assert ratio >= 100.0

    rows = [
        {"method": "grover", "evaluations": result["queries"],
         "best_cost": float(costs[result["index"]]), "accepted": True,
         "evals_over_grover": 1.0},
        {"method": "exhaustive", "evaluations": scan_evals, "best_cost": scan_best,
         "accepted": True, "evals_over_grover": ratio},
    ]
    path = tmp_path / "comparison.csv"
    header = ["method", "evaluations", "best_cost", "accepted", "evals_over_grover"]
    harness.write_csv(path, header, [[row[h] for h in header] for row in rows])
    text = path.read_text()
    assert "exhaustive,4096" in text and f",{ratio}" in text.replace("\n", ",")
    print(f"criterion 3 (query-count ratio): PASS (ratio {ratio:.1f})")


# --- criterion 4 ------------------------------------------------------------------

def test_criterion_4_resolution_bound():
    """Grid resolution bounds achievable accuracy: the accepted position error
    stays within twice the exhaustive error floor, and the quantum and
    exhaustive minima coincide exactly."""
    config = shipped_case("one_dof", seed=6)
    report, _ = run_case(config)
    result = report["result"]
    _, best_cost, _ = exhaustive_reference(config)
    floor = math.sqrt(best_cost)  # position error of the best grid point
    assert result["accepted"]
    assert result["e_actual"] <= 2 * floor + 1e-15
    assert report["analytic_best_cost"] == best_cost
    print(f"criterion 4 (resolution bound): PASS (error {result['e_actual']:.4g} "
          f"<= 2 x {floor:.4g})")


# --- criterion 5 ------------------------------------------------------------------

def one_dof_training_grid():
    return ParamGrid((
        ParamSpec("l1", 0.1, 2.0, 3),
        ParamSpec("theta1", 0.0, TWO_PI, 3, angular=True),
    ))


@pytest.fixture(scope="module")
def trained_surrogate():
    grid = one_dof_training_grid()
    data = TrainingSet.from_grid(grid, OneLink())
    base = make_surrogate(grid, OneLink(), n_layers=2, n_qubits=4)
    trained, trace = train(base, data, epochs=500, learning_rate=0.3, seed=185)
    return grid, data, trained, trace


def test_criterion_5a_parameter_shift_gradients():
    """The gradients match central finite differences on 50 random surrogates
    of up to 4 qubits. `qml.gradient` differentiates by one adjoint pass; the
    parameter-shift rule is the reference that tests/test_qml.py checks it
    against."""
    rng = np.random.default_rng(42)
    grid = ParamGrid((
        ParamSpec("l1", 0.1, 2.0, 2),
        ParamSpec("theta1", 0.0, TWO_PI, 2, angular=True),
    ))
    h = 1e-6
    for _ in range(50):
        n_qubits = int(rng.integers(2, 5))
        n_layers = int(rng.integers(1, 3))
        s = make_surrogate(grid, OneLink(), n_layers=n_layers, n_qubits=n_qubits)
        s = s.with_params(rng.uniform(-math.pi, math.pi, s.ansatz.parameter_count))
        Z = decode_all(grid)[rng.choice(grid.size, 6, replace=False)]
        labels = rng.uniform(-2.0, 2.0, size=(6, 2))
        states = _input_states(s, Z)
        _, g = gradient(s, states, labels)
        for j in range(s.ansatz.parameter_count):
            plus, minus = s.params.copy(), s.params.copy()
            plus[j] += h
            minus[j] -= h
            fd = (loss(s, states, labels, plus) - loss(s, states, labels, minus)) / (2 * h)
            assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(fd))
    print("criterion 5a (parameter-shift gradients): PASS")


def test_criterion_5b_training_reduces_loss(trained_surrogate):
    """Gradient descent cuts the loss at least tenfold within 500 epochs."""
    _, _, _, trace = trained_surrogate
    ratio = trace[0] / trace[-1]
    assert trace[-1] <= trace[0] / 10.0, f"reduction only {ratio:.1f}x"
    print(f"criterion 5b (training reduces loss): PASS ({ratio:.1f}x)")


def test_criterion_5c_surrogate_accuracy(trained_surrogate):
    """Target: >= 90% of grid predictions within 0.1 m of the analytic FK.

    The length encoding must be injective: a map that sends l1 = lo and
    l1 = hi to RY(-pi) and RY(pi) gives both the same state, so every circuit
    predicts the same tip for them and at least 8 of the 64 points miss.
    """
    grid, data, trained, _ = trained_surrogate
    errors = np.array([
        np.linalg.norm(predict(trained, z) - label)
        for z, label in zip(data.inputs, data.labels)
    ])
    fraction = float((errors <= 0.1).mean())
    assert fraction >= 0.90, (
        f"only {fraction:.1%} of grid points within 0.1 m "
        f"(max error {errors.max():.3f} m); bound by the encoding's function class"
    )
    print(f"criterion 5c (surrogate accuracy): PASS ({fraction:.1%})")


# --- criterion 6 ------------------------------------------------------------------

def test_criterion_6_verification_gate():
    """Configurations marked by an untrained surrogate but failing the analytic
    check are rejected rather than returned as solutions."""
    config = shipped_case("one_dof", qubits_per_param=4, seed=1, mode="surrogate")
    config = dataclasses.replace(config, qml=QmlSettings(n_qubits=4, n_layers=2))
    untrained = make_surrogate(config.grid, config.model, n_layers=2, n_qubits=4)
    report, _ = run_case(config, surrogate=untrained)
    result = report["result"]
    assert result["accepted"] is False
    assert result["e_actual"] > report["tolerance"]
    print(f"criterion 6 (verification gate): PASS (rejected at "
          f"e={result['e_actual']:.3f} > {report['tolerance']:.3f})")


# --- criterion 7 ------------------------------------------------------------------

def test_criterion_7_simulator_algebra():
    """Norm drift, involutions, and measurement statistics."""
    state = reference.uniform_superposition(6)
    for gate in reference.random_gate_stream(10000, n_qubits=6, seed=0):
        state = reference.apply_circuit(state, [gate])
        drift = abs(np.linalg.norm(state.amps) ** 2 - 1.0)
        assert drift <= 1e-9

    rng = np.random.default_rng(1)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    base = reference.StateVector(5, amps)
    for involution in (
        lambda s: reference.apply_circuit(s, [(reference.H, 2)]),
        lambda s: reference.apply_circuit(s, [(1, 3)]),
        lambda s: reference.apply_oracle(s, np.arange(32) % 5 == 0),
        reference.apply_diffusion,
    ):
        out = involution(involution(base))
        np.testing.assert_allclose(out.amps, base.amps, atol=1e-12)

    quantile = scipy.stats.chi2.ppf(0.999, 255)
    for seed in (0, 1, 2):
        counts = qsim.measure(reference.uniform_superposition(8), shots=10000, seed=seed)
        observed = np.zeros(256)
        for k, c in counts.items():
            observed[k] = c
        expected = 10000 / 256
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic < quantile
    print("criterion 7 (simulator algebra): PASS")


# --- criterion 8 ------------------------------------------------------------------

def test_criterion_8_encoding_round_trip():
    """encode(decode(k)) = k for every index at up to 10 qubits per parameter,
    and decoded values always stay inside their declared ranges."""
    for n in range(1, 11):
        for spec in (
            ParamSpec("l", 0.1, 2.0, n),
            ParamSpec("t", 0.0, TWO_PI, n, angular=True),
            ParamSpec("s", -3.7, 11.3, n),
            # a narrow range far from zero, where (z - min) / range * (2^n - 1) rounds
            # across a bin boundary: flooring it put 57 of 256 indices one bin low at
            # n = 8, and 441 of 1,024 at n = 10
            ParamSpec("f", 100.0, 100.001, n),
        ):
            grid = ParamGrid((spec,))
            for k in range(grid.size):
                assert encode(grid, decode(grid, k)) == k
            table = decode_all(grid)
            assert np.all(table[:, 0] >= spec.lo) and np.all(table[:, 0] <= spec.hi)

    mixed = ParamGrid((
        ParamSpec("l1", 0.1, 2.0, 5),
        ParamSpec("theta1", 0.0, TWO_PI, 5, angular=True),
        ParamSpec("theta2", -math.pi, math.pi, 4, angular=True),
    ))
    for k in range(mixed.size):
        assert encode(mixed, decode(mixed, k)) == k
    print("criterion 8 (encoding round trip): PASS")


# --- criterion 9 ------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    """Identical config and seed reproduce byte-identical CSV outputs."""
    def produce(directory):
        config = shipped_case("one_dof", seed=17)
        report, surrogate = run_case(config)
        rows = compare(report, run_baselines(config))
        emit_report(report, surrogate, str(directory))
        write_table(str(directory / "comparison.csv"), COMPARISON_HEADER, rows)

    produce(tmp_path / "first")
    produce(tmp_path / "second")
    for name in ("trace.csv", "comparison.csv", "report.json"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
    print("criterion 9 (determinism): PASS")

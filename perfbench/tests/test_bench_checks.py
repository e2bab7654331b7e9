"""The benchmark's own checks: each passes on real program output and fails
on a corrupted copy of it. Run with ``python -m pytest perfbench/tests``."""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest

import calibrate
import child
import run
import workloads
from qkinopt import cli, harness
from qkinopt.grover import iteration_count
from tracer import Tracer

SHIPPED = Path(__file__).resolve().parents[2] / "configs"


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture
def configs(tmp_path):
    return workloads.write_configs(
        [workloads.Op("run", name) for name in workloads.CONFIGS], tmp_path)


@pytest.mark.parametrize("name", ["one_dof", "two_dof", "dual_arm"])
def test_generated_configs_equal_shipped(name):
    assert workloads.CONFIGS[name] == json.loads((SHIPPED / f"{name}.json").read_text())


def test_surrogate_config_is_the_criterion_5_fixture(configs):
    config = harness.load_config(str(configs["surrogate_fit"]))
    assert (config.qml.n_qubits, config.qml.n_layers, config.qml.epochs,
            config.qml.learning_rate, config.qml.train_seed) == (4, 2, 500, 0.3, 185)


def test_optimum_check(tmp_path, configs):
    op = workloads.Op("run", "one_dof", qubits=3)
    out = tmp_path / "op"
    assert _cli(op.argv(configs["one_dof"], out, seed=3)) == 0
    checker = workloads.Checker(configs)
    assert checker.errors(op, out) == []

    good = json.loads((out / "report.json").read_text())
    worse = dict(good, analytic_best_cost=good["analytic_best_cost"] + 1e-9)
    assert workloads.check_optimum(worse, checker._grid_minimum(op))
    rejected = dict(good, result=dict(good["result"], accepted=False))
    assert workloads.check_optimum(rejected, checker._grid_minimum(op))
    (out / "report.json").write_text("{")
    assert checker.errors(op, out)


def test_independent_table_minimum_agrees_with_exhaustive_scan(configs):
    checker = workloads.Checker(configs)
    for q in (2, 3):
        op = workloads.Op("run", "two_dof", qubits=q)
        assert workloads.two_link_minimum(workloads.CONFIGS["two_dof"], q) == pytest.approx(
            checker._grid_minimum(op), rel=1e-12)


def test_sweep_check(tmp_path, configs):
    op = workloads.Op("sweep", "two_dof", sweep=(2, 3))
    out = tmp_path / "op"
    assert _cli(op.argv(configs["two_dof"], out, seed=None)) == 0
    checker = workloads.Checker(configs)
    assert checker.errors(op, out) == []

    rows = workloads.read_sweep(out)
    minima = checker._sweep_minima(op)
    assert workloads.check_sweep(rows, minima, iteration_count) == []
    bad_k = [dict(rows[0], iterations=str(int(rows[0]["iterations"]) + 1)), rows[1]]
    assert workloads.check_sweep(bad_k, minima, iteration_count)
    bad_min = [rows[0], dict(rows[1], min_cost=repr(float(rows[1]["min_cost"]) * 1.001))]
    assert workloads.check_sweep(bad_min, minima, iteration_count)
    assert workloads.check_sweep(rows[:1], minima, iteration_count)


def test_surrogate_check(tmp_path, configs):
    config = dict(workloads.CONFIGS["surrogate_fit"])
    config["qml"] = dict(config["qml"], epochs=60)  # short training, still accepted
    path = tmp_path / "short.json"
    path.write_text(json.dumps(config))
    op = workloads.Op("run", "short", qubits=2, mode="surrogate")
    out = tmp_path / "op"
    assert _cli(op.argv(path, out, seed=5)) == 0
    checker = workloads.Checker({"short": path})
    assert checker.errors(op, out) == []
    assert 0.0 <= checker.fit_fractions[0] <= 1.0

    good = json.loads((out / "report.json").read_text())
    trace = good["loss_trace"]
    assert workloads.check_surrogate(dict(good, loss_trace=trace[:-1] + [float("nan")]))
    assert workloads.check_surrogate(dict(good, loss_trace=trace[:-1] + [trace[0] * 2]))
    assert workloads.check_surrogate(dict(good, loss_trace=None))
    assert workloads.check_surrogate(dict(good, result=dict(good["result"], accepted=False)))
    (out / "surrogate.params").unlink()
    assert checker.errors(op, out)


def test_traced_counts_match_emitted_counts(tmp_path, configs):
    tracer = Tracer()
    tracer.install()
    try:
        op = workloads.Op("compare", "one_dof", qubits=3)
        assert _cli(op.argv(configs["one_dof"], tmp_path / "op", seed=1)) == 0
    finally:
        tracer.uninstall()
    assert cli.main.__module__ == "qkinopt.cli" and not hasattr(cli.main, "__wrapped__")
    layers = tracer.layer_metrics([1.0])
    counts = workloads.file_counts(tmp_path / "op")
    assert counts["oracle_rounds"] > 0 and counts["evaluations"] > 0
    assert run.cross_check(counts, layers) == []
    assert run.cross_check(dict(counts, oracle_rounds=counts["oracle_rounds"] + 1), layers)
    assert run.cross_check(dict(counts, evaluations=counts["evaluations"] - 1), layers)

    own, total, calls = tracer.self_times()
    assert min(own.values()) >= 0.0
    assert total["cli.main"] == pytest.approx(sum(own.values()))
    assert calls["cli.main"] == 1


def test_calibration_kernels():
    assert set(workloads.CALIBRATION) == set(workloads.WORKLOADS)
    assert set(workloads.CALIBRATION.values()) == {workloads.DURING, workloads.BETWEEN}
    for kernels in (calibrate.BETWEEN_KERNELS, ("small_calls",)):
        sample = calibrate.Calibrator(kernels, size=0.5).sample()
        assert set(sample) == set(kernels) and min(sample.values()) > 0.0
    with pytest.raises(ValueError):
        calibrate.Calibrator(("no_such_kernel",))


def test_host_factor_is_mean_over_kernels_of_mean_sample_over_reference():
    ref = calibrate.REFERENCE_S
    samples = [{"small_calls": ref["small_calls"], "l3_passes": 2 * ref["l3_passes"]},
               {"small_calls": 3 * ref["small_calls"], "l3_passes": 2 * ref["l3_passes"]}]
    assert calibrate.host_factor(samples) == pytest.approx((2.0 + 2.0) / 2)


def test_sampler_samples_during_an_op_and_leaves_its_time_out():
    sampler = calibrate.Sampler()
    with sampler:
        deadline = time.perf_counter() + 5 * calibrate.SAMPLE_PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert 3 <= len(sampler.samples) <= 6 and 0.0 < sampler.spent < calibrate.SAMPLE_PERIOD_S
    assert sampler.host_factor() > 0.0
    with sampler:  # an op too short for a sample still gets a factor
        pass
    assert sampler.samples == [] and sampler.spent == 0.0 and sampler.host_factor() > 0.0


@pytest.mark.parametrize("calibration", [workloads.DURING, workloads.BETWEEN])
def test_every_op_gets_a_host_factor(tmp_path, calibration):
    ops = (workloads.Op("run", "one_dof"), workloads.Op("run", "two_dof"))
    calls = []

    def main(argv):
        calls.append(argv)
        time.sleep(0.02)

    records, first_peak = child.run_cycles(
        ops, main, {"one_dof": tmp_path, "two_dof": tmp_path}, tmp_path, seed=1,
        seconds=0.5, tracer=None, calibration=calibration)
    assert len(records) == len(calls) and len(records) % len(ops) == 0 and len(records) >= 4
    assert first_peak > 0.0
    assert all(r["host_factor"] > 0.0 and 0.0 < r["seconds"] and "block" not in r
               for r in records)

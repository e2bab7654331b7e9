import dataclasses
import functools
import json
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkinopt import grover, harness
from qkinopt.baselines import exhaustive_scan
from qkinopt.encoding import BLOCK_BITS, ParamGrid, decode
from qkinopt.grover import NoSolutionError, search_with_state, threshold_ladder
from qkinopt.harness import (
    COMPARISON_HEADER,
    BaselineSettings,
    QmlSettings,
    SearchSettings,
    _actual_error_table,
    compare,
    config_from_dict,
    config_to_dict,
    emit_report,
    load_config,
    load_optruns,
    load_report,
    run_baselines,
    run_case,
    sweep,
    write_json,
    write_optruns,
    write_table,
)
from qkinopt.kinematics import GraspTask, PoseTarget, PoseWeights
from qkinopt.qml import (
    build_cost_table,
    configuration_costs,
    configuration_positions,
    load_surrogate,
    make_surrogate,
    save_surrogate,
)
from qkinopt.qsim import CapacityError
from tests_support import CONFIGS, TWO_PI, shipped_case, table_sweep


def exhaustive_reference(config):
    names = config.grid.names()

    def fn(Z):
        return configuration_costs(config.model, names, Z, config.task, config.weights)

    return exhaustive_scan(config.grid, fn)


finite = st.floats(-1e3, 1e3)


@st.composite
def case_configs(draw):
    """A valid CaseConfig: a shipped case with drawn ranges, task, weights and settings."""
    mode = draw(st.sampled_from(["analytic", "surrogate"]))
    config = shipped_case(
        draw(st.sampled_from(["one_dof", "two_dof", "dual_arm"])),
        qubits_per_param=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2 ** 32)),
        shots=draw(st.integers(1, 10 ** 6)), mode=mode)
    specs = []
    for spec in config.grid.specs:
        lo = draw(st.floats(-math.pi, 0.0) if spec.angular else st.floats(0.01, 1.0))
        width = draw(st.floats(0.1, TWO_PI) if spec.angular else st.floats(0.01, 2.0))
        specs.append(dataclasses.replace(spec, lo=lo, hi=lo + width))
    tolerance = draw(st.none() | st.floats(0.0, 10.0))
    if isinstance(config.task, GraspTask):
        task = GraspTask((draw(finite), draw(finite)), draw(st.floats(0.01, 10.0)),
                         draw(finite), tolerance)
        weights = PoseWeights()
    else:
        phi = draw(st.none() | finite)
        alpha_R = 0.0 if phi is None or mode == "surrogate" else draw(st.floats(0.0, 10.0))
        task = PoseTarget((draw(finite), draw(finite)), phi, tolerance)
        weights = PoseWeights(draw(st.floats(0.01, 10.0)), alpha_R)
    return dataclasses.replace(
        config, grid=ParamGrid(tuple(specs)), case=draw(st.text(max_size=8)),
        task=task, weights=weights,
        search=SearchSettings(draw(st.none() | st.floats(0.0, 10.0)),
                              draw(st.floats(0.01, 0.99))),
        qml=QmlSettings(draw(st.none() | st.integers(4, 8)), draw(st.integers(1, 4)),
                        draw(st.integers(1, 500)), draw(st.floats(0.0, 1.0)),
                        draw(st.integers(0, 1000)), draw(st.none() | st.integers(1, 1000))),
        baselines=BaselineSettings(draw(st.integers(1, 10 ** 4)), draw(st.integers(1, 10)),
                                   draw(st.integers(2, 50)), draw(st.integers(1, 500)),
                                   draw(st.integers(0, 1000))))


def on_grid_tip(config, index):
    """config with its position target on the tip of grid point `index`."""
    tip = configuration_positions(config.model,
                                  dict(zip(config.grid.names(), decode(config.grid, index))))
    return dataclasses.replace(
        config, task=dataclasses.replace(config.task, position=tuple(map(float, tip))))


@st.composite
def sweep_cases(draw):
    """A shipped case at one drawn qubit count, up to 20 qubits, so past
    BLOCK_BITS a grid has several blocks: a position task, with an orientation
    target and weight or its target on a grid tip, or a grasp: a drawn one, or
    the shipped one, whose mirror minima tie across blocks at 4 qubits."""
    name = draw(st.sampled_from(["one_dof", "two_dof", "dual_arm"]))
    config = shipped_case(name)
    q = draw(st.integers(1, 20 // config.grid.dimension))
    config = shipped_case(name, qubits_per_param=q)
    if isinstance(config.task, GraspTask):
        if draw(st.booleans()):
            return config
        task = GraspTask((draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 2.0))),
                         draw(st.floats(0.1, 0.5)), draw(st.floats(-10.0, 10.0)))
        return dataclasses.replace(config, task=task)
    if draw(st.booleans()):
        return on_grid_tip(config, draw(st.integers(0, config.grid.size - 1)))
    phi = draw(st.none() | st.floats(-10.0, 10.0))
    alpha_R = 0.0 if phi is None else draw(st.floats(0.01, 5.0))
    task = PoseTarget((draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))), phi)
    return dataclasses.replace(config, task=task, weights=PoseWeights(1.0, alpha_R))


def oriented_one_dof_case():
    """one_dof with an orientation target that its weights count."""
    return dataclasses.replace(shipped_case("one_dof"), task=PoseTarget((0.8, 0.6), phi=0.6),
                               weights=PoseWeights(1.0, 0.5))


class TestRunCaseOneDof:
    def test_matches_exhaustive_minimum(self):
        config = shipped_case("one_dof", seed=3)
        report, _ = run_case(config)
        idx, best_cost, _ = exhaustive_reference(config)
        assert report["result"]["accepted"]
        assert report["analytic_best_cost"] == best_cost
        assert report["result"]["index"] == idx
        # accepted error cannot beat the grid floor
        assert report["result"]["e_actual"] <= math.sqrt(best_cost) + 1e-12
        # accepted analytic cost never exceeds the loosest threshold used
        assert report["analytic_best_cost"] <= report["epsilon0"]

    def test_trace_records_adaptive_steps(self):
        report, _ = run_case(shipped_case("one_dof", seed=1))
        steps = report["steps"]
        assert steps[0]["iterations"] == 0
        assert len(steps) >= 2
        assert steps[-1]["expectation"] < steps[0]["expectation"]
        assert report["queries_total"] == sum(s["iterations"] for s in steps)
        assert report["queries_final"] == report["result"]["queries"]

    def test_deterministic_for_fixed_seed(self):
        r1, _ = run_case(shipped_case("one_dof", seed=12))
        r2, _ = run_case(shipped_case("one_dof", seed=12))
        assert r1 == r2


class TestRunCaseTwoDof:
    def test_matches_exhaustive_argmin(self):
        config = shipped_case("two_dof", seed=5)
        report, _ = run_case(config)
        idx, best_cost, evals = exhaustive_reference(config)
        assert evals == 65536
        assert report["result"]["accepted"]
        assert report["analytic_best_cost"] == best_cost
        np.testing.assert_array_equal(report["result"]["params"], decode(config.grid, idx))


class TestRunCaseDualArm:
    def test_accepted_cost_is_grid_minimum(self):
        config = shipped_case("dual_arm", seed=9)
        report, _ = run_case(config)
        _, best_cost, _ = exhaustive_reference(config)
        assert report["result"]["accepted"]
        # symmetric grasp configurations tie to the last bit; the returned
        # configuration must still realize the exact grid minimum
        assert report["analytic_best_cost"] == best_cost


class TestAdaptiveEquivalence:
    def test_final_step_matches_adaptive_search(self):
        config = shipped_case("one_dof", seed=21)
        report, _ = run_case(config)
        costs, _ = build_cost_table(config.grid, config.model, config.task, config.weights)
        levels = threshold_ladder(costs, report["epsilon0"], 0.5)
        direct, _ = search_with_state(config.grid, np.flatnonzero(costs <= levels[-1]),
                                      levels[-1], config.shots, config.seed)
        assert direct["index"] == report["result"]["index"]
        assert direct["epsilon"] == report["final_epsilon"]
        assert direct["queries"] == report["queries_final"]

    def test_searches_narrow_one_sorted_index_array(self, monkeypatch):
        seen = []

        def recording(grid, marked, *args):
            seen.append(marked)
            return search_with_state(grid, marked, *args)

        monkeypatch.setattr(grover, "search_with_state", recording)
        config = shipped_case("one_dof", seed=21)
        report, _ = run_case(config)
        costs, _ = build_cost_table(config.grid, config.model, config.task, config.weights)
        steps = report["steps"]
        assert len(seen) == len(steps) - 1 > 1
        # the first level's set is the table's one threshold read
        np.testing.assert_array_equal(seen[0], np.flatnonzero(costs <= report["epsilon0"]))
        assert steps[0]["solutions"] == seen[0].size
        for before, marked, step in zip(seen[:1] + seen, seen, steps[1:]):
            assert marked.dtype == np.int64 and (np.diff(marked) > 0).all()
            assert np.isin(marked, before).all()  # each level narrows the one before
            np.testing.assert_array_equal(marked, np.flatnonzero(costs <= step["epsilon"]))

    def test_zero_floor_ladder_stops_at_least_positive_cost(self):
        # the target on grid point 77's tip gives a cost floor of exactly 0; the
        # geometric steps stop at the least positive cost, then the floor follows
        config = on_grid_tip(shipped_case("one_dof", qubits_per_param=4), 77)
        config = dataclasses.replace(
            config, search=dataclasses.replace(config.search, epsilon0=1.0))
        report, _ = run_case(config)
        costs, _ = build_cost_table(config.grid, config.model, config.task, config.weights)
        lowest = float(costs[costs > 0].min())
        epsilons = [step["epsilon"] for step in report["steps"][1:]]
        assert (len(epsilons), report["queries_total"]) == (7, 42)
        assert epsilons[-1] == 0.0 and epsilons[-2] * config.search.shrink < lowest <= epsilons[-2]
        assert (report["result"]["index"], report["steps"][-1]["best_cost"]) == (77, 0.0)
        assert report["result"]["accepted"]


class TestOneGridPass:
    @pytest.mark.parametrize("mode", ["analytic", "surrogate"])
    @pytest.mark.parametrize("tolerance", [None, 0.05])
    def test_one_cost_table_per_run(self, monkeypatch, mode, tolerance):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("error_floor"))
            return build_cost_table(*args, **kwargs)

        monkeypatch.setattr(harness, "build_cost_table", counting)
        config = shipped_case("one_dof", qubits_per_param=2, mode=mode,
                              qml=QmlSettings(n_qubits=4, epochs=3))
        config = dataclasses.replace(
            config, task=dataclasses.replace(config.task, tolerance=tolerance))
        report, _ = run_case(config)
        # the pass keeps the error floor only when the tolerance comes from it
        assert calls == [tolerance is None]
        if tolerance is not None:
            assert report["tolerance"] == tolerance


class TestSurrogateMode:
    def tiny_config(self, seed=0):
        cfg = shipped_case("one_dof", qubits_per_param=3, seed=seed, mode="surrogate")
        return dataclasses.replace(
            cfg, qml=QmlSettings(n_qubits=4, n_layers=2, epochs=25,
                                 learning_rate=0.3, train_seed=185)
        )

    def test_runs_and_records_loss_trace(self):
        report, surrogate = run_case(self.tiny_config())
        assert report["mode"] == "surrogate"
        assert len(report["loss_trace"]) == 26
        assert report["loss_trace"][-1] < report["loss_trace"][0]
        assert surrogate is not None

    def test_tolerance_is_twice_the_analytic_error_floor(self):
        cfg = self.tiny_config()
        report, _ = run_case(cfg)
        errors = _actual_error_table(cfg.grid, cfg.model, cfg.task, cfg.weights)
        assert report["tolerance"] == 2.0 * float(errors.min())
        assert report["result"]["e_actual"] == errors[report["result"]["index"]]
        # the one-row analytic cost of the answer is its analytic table entry
        analytic, _ = build_cost_table(cfg.grid, cfg.model, cfg.task, cfg.weights)
        assert report["analytic_best_cost"] == analytic[report["result"]["index"]]

    def test_pretrained_surrogate_skips_training(self):
        cfg = self.tiny_config()
        pretrained = make_surrogate(cfg.grid, cfg.model, n_layers=2, n_qubits=4)
        report, surrogate = run_case(cfg, surrogate=pretrained)
        assert report["loss_trace"] is None and surrogate is pretrained
        # the zero-parameter surrogate is untrained and its predictions miss the
        # analytic FK by metres, so its oracle marks configurations that fail
        # analytic verification
        assert report["result"]["accepted"] is False
        assert report["result"]["e_actual"] > report["tolerance"]


class TestOneReport:
    @pytest.mark.parametrize("case, mode", [("one_dof", "analytic"), ("two_dof", "analytic"),
                                            ("dual_arm", "analytic"), ("one_dof", "surrogate")])
    def test_run_case_returns_what_report_json_holds(self, case, mode, tmp_path):
        report, surrogate = run_case(shipped_case(case, mode=mode))
        assert (surrogate is None) == (mode == "analytic")
        # plain JSON values only: no tuple, array, NaN or infinity
        assert json.loads(json.dumps(report, allow_nan=False)) == report
        paths = emit_report(report, surrogate, str(tmp_path / "out"))
        assert load_report(paths["report"]) == report
        write_json(tmp_path / "again.json", report)
        assert (tmp_path / "again.json").read_bytes() == \
               (tmp_path / "out" / "report.json").read_bytes()


class TestRunBaselines:
    def test_one_run_per_method(self):
        config = shipped_case("two_dof", seed=2)
        runs = run_baselines(config)
        assert [r.method for r in runs] == ["nelder_mead", "quasi_newton", "pso",
                                            "exhaustive"]
        exhaustive = runs[-1]
        assert exhaustive.evaluations == 2 ** 16
        _, best_cost, _ = exhaustive_reference(config)
        for run in runs:
            assert run.best_cost >= best_cost - 1e-12 or run.method != "exhaustive"
        assert exhaustive.best_cost == best_cost

    def test_local_methods_reach_reachable_target(self):
        config = shipped_case("two_dof", seed=0)
        runs = run_baselines(config)
        by_name = {r.method: r for r in runs}
        attained = min(by_name["nelder_mead"].best_cost, by_name["pso"].best_cost)
        assert attained <= 1e-3


class TestCompare:
    def test_table_rows_and_ratio(self):
        config = shipped_case("one_dof", seed=3)
        report, _ = run_case(config)
        runs = run_baselines(config)
        rows = compare(report, runs)
        assert [r["method"] for r in rows] == ["grover", "nelder_mead", "quasi_newton",
                                               "pso", "exhaustive"]
        grover_row = rows[0]
        assert grover_row["evaluations"] == report["queries_final"]
        exhaustive_row = rows[-1]
        assert exhaustive_row["evals_over_grover"] == pytest.approx(
            1024 / report["queries_final"]
        )

    def test_saved_report_gives_same_rows(self, tmp_path):
        config = shipped_case("one_dof", seed=3)
        report, surrogate = run_case(config)
        runs = run_baselines(config)
        emit_report(report, surrogate, str(tmp_path))
        saved = json.loads((tmp_path / "report.json").read_text())
        assert compare(saved, runs) == compare(report, runs)

    def test_ratio_at_least_one_for_sparse_solutions(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            M = 1 << int(rng.integers(4, 14))
            m = int(rng.integers(1, M // 4 + 1))
            K = grover.iteration_count(M, m)
            assert M / K >= 1.0

    def test_smallest_space_ratio(self):
        assert 4 / grover.iteration_count(4, 1) == 4.0


class TestReportEmission:
    def test_byte_identical_reruns(self, tmp_path):
        for directory in ("a", "b"):
            config = shipped_case("one_dof", seed=7)
            report, surrogate = run_case(config)
            rows = compare(report, run_baselines(config))
            emit_report(report, surrogate, str(tmp_path / directory))
            write_table(str(tmp_path / directory / "comparison.csv"), COMPARISON_HEADER, rows)
        for name in ("trace.csv", "report.json", "comparison.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_trace_csv_round_trips_full_precision(self, tmp_path):
        report, surrogate = run_case(shipped_case("one_dof", seed=4))
        emit_report(report, surrogate, str(tmp_path))
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,cost"
        assert len(lines) == len(report["steps"]) + 1
        for line, step in zip(lines[1:], report["steps"]):
            it, cost = line.split(",")
            assert int(it) == step["step"]
            assert float(cost) == step["expectation"]

    def test_surrogate_params_emitted(self, tmp_path):
        cfg = shipped_case("one_dof", qubits_per_param=2, seed=0, mode="surrogate")
        cfg = dataclasses.replace(cfg, qml=QmlSettings(n_qubits=4, epochs=3))
        report, surrogate = run_case(cfg)
        paths = emit_report(report, surrogate, str(tmp_path))
        assert (tmp_path / "surrogate.params").exists()
        assert "surrogate" in paths


class TestConfigSerialization:
    def test_round_trip_all_cases(self, tmp_path):
        for name in ("one_dof", "two_dof", "dual_arm"):
            config = shipped_case(name, seed=5, shots=2048)
            path = tmp_path / f"{config.case}.json"
            write_json(path, config_to_dict(config))
            loaded = load_config(path)
            assert config_to_dict(loaded) == config_to_dict(config)

    def test_from_dict_rejects_unknown_types(self):
        data = config_to_dict(shipped_case("one_dof"))
        data["model"] = {"type": "hexapod"}
        with pytest.raises(ValueError):
            config_from_dict(data)

    @pytest.mark.parametrize("section, key", [
        (None, "shot"), ("search", "shrnk"), ("qml", "epoch"), ("baselines", "seeds"),
        ("weights", "alpha"), ("model", "l3"), ("task", "tol"),
    ])
    def test_from_dict_names_unknown_key(self, section, key):
        data = config_to_dict(shipped_case("one_dof"))
        (data if section is None else data[section])[key] = 1
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError, match=f"unknown config key '{name}'"):
            config_from_dict(data)

    @pytest.mark.parametrize("case, path, name", [
        (shipped_case("one_dof"), ("params",), "params"),
        (shipped_case("one_dof"), ("model",), "model"),
        (shipped_case("one_dof"), ("task",), "task"),
        (shipped_case("one_dof"), ("params", 1, "qubits"), "params[1].qubits"),
        (shipped_case("one_dof"), ("model", "type"), "model.type"),
        (shipped_case("one_dof"), ("task", "type"), "task.type"),
        (shipped_case("one_dof"), ("task", "target"), "task.target"),
        (shipped_case("dual_arm"), ("task", "center"), "task.center"),
        (shipped_case("dual_arm"), ("task", "radius"), "task.radius"),
    ], ids=["params", "model", "task", "params[1].qubits", "model.type", "task.type",
            "task.target", "task.center", "task.radius"])
    def test_from_dict_names_missing_key(self, case, path, name):
        data = config_to_dict(case)
        section = data
        for part in path[:-1]:
            section = section[part]
        del section[path[-1]]
        with pytest.raises(ValueError, match=re.escape(f"missing config key '{name}'")):
            config_from_dict(data)

    @pytest.mark.parametrize("case, path, value, message", [
        (shipped_case("one_dof"), ("search", "shrink"), 1.5, None),
        (shipped_case("one_dof"), ("search", "shrink"), 0.0, None),
        (shipped_case("one_dof"), ("search", "shrink"), float("nan"), None),
        (shipped_case("one_dof"), ("task", "target"), [0.8, float("inf")], None),
        (shipped_case("dual_arm"), ("task", "center"), [float("nan"), 1.2], None),
        (shipped_case("dual_arm"), ("task", "radius"), float("nan"), None),
        (shipped_case("one_dof"), ("search", "epsilon0"), float("nan"), None),
        (shipped_case("one_dof"), ("search", "epsilon0"), float("inf"), None),
        (shipped_case("one_dof"), ("search", "epsilon0"), -0.1, None),
        (shipped_case("one_dof"), ("weights", "epsilon"), float("nan"), None),
        (shipped_case("one_dof"), ("weights", "epsilon"), float("inf"), None),
        (shipped_case("one_dof"), ("weights", "epsilon"), 0.1, None),
        (shipped_case("one_dof"), ("weights", "alpha_p"), float("inf"), None),
        (shipped_case("dual_arm"), ("weights", "alpha_p"), 3.0, None),
        (shipped_case("dual_arm"), ("weights", "alpha_R"), 0.5, None),
        (oriented_one_dof_case(), ("task", "phi"), None, None),
        (shipped_case("one_dof"), ("params", 0, "angular"), "false", None),
        (shipped_case("one_dof"), ("params", 0, "qubits"), 2.7, None),
        (shipped_case("one_dof"), ("shots",), 1.5, None),
        (shipped_case("one_dof"), ("shots",), 2**63, None),
        (shipped_case("one_dof"), ("shots",), 10**8 + 1, None),
        (shipped_case("one_dof"), ("search", "refine"), "no", None),
        (shipped_case("one_dof"), ("search", "refine"), False, None),
        (shipped_case("one_dof"), ("seed",), True, None),
        (shipped_case("one_dof"), ("task", "phi"), float("nan"), None),
        (shipped_case("one_dof"), ("params", 1, "max"), float("inf"), None),
        (shipped_case("dual_arm"), ("model", "base1"), [float("nan"), 0.0], None),
        (shipped_case("dual_arm"), ("model", "links1"), [1.0], None),
        (shipped_case("one_dof"), ("task", "target"), [0.8, 0.6, 0.0], None),
        (shipped_case("one_dof"), ("task", "target"), 0.8, None),
        (shipped_case("one_dof"), ("task", "tolerance"), -1, None),
        (shipped_case("dual_arm"), ("qml", "n_qubits"), 3, None),
        (shipped_case("two_dof"), ("params", 3, "name"), "l1", "duplicate parameter name 'l1'"),
        (shipped_case("one_dof"), ("params", 1, "name"), "phi1",
         "grid has no parameter named 'theta1'"),
        (shipped_case("dual_arm"), ("task",), config_to_dict(shipped_case("one_dof"))["task"],
         "config key 'task.type' must fit model type 'dual_arm', got 'position'"),
        (shipped_case("one_dof"), ("task",), config_to_dict(shipped_case("dual_arm"))["task"],
         "config key 'task.type' must fit model type 'one_link', got 'grasp'"),
        (shipped_case("two_dof"), ("params", 3, "name"), "foo",
         "config key 'params[3].name' must name a parameter the model reads, got 'foo'"),
    ], ids=["shrink_1.5", "shrink_0", "shrink_nan", "target_inf", "center_nan", "radius_nan",
            "epsilon0_nan", "epsilon0_inf", "epsilon0_negative", "epsilon_nan", "epsilon_inf",
            "epsilon_set", "alpha_p_inf", "grasp_alpha_p", "grasp_alpha_R",
            "orientation_weight_without_phi", "angular_string", "qubits_fraction",
            "shots_fraction", "shots_2_63", "shots_1e8_plus_1", "refine_string", "refine_false",
            "seed_bool", "phi_nan",
            "max_inf", "base1_nan", "links1_one_number", "target_three_numbers",
            "target_scalar", "tolerance_negative",
            "n_qubits_3", "duplicate_name", "missing_grid_parameter",
            "dual_arm_position_task", "one_dof_grasp_task", "unread_grid_parameter"])
    def test_from_dict_refuses_bad_value(self, case, path, value, message):
        data = config_to_dict(case)
        section = data
        for part in path[:-1]:
            section = section[part]
        section[path[-1]] = value
        name = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]
        with pytest.raises(ValueError,
                           match=re.escape(message or f"config key '{name}' must be")):
            config_from_dict(data)

    def test_count_keys_at_their_caps_load(self):
        data = config_to_dict(shipped_case("one_dof"))
        data["qml"].update(n_qubits=12, n_layers=1000, epochs=10**6)
        data["baselines"].update(swarm_size=10**4, pso_iterations=10**5, n_starts=10**3)
        data["shots"] = 10**8
        assert config_to_dict(config_from_dict(data)) == data

    def test_number_for_float_key_reads_as_float(self):
        data = config_to_dict(shipped_case("one_dof"))
        data["search"]["epsilon0"] = 1
        epsilon0 = config_from_dict(data).search.epsilon0
        assert type(epsilon0) is float and epsilon0 == 1.0

    @pytest.mark.parametrize("name", ["one_dof", "two_dof", "dual_arm"])
    def test_save_reproduces_shipped_config(self, name, tmp_path):
        shipped = (CONFIGS / f"{name}.json").read_bytes()
        write_json(tmp_path / "saved.json", config_to_dict(load_config(CONFIGS / f"{name}.json")))
        assert (tmp_path / "saved.json").read_bytes() == shipped

    @settings(max_examples=200, deadline=None)
    @given(case_configs())
    def test_dict_round_trip(self, config):
        loaded = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert loaded == config
        assert config_to_dict(loaded) == config_to_dict(config)

    def test_overrides(self):
        config = shipped_case("one_dof").with_overrides(seed=42, shots=123, mode="surrogate",
                                               qubits_per_param=3)
        assert config.seed == 42 and config.shots == 123
        assert config.mode == "surrogate"
        assert config.grid.total_qubits == 6


class TestCapacityAndFailure:
    def test_full_resolution_rejected_at_runtime(self):
        # the 9-qubit-per-parameter setting parses but exceeds the simulator cap
        config = shipped_case("two_dof").with_overrides(qubits_per_param=9)
        assert config.grid.total_qubits == 36
        with pytest.raises(CapacityError):
            run_case(config)

    def test_training_amplitude_cap_is_rows_times_state_size(self, monkeypatch):
        config = shipped_case("one_dof", qubits_per_param=3)
        config = dataclasses.replace(config, qml=QmlSettings(epochs=1))
        rows, n = config.grid.size, make_surrogate(config.grid, config.model).ansatz.n_qubits
        monkeypatch.setattr(harness, "TRAINING_AMPLITUDES_CAP", (rows << n, "as set"))
        assert len(harness.train_case_surrogate(config)[1]) == 2
        monkeypatch.setattr(harness, "TRAINING_AMPLITUDES_CAP", ((rows << n) - 1, "as set"))
        with pytest.raises(CapacityError, match=f"training on {rows} rows at {n} qubits .* "
                           "as set; set qml.training_samples or reduce qubits per parameter$"):
            harness.train_case_surrogate(config)
        # a sample of one row fewer fits again
        sampled = dataclasses.replace(config.qml, training_samples=rows - 1)
        assert len(harness.train_case_surrogate(dataclasses.replace(config, qml=sampled))[1]) == 2

    def test_shipped_training_sizes(self):
        # two_dof on its whole grid trains at 4 qubits per parameter, 2^16 rows of 2^4
        # amplitudes; at 6 (2^28 amplitudes, refused in test_cli) it trains on a sample
        config = shipped_case("two_dof")
        config = dataclasses.replace(config, qml=QmlSettings(epochs=1))
        assert len(harness.train_case_surrogate(config)[1]) == 2
        sampled = dataclasses.replace(config, qml=QmlSettings(epochs=1, training_samples=1000))
        assert len(harness.train_case_surrogate(
            sampled.with_overrides(qubits_per_param=6))[1]) == 2

    def test_no_solution_guidance(self):
        config = dataclasses.replace(shipped_case("one_dof"),
                                     search=SearchSettings(epsilon0=1e-12))
        with pytest.raises(NoSolutionError, match="raise epsilon"):
            run_case(config)


class TestSweep:
    def test_rows_and_capacity_note(self):
        config = shipped_case("two_dof")
        rows = sweep(config, [3, 4, 9])
        assert [r["qubits_per_param"] for r in rows] == [3, 4, 9]
        assert rows[0]["ratio"] > 1.0
        assert rows[1]["space_size"] == 65536
        assert rows[2]["note"] != ""
        assert math.isnan(rows[2]["ratio"])

    @pytest.mark.parametrize("case, top", [("two_dof", 6), ("dual_arm", 6), ("one_dof", 12)])
    def test_rows_equal_the_table_sweep_byte_for_byte(self, tmp_path, case, top):
        config, counts = shipped_case(case), list(range(1, top + 1))
        write_table(tmp_path / "streamed.csv", harness.SWEEP_HEADER, sweep(config, counts))
        write_table(tmp_path / "table.csv", harness.SWEEP_HEADER, table_sweep(config, counts))
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(sweep_cases())
    def test_streamed_floor_and_ties_equal_the_table(self, config):
        costs, _ = build_cost_table(config.grid, config.model, config.task, config.weights)
        row, = sweep(config, [config.grid.specs[0].n_qubits])
        floor = costs.min()
        assert float(row["min_cost"]).hex() == float(floor).hex()
        assert row["solutions"] == grover.count_solutions(costs, floor) >= 1

    def test_ties_across_blocks_are_all_counted(self):
        # dual_arm's grasp minimum at 4 qubits per parameter is two mirror
        # configurations, one in each of two 2^14-row blocks
        config = shipped_case("dual_arm", qubits_per_param=4)
        costs, _ = build_cost_table(config.grid, config.model, config.task, config.weights)
        ties = np.flatnonzero(costs == costs.min())
        assert list(ties >> BLOCK_BITS) == [1, 2]
        assert sweep(config, [4])[0]["solutions"] == 2

    @pytest.mark.parametrize("case, q, index", [("one_dof", 4, 77), ("two_dof", 4, 40000),
                                                ("one_dof", 8, 65535)])
    def test_zero_floor_on_a_grid_tip(self, case, q, index):
        config = on_grid_tip(shipped_case(case, qubits_per_param=q), index)
        row, = sweep(config, [q])
        assert (row["min_cost"], row["solutions"]) == (0.0, 1)
        assert [row] == table_sweep(config, [q])

    def test_keeps_no_cost_table(self):
        # two_dof at 5 qubits per parameter is a 2^20-row grid: its float64
        # table alone would be 8 MB
        config = shipped_case("two_dof")
        tracemalloc.start()
        try:
            row, = sweep(config, [5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row["space_size"] == 2 ** 20
        assert peak < 4e6


class TestBaselineSettingsPlumbing:
    def test_custom_budgets_respected(self):
        config = dataclasses.replace(
            shipped_case("one_dof", seed=1),
            baselines=BaselineSettings(max_evals=100, n_starts=2, swarm_size=5,
                                       pso_iterations=10, seed=3),
        )
        runs = run_baselines(config)
        by_name = {r.method: r for r in runs}
        assert by_name["nelder_mead"].evaluations <= 2 * 100 + 10
        assert by_name["pso"].evaluations <= 5 * 11



# --- one value rule for every file qkinopt reads ------------------------------------

# a value of each kind: a string, a boolean, null, a list, NaN, +-inf and an integer
# past the float range
OTHER_KINDS = ["text", True, None, [1.0, 2.0], math.nan, math.inf, -math.inf, 10**400]
# the config keys that also take null, and the kind of their other values
OPTIONAL_KEYS = {"qml.n_qubits": int, "qml.training_samples": int, "search.epsilon0": float,
                 "task.phi": float, "task.tolerance": float, "weights.epsilon": float}


def scalar_paths(value, path=()):
    """The path, of dict keys and list indices, of every scalar in a JSON value."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in scalar_paths(v, path + (k,))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in scalar_paths(v, path + (i,))]
    return [path]


def key_name(path):
    """A path as the readers name it: "params[0].min", "inputs[1].qubits[0]"."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def config_key(path):
    # a config's only lists of scalars are pairs, such as task.target, which are
    # refused under their own name
    return key_name(path[:-1] if isinstance(path[-1], int) else path)


@functools.cache
def written_inputs():
    """name: (file text, reader, writer, the scalar paths to edit, each path's name in
    a refusal) of the shipped configs and of a surrogate.params, a report.json (its
    keys that `compare` reads) and a baselines.json, each text as its writer wrote it."""
    out = {}
    for case in ("one_dof", "two_dof", "dual_arm"):
        out[case] = (shipped_case(case), load_config,
                     lambda config, path: write_json(path, config_to_dict(config)),
                     None, lambda p: f"config key {config_key(p)!r}")
    config = shipped_case("one_dof", qubits_per_param=2)
    surrogate = make_surrogate(config.grid, config.model, n_qubits=4)
    surrogate = surrogate.with_params(np.random.default_rng(0).uniform(
        -math.pi, math.pi, surrogate.ansatz.parameter_count))
    out["surrogate"] = (surrogate, load_surrogate, save_surrogate, None,
                        lambda p: repr(key_name(p)))
    out["report"] = (run_case(config)[0], load_report,
                     lambda report, path: write_json(path, report),
                     [("queries_final",), ("analytic_best_cost",), ("result", "accepted")],
                     lambda p: f"key {key_name(p)!r}")
    config = dataclasses.replace(config, baselines=BaselineSettings(
        max_evals=40, n_starts=1, swarm_size=3, pso_iterations=4))
    out["baselines"] = (run_baselines(config), load_optruns,
                        lambda runs, path: write_optruns(runs, path), None,
                        lambda p: f"run {p[0]} key {key_name(p[1:])!r}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        for name, (value, reader, writer, paths, refusal) in out.items():
            writer(value, path)
            with open(path) as fh:
                text = fh.read()
            # every scalar key is walked but the surrogate's format marker, whose
            # refusal says that the file is of another format
            paths = paths or [p for p in scalar_paths(json.loads(text)) if p != ("format",)]
            out[name] = (text, reader, writer, paths, refusal)
    return out


INPUTS = ["one_dof", "two_dof", "dual_arm", "surrogate", "report", "baselines"]


class TestOneValueRule:
    @pytest.mark.parametrize("name", INPUTS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_value_of_another_kind_is_refused_by_key(self, name, data):
        text, reader, _, paths, refusal = written_inputs()[name]
        path = data.draw(st.sampled_from(paths), label="path")
        content = json.loads(text)
        *parents, last = path
        section = functools.reduce(lambda d, p: d[p], parents, content)
        optional = name in INPUTS[:3] and config_key(path) in OPTIONAL_KEYS
        kind = OPTIONAL_KEYS[config_key(path)] if optional else type(section[last])
        # leave out the value of the key's own kind (10**400 for an int key): none
        # listed is a finite float
        value = data.draw(st.sampled_from([v for v in OTHER_KINDS if not (
            type(v) is kind and kind is not float or v is None and optional)]), label="value")
        section[last] = value
        with tempfile.TemporaryDirectory() as tmp:
            file = os.path.join(tmp, "input.json")
            with open(file, "w") as fh:
                json.dump(content, fh)
            with pytest.raises(ValueError) as exc:
                reader(file)
        assert str(exc.value).startswith(f"{refusal(path)} must be a")

    @pytest.mark.parametrize("name", INPUTS)
    def test_unchanged_files_load_equal(self, name, tmp_path):
        text, reader, writer, *_ = written_inputs()[name]
        (tmp_path / "input.json").write_text(text)
        writer(reader(str(tmp_path / "input.json")), str(tmp_path / "output.json"))
        assert (tmp_path / "output.json").read_text() == text

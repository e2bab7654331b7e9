import dataclasses
import functools
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from qkinopt import harness, qml
from qkinopt.cli import main
from qkinopt.encoding import ParamGrid
from qkinopt.harness import QmlSettings, config_to_dict, write_json
from qkinopt.qml import load_surrogate, make_surrogate, save_surrogate
from tests_support import CONFIGS, first_format_text, shipped_case


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "one_dof.json"
    write_json(path, config_to_dict(shipped_case("one_dof")))
    return str(path)


@pytest.fixture
def tiny_config_path(tmp_path):
    cfg = shipped_case("one_dof", qubits_per_param=2, mode="surrogate")
    cfg = dataclasses.replace(cfg, qml=QmlSettings(n_qubits=4, epochs=3))
    path = tmp_path / "tiny.json"
    write_json(path, config_to_dict(cfg))
    return str(path)


def test_run_writes_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--config", config_path, "--seed", "2", "--out", str(out)])
    assert code == 0
    assert (out / "trace.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 2
    assert report["result"]["accepted"] is True
    assert "accepted=True" in capsys.readouterr().out


def test_run_capacity_message(config_path, tmp_path, capsys):
    code = main(["run", "--config", config_path, "--qubits-per-param", "13",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "capacity error" in capsys.readouterr().err


def test_train_past_the_amplitude_cap_exits_before_a_row(tmp_path, capsys, monkeypatch):
    # two_dof at 6 qubits per parameter: 2^24 rows of 2^4 amplitudes, which would
    # take about 8 GB at the measured 530 MB per 2^24 amplitudes
    def decoded(*args):
        raise AssertionError("a training row was decoded")

    monkeypatch.setattr(qml, "decode_all", decoded)
    tracemalloc.start()
    try:
        code = main(["train", "--config", str(CONFIGS / "two_dof.json"),
                     "--qubits-per-param", "6", "--out", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert peak < 1e6
    assert err.count("\n") == 1 and err.startswith("capacity error: training on 16,777,216 rows")
    assert "qml.training_samples" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in ("train", "baseline", "sweep")
    for flag in ("--seed", "--shots", "--mode")] + [("sweep", "--qubits-per-param")])
def test_unused_flags_refused(command, flag, config_path, tmp_path):
    value = "surrogate" if flag == "--mode" else "3"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config_path, flag, value, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_baseline_qubits_per_param(config_path, tmp_path):
    out = tmp_path / "b"
    assert main(["baseline", "--config", config_path, "--qubits-per-param", "2",
                 "--out", str(out)]) == 0
    exhaustive = harness.load_optruns(str(out / "baselines.json"))[-1]
    assert (exhaustive.method, exhaustive.evaluations) == ("exhaustive", 16)


def test_unknown_config_key_exits_cleanly(tmp_path, capsys):
    data = harness.config_to_dict(shipped_case("one_dof"))
    data["search"]["shrnk"] = 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert "'search.shrnk'" in err
    assert len(err.splitlines()) == 1


def keep(data):
    pass


# the keys of report.json that compare reads, and one baselines.json run
REPORT = {"queries_final": 3, "analytic_best_cost": 0.0, "result": {"accepted": True}}
BASELINE_RUN = {"method": "pso", "best_x": [0.0], "best_cost": 0.0, "evaluations": 10,
                "trace": [0.0], "converged": True}


def as_case(case, *path, **values):
    """An edit that turns the data into shipped case `case` at one qubit per
    parameter and sets `values` in the section at `path`."""
    def edit(data):
        data.clear()
        data.update(harness.config_to_dict(shipped_case(case, qubits_per_param=1)))
        section = data
        for part in path:
            section = section[part]
        section.update(values)
    return edit


def far_heavy_target(data):
    """A one_dof target 5 from the origin, within the float range, whose position
    weight 1e308 makes every cost overflow."""
    data["task"].update(target=[5.0, 0.0])
    data["weights"].update(alpha_p=1e308)


def surrogate_json(**values):
    """An edit that returns the file of an untrained surrogate of the shipped
    one_dof case with `values` set, removed where a value is None, or replaced
    by its result where a value is a function of the saved one."""
    def edit(data):
        config = shipped_case("one_dof")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "surrogate.params")
            save_surrogate(make_surrogate(config.grid, config.model), path)
            with open(path) as fh:
                surrogate = json.load(fh)
        surrogate.update({k: v(surrogate[k]) if callable(v) else v for k, v in values.items()})
        return json.dumps({k: v for k, v in surrogate.items() if v is not None})
    return edit


@pytest.mark.parametrize("edit, flags, name", [
    (lambda data: data.pop("task"), [], "'task'"),
    (lambda data: data["search"].update(shrink=1.5), [], "'search.shrink'"),
    (lambda data: data["task"].update(target=[float("nan"), 0.6]), [], "'task.target'"),
    (lambda data: data.update(shots=0), [], "'shots'"),
    (lambda data: data.update(seed=-1), [], "'seed'"),
    (lambda data: data["qml"].update(epochs=0), [], "'qml.epochs'"),
    (lambda data: data["qml"].update(n_layers=0), [], "'qml.n_layers'"),
    (lambda data: data["qml"].update(learning_rate=-0.1), [], "'qml.learning_rate'"),
    (lambda data: data["qml"].update(training_samples=0), [], "'qml.training_samples'"),
    (lambda data: data["baselines"].update(n_starts=0), [], "'baselines.n_starts'"),
    (lambda data: data["baselines"].update(swarm_size=1), [], "'baselines.swarm_size'"),
    (lambda data: data["baselines"].update(max_evals=0), [], "'baselines.max_evals'"),
    (keep, ["--shots", "0"], "'shots'"),
    (keep, ["--seed", "-1"], "'seed'"),
    (keep, ["--qubits-per-param", "0"], "n_qubits"),
    (lambda data: data["search"].update(epsilon0=1e-12), [], "raise epsilon"),
    (lambda data: data["weights"].update(epsilon=0.1), [], "'weights.epsilon'"),
    (lambda data: data["task"].update(phi=0.6) or data["weights"].update(alpha_R=0.5),
     ["--mode", "surrogate"], "'weights.alpha_R'"),
    (lambda data: data["weights"].update(alpha_R=0.5), [], "'task.phi'"),
    (lambda data: data["search"].update(epsilon0=float("nan")), [], "'search.epsilon0'"),
    (lambda data: data["weights"].update(epsilon=float("inf")), [], "'weights.epsilon'"),
    (lambda data: data.update(harness.config_to_dict(shipped_case("dual_arm", 1)),
                              weights={"alpha_p": 3.0, "alpha_R": 0.5}), [],
     "'weights.alpha_p'"),
    (lambda data: data["params"][0].update(angular="false"), [], "'params[0].angular'"),
    (lambda data: data["params"][0].update(qubits=2.7), [], "'params[0].qubits'"),
    (lambda data: data.update(shots=1.5), [], "'shots'"),
    (lambda data: data["search"].update(refine="no"), [], "'search.refine'"),
    (lambda data: data["search"].update(refine=False), [], "'search.refine'"),
    (lambda data: data.update(seed=True), [], "'seed'"),
    (lambda data: data["task"].update(phi=float("nan")), [], "'task.phi'"),
    (lambda data: data["params"][1].update(max=float("inf")), [], "'params[1].max'"),
    (as_case("dual_arm", "model", base1=[float("nan"), 0.0]), [], "'model.base1'"),
    (as_case("dual_arm", "model", links1=[1.0]), [], "'model.links1'"),
    (lambda data: data["task"].update(target=[0.8, 0.6, 0.0]), [], "'task.target'"),
    (lambda data: data["task"].update(target=0.8), [], "'task.target'"),
    (lambda data: data["task"].update(tolerance=-1), [], "'task.tolerance'"),
    (as_case("dual_arm", "qml", n_qubits=3), [], "'qml.n_qubits'"),
    (as_case("dual_arm", mode="surrogate", qml={"n_qubits": 3}), [], "'qml.n_qubits'"),
    (as_case("two_dof", "params", 3, name="l1"), [], "duplicate parameter name 'l1'"),
    (lambda data: data["params"][1].update(name="phi1"), [], "no parameter named 'theta1'"),
    (as_case("dual_arm", task=harness.config_to_dict(shipped_case("one_dof"))["task"]),
     [], "'task.type'"),
    (lambda data: data.update(task=harness.config_to_dict(shipped_case("dual_arm"))["task"]),
     [], "'task.type'"),
    (lambda data: data["params"].append(
        {"name": "foo", "min": 0.0, "max": 1.0, "qubits": 3, "angular": False}), [],
     "'params[2].name'"),
    (keep, ["run", "--config", "{tmp}/nonexist.json"], "No such file or directory"),
    (keep, ["run", "--config", "{tmp}"], "Is a directory"),
    (lambda data: "{", [], "Expecting property name"),
    (keep, ["--mode", "surrogate", "--params", "{tmp}/nonexist.params"],
     "No such file or directory"),
    (lambda data: "[]", ["compare", "--report", "{tmp}/nope.json", "--baselines", "{bad}"],
     "No such file or directory"),
    (keep, ["compare", "--report", "{bad}", "--baselines", "{tmp}/nope.json"],
     "No such file or directory"),
    (lambda data: '[{"method": "pso"}]', ["compare", "--report", "{bad}", "--baselines", "{bad}"],
     "missing key 'best_x'"),
    (lambda data: '[{"best_x": [0.0], "foo": 1}]',
     ["compare", "--report", "{bad}", "--baselines", "{bad}"], "'foo'"),
    (lambda data: "[]", ["compare", "--report", "{config}", "--baselines", "{bad}"],
     "missing key 'queries_final'"),
    (lambda data: json.dumps([dict(BASELINE_RUN, evaluations="many")]),
     ["compare", "--report", "{report}", "--baselines", "{bad}"], "'evaluations'"),
    (lambda data: json.dumps([dict(BASELINE_RUN, best_cost=None)]),
     ["compare", "--report", "{report}", "--baselines", "{bad}"], "'best_cost'"),
    (lambda data: json.dumps(dict(REPORT, queries_final=2.5)),
     ["compare", "--report", "{bad}", "--baselines", "{baselines}"], "'queries_final'"),
    (lambda data: json.dumps(dict(REPORT, analytic_best_cost=None)),
     ["compare", "--report", "{bad}", "--baselines", "{baselines}"], "'analytic_best_cost'"),
    (lambda data: json.dumps(dict(REPORT, result={"accepted": "false"})),
     ["compare", "--report", "{bad}", "--baselines", "{baselines}"], "'result.accepted'"),
    (lambda data: "qkinopt-surrogate 1\n",
     ["run", "--config", "{config}", "--mode", "surrogate", "--params", "{bad}"],
     "current format"),
    (surrogate_json(params=None),
     ["run", "--config", "{config}", "--mode", "surrogate", "--params", "{bad}"],
     "missing key 'params'"),
    (surrogate_json(qubits="4"),
     ["run", "--config", "{config}", "--mode", "surrogate", "--params", "{bad}"],
     "'qubits' must be an integer"),
    (surrogate_json(params=lambda params: [str(p) for p in params]),
     ["run", "--config", "{config}", "--mode", "surrogate", "--params", "{bad}"],
     "'params[0]' must be a finite number"),
    (surrogate_json(inputs=lambda inputs: [dict(inputs[0], lo="0.1")] + inputs[1:]),
     ["run", "--config", "{config}", "--mode", "surrogate", "--params", "{bad}"],
     "'inputs[0].lo' must be a finite number"),
    (keep, ["sweep", "--config", "{bad}", "--qubits", "3,,4"], "--qubits"),
    (keep, ["sweep", "--config", "{bad}", "--qubits", "0,2"], "--qubits"),
    (keep, ["sweep", "--config", "{bad}", "--qubits", "3,4000"], "--qubits"),
    (keep, ["sweep", "--config", "{bad}", "--qubits", "9" * 5000], "--qubits"),
    (keep, ["compare", "--report", "{bad}"], "needs --baselines"),
    (keep, ["compare", "--config", "{bad}", "--baselines", "{bad}"], "needs --report"),
    (keep, ["compare", "--report", "{bad}", "--baselines", "{bad}", "--config", "{bad}"],
     "no --config"),
    (keep, ["compare", "--report", "{bad}", "--baselines", "{bad}", "--seed", "5",
            "--qubits-per-param", "13"], "no --seed, --qubits-per-param"),
    (lambda data: data.update(shots=2**63), [], "'shots'"),
    (keep, ["--shots", "9999999999999999999999"], "'shots'"),
    (lambda data: data.update(shots=10**8 + 1), [], "'shots'"),
    (keep, ["--shots", "100000001"], "'shots'"),
    # integers past the float range, as a number and as a qubit count
    (lambda data: data["weights"].update(alpha_p=10**400), [], "'weights.alpha_p'"),
    (lambda data: data["task"].update(target=[10**400, 0]), [], "'task.target'"),
    (lambda data: json.dumps(dict(REPORT, analytic_best_cost=10**400)),
     ["compare", "--report", "{bad}", "--baselines", "{baselines}"], "'analytic_best_cost'"),
    (lambda data: json.dumps([dict(BASELINE_RUN, best_cost=10**400)]),
     ["compare", "--report", "{report}", "--baselines", "{bad}"], "'best_cost'"),
    (lambda data: data["params"][0].update(qubits=10**400), [], "l1: n_qubits"),
    (keep, ["--qubits-per-param", str(10**400)], "l1: n_qubits"),
    (lambda data: data["params"][0].update(qubits=10**400),
     ["sweep", "--config", "{bad}", "--qubits", "3"], "l1: n_qubits"),
    # count keys past their caps
    (lambda data: data["qml"].update(n_qubits=13), [], "'qml.n_qubits'"),
    (lambda data: data["qml"].update(n_qubits=10**400), [], "'qml.n_qubits'"),
    (lambda data: data["qml"].update(n_layers=10**400), [], "'qml.n_layers'"),
    (lambda data: data["qml"].update(epochs=10**400), [], "'qml.epochs'"),
    (lambda data: data["baselines"].update(swarm_size=10**400), [], "'baselines.swarm_size'"),
    (lambda data: data["baselines"].update(pso_iterations=10**400), [],
     "'baselines.pso_iterations'"),
    (lambda data: data["baselines"].update(n_starts=10**400), [], "'baselines.n_starts'"),
    # costs that cannot be finite: a width past the float range, and a target or grasp so
    # far that every squared deviation overflows, which every command refuses as the
    # config loads, before numpy can warn of it
    (lambda data: data["params"][0].update(min=-1e308, max=1e308), [],
     "l1: min must be < max, and max - min finite"),
    (lambda data: data["task"].update(target=[1e200, 0.0]), [], "'task' lies out of reach"),
    (lambda data: data["task"].update(target=[1e200, 0.0]),
     ["sweep", "--config", "{bad}", "--qubits", "3"], "'task' lies out of reach"),
    (lambda data: data["task"].update(target=[1e200, 0.0]),
     ["baseline", "--config", "{bad}"], "'task' lies out of reach"),
    (lambda data: data["task"].update(target=[1e200, 0.0]),
     ["compare", "--config", "{bad}"], "'task' lies out of reach"),
    (as_case("dual_arm", "task", center=[0.0, -1e200]), [], "'task' lies out of reach"),
    # a target within the float range whose weight overflows every cost: the load check
    # bounds the cost of the nearest workspace point, so no numpy warning prints either
    (far_heavy_target, ["sweep", "--config", "{bad}", "--qubits", "3"],
     "'task' lies out of reach"),
    (far_heavy_target, ["baseline", "--config", "{bad}"], "'task' lies out of reach"),
    (far_heavy_target, [], "'task' lies out of reach"),
    # a grid link length whose min is 0: its bin 0 decodes to 0, so every command
    # refuses the config as it loads, before any FK runs
    (as_case("two_dof", "params", 2, min=0.0), [], "link lengths must be positive"),
    (as_case("two_dof", "params", 2, min=0.0), ["sweep", "--config", "{bad}", "--qubits", "3"],
     "link lengths must be positive"),
    (as_case("two_dof", "params", 2, min=0.0), ["baseline", "--config", "{bad}"],
     "link lengths must be positive"),
    (as_case("two_dof", "params", 2, min=0.0), ["compare", "--config", "{bad}"],
     "link lengths must be positive"),
], ids=["missing_task", "shrink_above_one", "nan_target", "shots_0", "seed_negative",
        "epochs_0", "n_layers_0", "learning_rate_negative", "training_samples_0",
        "n_starts_0", "swarm_size_1", "max_evals_0", "flag_shots_0", "flag_seed_negative",
        "flag_qubits_per_param_0", "epsilon0_below_floor", "weights_epsilon_set",
        "surrogate_orientation_weight", "orientation_weight_without_phi", "epsilon0_nan",
        "epsilon_inf", "grasp_pose_weights", "angular_string", "qubits_fraction",
        "shots_fraction", "refine_string", "refine_false", "seed_bool", "phi_nan", "max_inf",
        "base1_nan", "links1_one_number", "target_three_numbers", "target_scalar",
        "tolerance_negative", "n_qubits_3", "surrogate_n_qubits_3", "duplicate_name",
        "missing_grid_parameter", "dual_arm_position_task", "one_dof_grasp_task",
        "unread_grid_parameter", "missing_config", "config_directory", "malformed_config",
        "missing_params", "missing_report", "missing_baselines", "baselines_without_best_x",
        "baselines_unknown_key", "report_missing_key", "baselines_evaluations_string",
        "baselines_best_cost_null", "report_queries_fraction", "report_best_cost_null",
        "report_accepted_string", "params_header_only", "params_missing_key",
        "params_qubits_string", "params_strings", "params_bound_string", "qubits_empty_count",
        "qubits_zero_count", "qubits_above_cap", "qubits_5000_digits", "lone_report",
        "lone_baselines_with_config", "merge_with_config", "merge_with_overrides",
        "shots_2_63", "flag_shots_huge", "shots_1e8_plus_1", "flag_shots_1e8_plus_1",
        "alpha_p_past_float_range", "target_past_float_range",
        "report_best_cost_past_float_range", "baselines_best_cost_past_float_range",
        "qubits_10_400", "flag_qubits_per_param_10_400", "sweep_config_qubits_10_400",
        "qml_n_qubits_13", "qml_n_qubits_10_400", "n_layers_10_400", "epochs_10_400",
        "swarm_size_10_400", "pso_iterations_10_400", "n_starts_10_400",
        "width_past_float_range", "costs_past_float_range", "sweep_costs_past_float_range",
        "baseline_costs_past_float_range", "compare_costs_past_float_range",
        "grasp_costs_past_float_range", "sweep_floor_past_float_range",
        "baseline_weight_past_float_range", "run_weight_past_float_range",
        "run_l1_min_0", "sweep_l1_min_0", "baseline_l1_min_0", "compare_l1_min_0"])
def test_invalid_config_exits_cleanly(edit, flags, name, config_path, tmp_path, capsys):
    data = harness.config_to_dict(shipped_case("one_dof"))
    text = edit(data)  # an edit changes data in place, or returns the file's text
    bad = tmp_path / "bad.json"
    bad.write_text(text if isinstance(text, str) else json.dumps(data))
    report = tmp_path / "report.json"
    report.write_text(json.dumps(REPORT))
    baselines = tmp_path / "baselines.json"
    baselines.write_text(json.dumps([BASELINE_RUN]))
    # flags are appended to `run --config bad.json`, unless they start with a command;
    # {config} is the unedited config, and {report} and {baselines} are files that
    # compare reads
    head = [] if flags and not flags[0].startswith("-") else ["run", "--config", "{bad}"]
    code = main([arg.format(bad=bad, tmp=tmp_path, config=config_path, report=report,
                            baselines=baselines)
                 for arg in head + flags] + ["--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert name in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["train"], ["run", "--mode", "surrogate"]],
                         ids=["train", "run_surrogate"])
def test_diverged_training_exits_cleanly(command, tmp_path, capsys):
    # Adam steps of 1e308 overflow the parameters, so the loss of epoch 2 is not finite;
    # no numpy warning prints before the one line
    data = harness.config_to_dict(shipped_case("one_dof"))
    data["qml"]["learning_rate"] = 1e308
    config = tmp_path / "diverging.json"
    write_json(config, data)
    code = main(command + ["--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert "loss diverged at epoch 2" in err and "qml.learning_rate" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x").exists()


def test_old_format_params_exit_cleanly(tiny_config_path, tmp_path, capsys):
    train_out = tmp_path / "t"
    main(["train", "--config", tiny_config_path, "--out", str(train_out)])
    params = train_out / "surrogate.params"
    # the same trained surrogate in the plain-text format that JSON replaced
    params.write_text(first_format_text(load_surrogate(params)))
    capsys.readouterr()
    code = main(["run", "--config", tiny_config_path, "--out", str(tmp_path / "r"),
                 "--params", str(params)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert str(params) in err and "current format" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n_qubits, n_layers, key", [(13, 1, "'n_qubits'"),
                                                      (2, 1001, "'n_layers'")],
                         ids=["qubits_13", "layers_1001"])
def test_params_past_the_qml_caps_exit_before_a_run(n_qubits, n_layers, key, config_path,
                                                    tmp_path, capsys, monkeypatch):
    # a surrogate run builds one 2^n x 2^n unitary per layer: 4 GiB at 13 qubits
    def reached(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(harness, "run_case", reached)
    config = shipped_case("one_dof")
    params = tmp_path / "surrogate.params"
    save_surrogate(make_surrogate(config.grid, config.model, n_layers, n_qubits), params)
    code = main(["run", "--config", config_path, "--mode", "surrogate",
                 "--params", str(params), "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert str(params) in err and key in err and len(err.splitlines()) == 1


def test_train_writes_params(tiny_config_path, tmp_path):
    out = tmp_path / "train"
    assert main(["train", "--config", tiny_config_path, "--out", str(out)]) == 0
    assert json.loads((out / "surrogate.params").read_text())["format"] == "qkinopt-surrogate 2"
    trace = (out / "training_trace.csv").read_text().strip().splitlines()
    assert trace[0] == "epoch,loss"
    assert len(trace) == 5  # header + initial loss + 3 epochs


def test_run_with_pretrained_params(tiny_config_path, tmp_path):
    train_out = tmp_path / "t"
    main(["train", "--config", tiny_config_path, "--out", str(train_out)])
    code = main(["run", "--config", tiny_config_path, "--out", str(tmp_path / "r"),
                 "--params", str(train_out / "surrogate.params")])
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["loss_trace"] is None  # training skipped
    assert code in (0, 1)  # acceptance depends on the tiny surrogate's quality


def test_params_refused_in_analytic_mode(tiny_config_path, tmp_path, capsys):
    # without --params this config and mode run and exit 0 or 1
    train_out = tmp_path / "t"
    main(["train", "--config", tiny_config_path, "--out", str(train_out)])
    params = str(train_out / "surrogate.params")
    capsys.readouterr()
    code = main(["run", "--config", tiny_config_path, "--mode", "analytic",
                 "--out", str(tmp_path / "r"), "--params", params])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert params in err and "surrogate mode" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "r").exists()


def longer_link_case(**settings):
    cfg = shipped_case("one_dof", **settings)
    l1, theta1 = cfg.grid.specs
    return dataclasses.replace(cfg, grid=ParamGrid((dataclasses.replace(l1, hi=3.0), theta1)))


@pytest.mark.parametrize("n_qubits, n_params, builder, message", [
    # other inputs and readouts
    (4, 16, functools.partial(shipped_case, "two_dof"), "do not fit"),
    # too few qubits for two_dof
    (2, 8, functools.partial(shipped_case, "two_dof"), "at least 4 qubits"),
    # another length range, other maps
    (4, 16, longer_link_case, "do not fit"),
    # a truncated parameter list, refused as the file loads
    (4, 13, functools.partial(shipped_case, "one_dof"), "'params' must hold 16 values, got 13"),
], ids=["two_dof", "two_dof_too_few_qubits", "longer_link", "truncated_params"])
def test_params_that_do_not_fit_refused(n_qubits, n_params, builder, message, tmp_path,
                                        capsys):
    trained_for = shipped_case("one_dof", qubits_per_param=2)
    params = str(tmp_path / "surrogate.params")
    save_surrogate(make_surrogate(trained_for.grid, trained_for.model, n_qubits=n_qubits)
                   .with_params(np.zeros(n_params)), params)
    config = tmp_path / "other.json"
    write_json(config, config_to_dict(builder(qubits_per_param=2, mode="surrogate")))
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "r"),
                 "--params", params])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert params in err and message in err and len(err.splitlines()) == 1
    assert not (tmp_path / "r").exists()


def test_baseline_then_compare_merges(config_path, tmp_path):
    run_out = tmp_path / "q"
    base_out = tmp_path / "c"
    assert main(["run", "--config", config_path, "--out", str(run_out)]) == 0
    assert main(["baseline", "--config", config_path, "--out", str(base_out)]) == 0
    merged = tmp_path / "m"
    code = main(["compare", "--report", str(run_out / "report.json"),
                 "--baselines", str(base_out / "baselines.json"),
                 "--out", str(merged)])
    assert code == 0
    lines = (merged / "comparison.csv").read_text().strip().splitlines()
    assert lines[0] == "method,evaluations,best_cost,accepted,evals_over_grover"
    assert len(lines) == 6
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == ["grover", "nelder_mead", "quasi_newton", "pso", "exhaustive"]


def test_compare_merges_without_config(config_path, tmp_path, capsys):
    report, baselines = tmp_path / "q" / "report.json", tmp_path / "c" / "baselines.json"
    assert main(["run", "--config", config_path, "--out", str(report.parent)]) == 0
    assert main(["baseline", "--config", config_path, "--out", str(baselines.parent)]) == 0
    merge = ["compare", "--report", str(report), "--baselines", str(baselines)]
    assert main(merge + ["--out", str(tmp_path / "m")]) == 0
    assert (tmp_path / "m" / "comparison.csv").exists()
    capsys.readouterr()
    code = main(["compare", "--report", str(report), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert "--config" in err and len(err.splitlines()) == 1


def test_compare_from_config_runs_everything(config_path, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", config_path, "--out", str(out)]) == 0
    for name in ("comparison.csv", "trace.csv", "report.json", "baselines.json"):
        assert (out / name).exists()


def test_sweep_writes_table(config_path, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config_path, "--qubits", "2,3",
                 "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_shipped_configs_parse():
    for name in ("one_dof", "two_dof", "dual_arm"):
        config = harness.load_config(f"configs/{name}.json")
        assert config.case == name

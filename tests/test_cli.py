import csv
import json
import math
from pathlib import Path

import pytest

from mvstop.cli import ConfigError, load_config, main, manifest_hash, run_experiment
from mvstop.stopping import QuitParams, quit_value

SELL_MODEL = {
    "family": "sell", "alpha0": 0.1, "sigma1": 0.3, "sigma2": 0.2,
    "rho": 0.2, "a": 1.0, "m0": 1.0,
}
QUIT_MODEL = {"family": "quit", "sigma1": 0.3, "sigma2": 0.1, "rho": 0.2, "x0": 0.0}
QUIT_AT_2 = {**{k: v for k, v in QUIT_MODEL.items() if k != "x0"},
             "initial": {"kind": "normal", "loc": 2.0, "scale": 0.1}}


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def base_config(tmp_path, **overrides):
    body = {
        "experiment": "closed_form_report",
        "model": dict(SELL_MODEL),
        "numerics": {},
        "seed": 1,
        "output": str(tmp_path / "out"),
        "checks": {},
    }
    body.update(overrides)
    return body


class TestConfigValidation:
    def test_valid_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(tmp_path)))
        assert cfg["experiment"] == "closed_form_report"

    def test_unknown_keys_are_fatal(self, tmp_path):
        body = base_config(tmp_path)
        body["extra"] = 1
        body["model"]["typo"] = 2
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, body))
        messages = "\n".join(err.value.errors)
        assert "extra" in messages and "typo" in messages

    def test_all_errors_reported_at_once(self, tmp_path):
        body = base_config(tmp_path)
        del body["seed"]
        body["model"] = {"family": "sell", "sigma1": -1.0}
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, body))
        assert len(err.value.errors) >= 3

    def test_precondition_violations_named(self, tmp_path):
        body = base_config(tmp_path)
        body["model"] = dict(SELL_MODEL, alpha0=0.5)   # alpha0 >= rho
        with pytest.raises(ConfigError, match="alpha0 < rho"):
            load_config(write_config(tmp_path, body))
        body["model"] = dict(QUIT_MODEL, sigma1=0)
        with pytest.raises(ConfigError, match="sigma1 != 0"):
            load_config(write_config(tmp_path, body))

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_validate_subcommand_exit_codes(self, tmp_path, capsys):
        ok = write_config(tmp_path, base_config(tmp_path))
        assert main(["validate", ok]) == 0
        bad = write_config(tmp_path, {"experiment": "nope"}, "bad.json")
        assert main(["validate", bad]) == 1

    @pytest.mark.parametrize("output", ["taken", "taken/out"])
    def test_output_through_a_file_is_rejected(self, tmp_path, capsys, output):
        (tmp_path / "taken").write_text("")
        path = write_config(tmp_path, base_config(tmp_path, output=str(tmp_path / output)))
        assert main(["validate", path]) == 1
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert f"output {str(tmp_path / output)!r} cannot be a directory" in err
        assert "Traceback" not in err


RULE = {"kind": "threshold_up", "threshold": 2.7}
FP_MODEL = dict(QUIT_MODEL, sigma2=0.0, initial={"kind": "normal", "loc": 0.0, "scale": 0.3})
FP_SMALL = {"dt": 0.002, "spide_dt": 0.001, "horizon": 0.02, "n": 2000,
            "grid": {"x_min": -2.0, "x_max": 2.0, "n_points": 121}}
# configs that `run` aborts on: (experiment, model, numerics, expected message[, checks])
RUN_ABORTS = {
    "non_numeric_jump_intensity": (
        "evaluate_rule", dict(SELL_MODEL, jump_intensity="high", jump_mark=-0.2),
        {"rule": RULE}, "jump_intensity"),
    "bogus_initial_kind": (
        "evaluate_rule", dict(SELL_MODEL, initial={"kind": "bogus"}), {"rule": RULE},
        "model.initial"),
    "nonpositive_dt": ("evaluate_rule", SELL_MODEL, {"dt": -1, "rule": RULE}, "> 0"),
    "no_replications": (
        "evaluate_rule", SELL_MODEL, {"replications": 0, "rule": RULE}, "replications"),
    "sweep_without_thresholds": ("threshold_sweep", SELL_MODEL, {}, "thresholds"),
    "fokker_planck_step_ratio": (
        "fokker_planck_compare", FP_MODEL,
        {"dt": 0.0014, "spide_dt": 1e-4, "horizon": 0.003, "n": 100}, "spide_dt"),
    "sell_without_sigma2": (
        "evaluate_rule", {k: v for k, v in SELL_MODEL.items() if k != "sigma2"},
        {"rule": RULE}, "'sigma2'"),
    "quit_without_sigma2": (
        "threshold_sweep", {k: v for k, v in QUIT_MODEL.items() if k != "sigma2"},
        {"thresholds": [-0.5]}, "'sigma2'"),
    "unknown_rule_kind": (
        "evaluate_rule", SELL_MODEL, {"rule": {"kind": "whenever"}}, "unknown rule kind"),
    "threshold_rule_without_threshold": (
        "evaluate_rule", SELL_MODEL, {"rule": {"kind": "threshold_up"}}, "threshold"),
    "unknown_mode": ("evaluate_rule", SELL_MODEL, {"mode": "magic", "rule": RULE}, "mode"),
    "unknown_cap_payoff": (
        "evaluate_rule", SELL_MODEL, {"cap_payoff": "half", "rule": RULE}, "cap_payoff"),
    "negative_t_max": ("evaluate_rule", SELL_MODEL, {"t_max": -1, "rule": RULE}, "t_max"),
    "nonpositive_horizon_cap": (
        "evaluate_rule", SELL_MODEL, {"rule": dict(RULE, horizon_cap=0)}, "horizon_cap"),
    "unknown_sweep_rule_kind": (
        "threshold_sweep", SELL_MODEL, {"thresholds": [2.7], "rule_kind": "sideways"},
        "unknown rule kind"),
    "zero_batch_size": (
        "evaluate_rule", SELL_MODEL, {"batch_size": 0, "rule": RULE}, "batch_size"),
    "sell_nonpositive_start": ("evaluate_rule", dict(SELL_MODEL, m0=-1.0), {"rule": RULE}, "m0"),
    "numerics_not_object": ("var_ineq_check", SELL_MODEL, [], "numerics must be an object"),
    "rule_not_object": ("evaluate_rule", SELL_MODEL, {"rule": 3}, "numerics.rule"),
    "grid_not_object": ("fokker_planck_compare", FP_MODEL, {"grid": [-3, 3, 61]}, "numerics.grid"),
    "probe_not_object": ("var_ineq_check", SELL_MODEL, {"probe": 3}, "numerics.probe"),
    "particle_mode_without_particles": (
        "evaluate_rule", SELL_MODEL, {"mode": "particle", "n": 0, "rule": RULE}, "numerics.n"),
    "non_numeric_path_count": ("simulate_path", SELL_MODEL, {"n_paths": "few"}, "'n_paths'"),
    "checkpoint_past_horizon": (
        "simulate_path", SELL_MODEL, {"dt": 0.01, "horizon": 0.1, "checkpoints": [0.5]},
        "checkpoints"),
    "non_numeric_checkpoint": (
        "simulate_path", SELL_MODEL, {"checkpoints": ["end"]}, "checkpoints"),
    "grid_without_x_max": (
        "fokker_planck_compare", FP_MODEL, {"grid": {"x_min": -3.0, "n_points": 61}}, "'x_max'"),
    "non_numeric_probe_size": ("var_ineq_check", SELL_MODEL, {"probe": {"n_z": "many"}}, "many"),
    "fokker_planck_point_law": (
        "fokker_planck_compare", QUIT_MODEL, {"dt": 1e-3, "horizon": 0.01, "n": 100},
        "normal initial law"),
    "non_numeric_vi_tolerance": ("var_ineq_check", SELL_MODEL, {"tolerance": "tight"}, "tight"),
    "non_numeric_vi_gap_tolerance": (
        "var_ineq_check", SELL_MODEL, {"gap_tolerance": "loose"}, "loose"),
    "non_numeric_residual_tol": (
        "closed_form_report", SELL_MODEL, {}, "'residual_tol'", {"residual_tol": "small"}),
    "non_numeric_bandwidth": (
        "fokker_planck_compare", FP_MODEL, dict(FP_SMALL, bandwidth="wide"), "wide"),
    "non_numeric_max_l1": (
        "fokker_planck_compare", FP_MODEL, FP_SMALL, "'max_l1'", {"max_l1": "x"}),
    "non_numeric_delta": ("dynkin_check", SELL_MODEL, {"delta": "half"}, "half"),
    "zero_delta": ("dynkin_check", SELL_MODEL, {"delta": 0}, "numerics.delta"),
    "fokker_planck_zero_horizon": (
        "fokker_planck_compare", FP_MODEL, dict(FP_SMALL, horizon=0), "numerics.horizon"),
    "non_numeric_initial_scale": (
        "evaluate_rule", dict(SELL_MODEL, initial={"kind": "normal", "scale": "wide"}),
        {"rule": RULE}, "'scale' in model.initial"),
    "infinite_delta": (
        "dynkin_check", SELL_MODEL, {"delta": math.inf}, "Infinity is not a JSON number"),
    "infinite_path_horizon": (
        "simulate_path", SELL_MODEL, {"horizon": math.inf}, "Infinity is not a JSON number"),
    "infinite_t_max": (
        "evaluate_rule", SELL_MODEL, {"t_max": math.inf, "rule": RULE},
        "Infinity is not a JSON number"),
    "nan_rho": (
        "evaluate_rule", dict(QUIT_MODEL, rho=math.nan),
        {"rule": {"kind": "threshold_down", "threshold": -0.47}}, "NaN is not a JSON number"),
    "nan_sigma1": (
        "closed_form_report", dict(SELL_MODEL, sigma1=math.nan), {}, "NaN is not a JSON number"),
    "t_max_overflows_the_step_count": (
        "evaluate_rule", SELL_MODEL, {"t_max": 1e308, "rule": RULE}, "cannot build the run"),
    "initial_mean_overflows": (
        "simulate_path", {**{k: v for k, v in SELL_MODEL.items() if k != "m0"},
                          "initial": {"kind": "lognormal", "loc": 800.0, "scale": 0.1}}, {},
        "cannot build the run"),
}


@pytest.mark.parametrize("case", list(RUN_ABORTS))
def test_validate_rejects_what_run_aborts(tmp_path, capsys, case):
    experiment, model, numerics, message, *checks = RUN_ABORTS[case]
    body = base_config(tmp_path, experiment=experiment, model=dict(model), numerics=numerics,
                       checks=checks[0] if checks else {})
    assert main(["validate", write_config(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# configs that `run` accepts but misreads or checks nothing with:
# (experiment, model, numerics, checks, expected message)
VALIDATE_REJECTS = {
    "check_of_another_experiment": (
        "evaluate_rule", SELL_MODEL, {"rule": RULE}, {"max_l1": 1e-4},
        "unknown key 'max_l1' in checks"),
    "no_checkpoints": ("simulate_path", SELL_MODEL, {"checkpoints": []}, {}, "'checkpoints'"),
    "dynkin_shorter_than_a_step": (
        "dynkin_check", SELL_MODEL, {"dt": 1.0, "delta": 0.4}, {}, "one step"),
    "zero_path_horizon": ("simulate_path", SELL_MODEL, {"horizon": 0}, {}, "numerics.horizon"),
    "numeric_argmax_flag": (
        "threshold_sweep", SELL_MODEL, {"thresholds": [2.7]}, {"argmax_within_cell": 1},
        "'argmax_within_cell'"),
    "text_expect_pass": (
        "var_ineq_check", SELL_MODEL, {}, {"expect_pass": "yes"}, "'expect_pass'"),
    "numeric_log_z": ("var_ineq_check", SELL_MODEL, {"probe": {"log_z": 0}}, {}, "'log_z'"),
    "zero_workers": (
        "evaluate_rule", SELL_MODEL, {"workers": 0, "rule": RULE}, {},
        "numerics.workers must be >= 1"),
    "off_grid_checkpoint": (
        "simulate_path", SELL_MODEL, {"dt": 0.01, "checkpoints": [0.047, 0.1]}, {},
        "whole multiples of dt; off the grid: [0.047]"),
    "off_grid_t_max": (
        "evaluate_rule", SELL_MODEL, {"dt": 0.3, "t_max": 0.5, "rule": RULE}, {},
        "numerics.t_max must be a whole multiple of dt; 0.5 is 1.66667 steps of 0.3"),
    "off_grid_sweep_t_max": (
        "threshold_sweep", SELL_MODEL, {"dt": 0.3, "thresholds": [2.7]}, {},
        "numerics.t_max must be a whole multiple of dt; 100.0 is 333.333 steps of 0.3"),
    "off_grid_horizon_cap": (
        "evaluate_rule", SELL_MODEL, {"dt": 0.01, "rule": dict(RULE, horizon_cap=0.125)}, {},
        "numerics.rule.horizon_cap must be a whole multiple of dt; 0.125 is 12.5 steps"),
    "off_grid_fixed_time": (
        "evaluate_rule", QUIT_MODEL,
        {"dt": 0.1, "t_max": 1.0, "rule": {"kind": "fixed_time", "fixed_time": 0.25}}, {},
        "numerics.rule.fixed_time must be a whole multiple of dt; 0.25 is 2.5 steps of 0.1"),
    "off_grid_delta": (
        "dynkin_check", SELL_MODEL, {"dt": 0.3, "delta": 0.5}, {},
        "numerics.delta must be a whole multiple of dt; 0.5 is 1.66667 steps of 0.3"),
    "off_grid_density_horizon": (
        "fokker_planck_compare", FP_MODEL, dict(FP_SMALL, horizon=0.0204), {},
        "numerics.dt must be a whole multiple of spide_dt and divide horizon"),
    "off_grid_path_horizon": (
        "simulate_path", SELL_MODEL, {"dt": 0.01, "horizon": 0.2049, "checkpoints": [0.1]}, {},
        "numerics.horizon must be a whole multiple of dt; 0.2049 is 20.49 steps of 0.01"),
    "start_beside_another_initial_mean": (
        "evaluate_rule", dict(QUIT_AT_2, x0=1.0),
        {"rule": {"kind": "threshold_down", "threshold": -0.47}}, {},
        "model.x0 = 1.0 differs from the mean 2.0 of model.initial; give one of them"),
    "sell_initial_mean_not_positive": (
        "evaluate_rule", {**{k: v for k, v in SELL_MODEL.items() if k != "m0"},
                          "initial": {"kind": "normal", "loc": -1.0, "scale": 0.1}},
        {"rule": RULE}, {}, "the initial mean (m0) must lie in the sell state space, got -1.0"),
}


@pytest.mark.parametrize("case", list(VALIDATE_REJECTS))
def test_validate_rejects_misread_settings(tmp_path, case):
    experiment, model, numerics, checks, message = VALIDATE_REJECTS[case]
    body = base_config(tmp_path, experiment=experiment, model=dict(model), numerics=numerics,
                       checks=checks)
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert message in "\n".join(err.value.errors)


def test_readme_config_example_loads(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(example)
    monkeypatch.chdir(tmp_path)
    assert load_config(str(path))["experiment"] == "threshold_sweep"


class TestRunExperiment:
    def test_closed_form_report_outputs(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config(tmp_path)))
        assert run_experiment(config) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"]
        assert manifest["manifest_hash"] == manifest_hash(config)
        csv_text = (out / "closed_form.csv").read_text()
        assert csv_text.startswith(f"# manifest_hash={manifest['manifest_hash']}")
        assert "lambda1" in csv_text

    def test_hash_excludes_wall_time(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config(tmp_path)))
        run_experiment(config)
        first = json.loads((tmp_path / "out" / "manifest.json").read_text())
        run_experiment(config)
        second = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert first["manifest_hash"] == second["manifest_hash"]

    def test_rerun_is_byte_identical(self, tmp_path):
        body = base_config(
            tmp_path,
            experiment="evaluate_rule",
            numerics={
                "dt": 0.01, "replications": 1000, "t_max": 10.0,
                "rule": {"kind": "threshold_up", "threshold": 2.7},
            },
        )
        config = load_config(write_config(tmp_path, body))
        run_experiment(config)
        first = (tmp_path / "out" / "estimate.csv").read_bytes()
        run_experiment(config)
        assert (tmp_path / "out" / "estimate.csv").read_bytes() == first

    def test_failing_check_sets_exit_status(self, tmp_path):
        body = base_config(
            tmp_path,
            experiment="var_ineq_check",
            model=dict(QUIT_MODEL),
            numerics={"threshold": -0.9},          # wrong free boundary
            checks={"expect_pass": True},
        )
        config = load_config(write_config(tmp_path, body))
        assert run_experiment(config) == 1
        report = json.loads((tmp_path / "out" / "var_ineq_report.json").read_text())
        assert not report["passed"]

    def test_quit_closed_form_report(self, tmp_path):
        body = base_config(tmp_path, model=dict(QUIT_MODEL))
        config = load_config(write_config(tmp_path, body))
        assert run_experiment(config) == 0
        text = (tmp_path / "out" / "closed_form.csv").read_text()
        assert "eta_star" in text

    def test_report_subcommand(self, tmp_path, capsys):
        config = load_config(write_config(tmp_path, base_config(tmp_path)))
        run_experiment(config)
        assert main(["report", str(tmp_path / "out")]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["report", str(tmp_path / "missing")]) == 1
        capsys.readouterr()
        for name, text in [("not_json", "{nope"), ("no_passed", '{"experiment": "x"}')]:
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.json").write_text(text)
            assert main(["report", str(tmp_path / name)]) == 1
            out, err = capsys.readouterr()
            assert err == f"malformed summary at {tmp_path / name / 'summary.json'}\n"
            assert out == ""

    def test_run_subcommand(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["run", path]) == 0

    def test_nonpositive_workers_flag_is_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        with pytest.raises(SystemExit) as exit_:
            main(["run", path, "--workers", "-3"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "--workers must be >= 1, got -3" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_workers_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MVSTOP_WORKERS", "two")
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["run", path]) == 0

    def test_path_oracle_starts_at_the_initial_mean(self, tmp_path):
        body = base_config(
            tmp_path, experiment="simulate_path", model=dict(QUIT_AT_2),
            numerics={"dt": 0.01, "horizon": 0.1, "n": 2000, "n_paths": 1}, seed=3)
        assert run_experiment(load_config(write_config(tmp_path, body))) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["checks"]["max_rel_error_vs_oracle"]["value"] < 0.01

    @pytest.mark.parametrize("sim", [{"replications": 400},
                                     {"replications": 40, "mode": "particle", "n": 200}],
                             ids=["fast", "particle"])
    def test_rule_value_starts_at_the_initial_mean(self, tmp_path, sim):
        numerics = {"dt": 0.01, "t_max": 20.0, **sim,
                    "rule": {"kind": "threshold_down", "threshold": -0.47}}
        body = base_config(tmp_path, experiment="evaluate_rule", model=dict(QUIT_AT_2),
                           numerics=numerics, seed=3)
        run_experiment(load_config(write_config(tmp_path, body)))
        with open(tmp_path / "out" / "estimate.csv") as fh:
            row = next(csv.DictReader(line for line in fh if not line.startswith("#")))
        ref = quit_value(0.0, 2.0, QuitParams(0.3, 0.1, rho=0.2))
        assert abs(float(row["mean"]) - ref) <= max(3 * float(row["std_error"]), 0.02 * ref)

    def test_probe_grid_defaults_apply(self, tmp_path):
        body = base_config(tmp_path, experiment="var_ineq_check", numerics={"probe": {}})
        assert run_experiment(load_config(write_config(tmp_path, body))) == 0
        report = json.loads((tmp_path / "out" / "var_ineq_report.json").read_text())
        assert report["n_continuation_probes"] + report["n_stopping_probes"] == 200 * 20

    @pytest.mark.parametrize("given", [{}, {"mode": None}], ids=["absent", "null"])
    def test_simulation_defaults_apply(self, tmp_path, given):
        numerics = {"dt": 0.01, "replications": 20, "t_max": 1.0,
                    "rule": {"kind": "threshold_down", "threshold": -0.47}, **given}
        body = base_config(tmp_path, experiment="evaluate_rule", model=dict(QUIT_MODEL),
                           numerics=numerics)
        assert run_experiment(load_config(write_config(tmp_path, body))) == 0
        with open(tmp_path / "out" / "estimate.csv") as fh:
            row = next(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert row["n"] == "1000"

    def test_aborting_experiment_reports_failure(self, tmp_path):
        body = base_config(
            tmp_path,
            experiment="fokker_planck_compare",
            model=dict(FP_MODEL, sigma1=0.4),   # dt breaks the CFL bound of the default grid
            numerics={"dt": 1e-3, "horizon": 0.01, "n": 100},
        )
        config = load_config(write_config(tmp_path, body))
        assert run_experiment(config) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "aborted" in summary["checks"]


# ---------------------------------------------------------------------------
# frozen CLI outputs: one small config per experiment x family, and the sha256
# of every file the run writes except the manifest, which holds the wall time

SELL_JUMPS = dict(SELL_MODEL, jump_intensity=0.5, jump_mark=-0.2)
FROZEN_CONFIGS = {
    ("closed_form_report", "sell"): (SELL_MODEL, {}, {}),
    ("closed_form_report", "quit"): (QUIT_MODEL, {}, {}),
    ("evaluate_rule", "sell"): (
        SELL_JUMPS,
        {"dt": 0.05, "replications": 6, "t_max": 2.0, "mode": "particle", "n": 100,
         "batch_size": 4, "rule": {"kind": "threshold_up", "threshold": 1.3}},
        {"closed_form_tolerance": 0.5}),
    ("evaluate_rule", "quit"): (
        QUIT_MODEL,
        {"dt": 0.01, "replications": 300, "t_max": 10.0,
         "rule": {"kind": "threshold_down", "threshold": -0.47, "horizon_cap": 8.0}},
        {"closed_form_tolerance": 0.2}),
    ("threshold_sweep", "sell"): (
        SELL_MODEL,
        {"dt": 0.01, "replications": 300, "t_max": 20.0, "batch_size": 200,
         "thresholds": [2.2, 2.7, 3.2]},
        {"argmax_within_cell": True}),
    ("threshold_sweep", "quit"): (
        QUIT_MODEL,
        {"dt": 0.01, "replications": 300, "t_max": 10.0, "thresholds": [-0.7, -0.47, -0.2]},
        {"argmax_within_cell": True}),
    ("simulate_path", "sell"): (
        SELL_JUMPS,
        {"dt": 0.01, "horizon": 0.2, "n": 300, "n_paths": 2, "checkpoints": [0.1, 0.2]},
        {}),
    ("simulate_path", "quit"): (
        dict(QUIT_MODEL, x0=1.0, gamma0=-0.1, intensity=0.5),
        {"dt": 0.01, "horizon": 0.2, "n": 300, "n_paths": 2}, {}),
    ("fokker_planck_compare", "sell"): (
        dict(SELL_MODEL, initial={"kind": "normal", "loc": 1.0, "scale": 0.2}),
        {"dt": 0.002, "spide_dt": 0.001, "horizon": 0.02, "n": 2000,
         "grid": {"x_min": -0.5, "x_max": 2.5, "n_points": 121}},
        {"max_l1": 0.2}),
    ("fokker_planck_compare", "quit"): (
        FP_MODEL,
        {"dt": 0.002, "spide_dt": 0.001, "horizon": 0.02, "n": 2000,
         "grid": {"x_min": -2.0, "x_max": 2.0, "n_points": 121}},
        {"max_l1": 0.2}),
    ("var_ineq_check", "sell"): (SELL_MODEL, {"probe": {"n_z": 30, "n_s": 3}}, {}),
    ("var_ineq_check", "quit"): (
        QUIT_MODEL, {"threshold": -0.5, "probe": {"n_z": 30, "n_s": 3}},
        {"expect_pass": False}),
    ("dynkin_check", "sell"): (
        dict(SELL_MODEL, m0=1.5), {"dt": 0.01, "replications": 300, "delta": 0.5}, {}),
    ("dynkin_check", "quit"): (
        QUIT_MODEL, {"dt": 0.01, "replications": 300, "delta": 0.5}, {}),
}
FROZEN_OUTPUTS = {
    'closed_form_report-sell': {
        'closed_form.csv': '19096aad13540a6a2d58d03b932f95c6e722dadc230e1b327972536e8944b7ca',
        'summary.json': '84dfe9211b2c55faa7263117fbc2565835be51f857206787f1728b352da4af20',
    },
    'closed_form_report-quit': {
        'closed_form.csv': '8b70512c820cb5c891917c97d7e1abd76128b35340ee1fac3695e3f5597fb7d3',
        'summary.json': '3214eb83175d2f8c8daf840338459dc24d59a565f7a71fa8da1be7479a551ff9',
    },
    'evaluate_rule-sell': {
        'estimate.csv': 'eae417d6d8c5a393f098561f1abc7f39dcdd87d7e6c16fef94a8c6449ebefd5e',
        'summary.json': '5468a4078f210369312ece3fe2861cfe438c81f97f752346ab7cf8c21914aace',
    },
    'evaluate_rule-quit': {
        'estimate.csv': 'f550fd2696158ff42564274e0ac7dddfefc8ec2a19cb3f913867bad0ed105417',
        'summary.json': '579c1230520a1f867d99b7582c5b3be64fba73752273c674cfc1a781c9a7a40d',
    },
    'threshold_sweep-sell': {
        'summary.json': '2a52b34f255cc9f2e75a5495e9d5076fed2ae1de7d8fb9381cfc7430eade54c2',
        'sweep.csv': '97a709d165952ce77fff9d5a2cb461493665bd67b218e851d1486c58cd2b81ff',
    },
    'threshold_sweep-quit': {
        'summary.json': '7817019b5332d0298182135ba901694b37055b7780eee647fde026ca205dda05',
        'sweep.csv': '0a987236fff4616d3c85b0a12fc9a68c55c70c869ae83f263897f67a10b56bdb',
    },
    'simulate_path-sell': {
        'summary.json': '518bf68cdbf94ff3e33a46931358ad74856639fe27e61d1d6477f94e7322ac54',
        'trajectory.csv': '5292106462d26d4af88aff61562b3dc121bbef7140cc2e9cc28536302f254360',
    },
    'simulate_path-quit': {
        'summary.json': '69aa2d7a774871e814866c1143358233cf0b6f54332446b7223ef713733f991c',
        'trajectory.csv': '96e97abfd2c58f399a2a44366f097557b07531ed4a170e72108118635af84754',
    },
    'fokker_planck_compare-sell': {
        'densities.csv': '270b0d3f16593b02d4650bfa5c1d1b085aaf5f33e933d630308b2ed246fba7fa',
        'fp_summary.csv': '7c193253d0543e9e2b1bda6c19649c94326a73ddb489b7d9add060ddf855e18d',
        'summary.json': 'da480ee6d51e14a266c178991f923db3a7fa796d064f5c84a7fe653d4148a743',
    },
    'fokker_planck_compare-quit': {
        'densities.csv': 'd57e1f4a49f60e2e94ee06a8191be7faf80f608e4be1597a486ecf404762c6be',
        'fp_summary.csv': 'e8f8023930022dbc19e7c9b1462bbc401caf8036672a3ffda1ba9e0791243092',
        'summary.json': '6f655cbae29c4054e50e25584eec930a9e2841110d3a8247b68594dc891dda18',
    },
    'var_ineq_check-sell': {
        'summary.json': '63bd62777ea90dae5387235f332966a65afe5f63811038843737eccaf81bf61b',
        'var_ineq_report.json': 'd5f8a4ef050da593848303e4f99993038e442c96c4f7bf613a995f0c6639ea33',
    },
    'var_ineq_check-quit': {
        'summary.json': '8c2c64abf471a0181cf6b21ca4c432174c3a17499e78a5d09e2a7d694d5a6eb7',
        'var_ineq_report.json': '78b9a2d9e612c0bd6504b2e8098d1edc635b6e31b67da5ee2e532e939e54422e',
    },
    'dynkin_check-sell': {
        'dynkin.csv': '8fad20c5114c003b511af7294a64adfb08cc497bbcf1799a3d0693e7d468ca12',
        'summary.json': '5f26d247c298b85e1e69f3050266c8bf959f92ae20cd94071a3ecae690101d0b',
    },
    'dynkin_check-quit': {
        'dynkin.csv': '92ca8bb18ac38ef9ba908423a3a42076226cf84b599da30a11f3c4049005c28b',
        'summary.json': '18d3a1cdb7658a3b12636220f1167115349550ca68df676638e95345176fcb37',
    },
}


def _run_frozen(tmp_path, monkeypatch, experiment, family) -> Path:
    model, numerics, checks = FROZEN_CONFIGS[experiment, family]
    monkeypatch.chdir(tmp_path)  # a relative output path keeps the manifest hash fixed
    body = {"experiment": experiment, "model": model, "numerics": numerics, "seed": 7,
            "output": "out", "checks": checks}
    run_experiment(load_config(write_config(tmp_path, body)))
    return tmp_path / "out"


def _output_hashes(tmp_path, monkeypatch, experiment, family):
    import hashlib

    out = _run_frozen(tmp_path, monkeypatch, experiment, family)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("experiment,family", list(FROZEN_CONFIGS))
def test_cli_outputs_frozen(tmp_path, monkeypatch, experiment, family):
    hashes = _output_hashes(tmp_path, monkeypatch, experiment, family)
    assert hashes == FROZEN_OUTPUTS[f"{experiment}-{family}"]


@pytest.mark.parametrize("experiment,family,name", [
    ("simulate_path", "sell", "trajectory.csv"), ("simulate_path", "quit", "trajectory.csv"),
    ("fokker_planck_compare", "sell", "densities.csv"),
    ("fokker_planck_compare", "quit", "densities.csv"),
])
def test_csv_cells_are_plain_numbers(tmp_path, monkeypatch, experiment, family, name):
    # numpy scalars must be written as numbers, not as np.float64(...)
    out = _run_frozen(tmp_path, monkeypatch, experiment, family)
    lines = (out / name).read_text().splitlines()
    cells = [cell for row in csv.reader(lines[3:]) for cell in row]  # after the header
    assert cells
    for cell in cells:
        float(cell)  # raises ValueError on a cell such as np.float64(0.5)

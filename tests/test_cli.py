import csv
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from mvstop import stopping
from mvstop.cli import (
    ConfigError, build_model, load_config, main, manifest_hash, run_experiment,
)
from mvstop.generator import VarIneqReport
from mvstop.model import make_quit_model
from mvstop.stopping import SimConfig, dynkin_residual, quit_candidate

SELL_MODEL = {
    "family": "sell", "alpha0": 0.1, "sigma1": 0.3, "sigma2": 0.2,
    "rho": 0.2, "a": 1.0, "m0": 1.0,
}
QUIT_MODEL = {"family": "quit", "sigma1": 0.3, "sigma2": 0.1, "rho": 0.2, "x0": 0.0}
QUIT_AT_2 = {**{k: v for k, v in QUIT_MODEL.items() if k != "x0"},
             "initial": {"kind": "normal", "loc": 2.0, "scale": 0.1}}


class Raw:
    """A number written into the config file as given: json.dumps writes 1e999 as Infinity."""

    def __init__(self, text):
        self.text = text


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    text = json.dumps(body, default=lambda raw: f"<raw {raw.text}>")
    path.write_text(re.sub(r'"<raw ([^>"]*)>"', r"\1", text))
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
# configs that `run` aborts on:
# (experiment, model, numerics, expected message[, checks[, top-level keys]])
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
    "retired_zero_cap_payoff": (
        "evaluate_rule", SELL_MODEL, {"cap_payoff": "zero", "rule": RULE},
        "unknown cap_payoff 'zero'"),
    "value_cap_of_a_never_rule": (
        "evaluate_rule", SELL_MODEL, {"cap_payoff": "value", "rule": {"kind": "never"}},
        'numerics.cap_payoff "value" needs a threshold_up rule, the kind of the sell closed '
        'form; got never'),
    "value_cap_of_a_fixed_time_rule": (
        "evaluate_rule", QUIT_MODEL,
        {"dt": 0.1, "t_max": 1.0, "cap_payoff": "value",
         "rule": {"kind": "fixed_time", "fixed_time": 0.5}},
        'numerics.cap_payoff "value" needs a threshold_down rule, the kind of the quit closed '
        'form; got fixed_time'),
    "value_cap_against_the_direction": (
        "evaluate_rule", SELL_MODEL,
        {"cap_payoff": "value", "rule": {"kind": "threshold_down", "threshold": 0.5}},
        'numerics.cap_payoff "value" needs a threshold_up rule, the kind of the sell closed '
        'form; got threshold_down'),
    "negative_t_max": ("evaluate_rule", SELL_MODEL, {"t_max": -1, "rule": RULE}, "t_max"),
    "unknown_sweep_rule_kind": (  # a sweep's direction is the family's; it was a setting
        "threshold_sweep", SELL_MODEL, {"thresholds": [2.7], "rule_kind": "threshold_down"},
        "unknown key 'rule_kind' in numerics"),
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
    "overflowing_quit_sigma1": (
        "threshold_sweep", dict(QUIT_MODEL, sigma1=Raw("1e999")), {"thresholds": [-0.5]},
        "1e999 does not fit in a float"),
    "overflowing_quit_intensity": (
        "threshold_sweep", dict(QUIT_MODEL, intensity=Raw("1e999")), {"thresholds": [-0.5]},
        "1e999 does not fit in a float"),
    "overflowing_integer_quit_sigma1": (
        "threshold_sweep", dict(QUIT_MODEL, sigma1=Raw("1" + "0" * 400)),
        {"thresholds": [-0.5]}, "1" + "0" * 400 + " does not fit in a float"),
    "overflowing_integer_sell_rho": (
        "evaluate_rule", dict(SELL_MODEL, rho=Raw("1" + "0" * 400)), {"rule": RULE},
        "1" + "0" * 400 + " does not fit in a float"),
    "zero_sell_threshold": (
        "var_ineq_check", SELL_MODEL, {"threshold": 0.0}, "sell threshold must be > 0, got 0.0"),
    "negative_sell_threshold": (
        "var_ineq_check", SELL_MODEL, {"threshold": -1.0}, "sell threshold must be > 0, got -1.0"),
    "negative_seed": (
        "evaluate_rule", SELL_MODEL, {"rule": RULE}, "seed must be a non-negative integer, got -1",
        {}, {"seed": -1}),
}


@pytest.mark.parametrize("case", list(RUN_ABORTS))
def test_validate_rejects_what_run_aborts(tmp_path, capsys, case):
    experiment, model, numerics, message, *rest = RUN_ABORTS[case]
    checks, top = (*rest, {}, {})[:2]
    body = base_config(tmp_path, experiment=experiment, model=dict(model), numerics=numerics,
                       checks=checks, **top)
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
    "dynkin_zero_workers": (
        "dynkin_check", SELL_MODEL, {"workers": 0}, {}, "numerics.workers must be >= 1"),
    "dynkin_shorter_than_a_step": (
        "dynkin_check", SELL_MODEL, {"dt": 1.0, "delta": 0.4}, {},
        "the Dynkin check needs a numerics.delta of at least one step dt"),
    "zero_path_horizon": ("simulate_path", SELL_MODEL, {"horizon": 0}, {}, "numerics.horizon"),
    "numeric_argmax_flag": (
        "threshold_sweep", SELL_MODEL, {"thresholds": [2.7]}, {"argmax_within_cell": 1},
        "'argmax_within_cell'"),
    "text_expect_pass": (
        "var_ineq_check", SELL_MODEL, {}, {"expect_pass": "yes"}, "'expect_pass'"),
    "numeric_log_z": (  # the probe spacing is the family's (Family.probe); it was a setting
        "var_ineq_check", SELL_MODEL, {"probe": {"log_z": 0}}, {},
        "unknown key 'log_z' in numerics.probe"),
    "negative_log_probe_start": (
        "var_ineq_check", SELL_MODEL, {"probe": {"z_min": -1.0}}, {},
        "a log probe window needs z_min, z_max > 0, got -1.0, 20.0"),
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
    "retired_horizon_cap": (  # a rule runs to t_max; an old per-rule cap must not be ignored
        "evaluate_rule", SELL_MODEL, {"dt": 0.01, "rule": dict(RULE, horizon_cap=0.125)}, {},
        "unknown key 'horizon_cap' in numerics.rule"),
    "fixed_time_past_t_max": (  # every path is capped at t_max before the rule fires
        "evaluate_rule", QUIT_MODEL,
        {"dt": 0.01, "t_max": 2.0, "rule": {"kind": "fixed_time", "fixed_time": 5.0}}, {},
        "numerics.rule.fixed_time 5.0 is past numerics.t_max 2.0"),
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
    # the KDE bins each particle to its nearest node; a bandwidth under half the
    # grid step (here 4 / 120) was run and wrote an l1_distance of NaN
    "bandwidth_far_under_half_the_grid_step": (
        "fokker_planck_compare", FP_MODEL, dict(FP_SMALL, bandwidth=1e-300), {},
        "numerics.bandwidth must be finite and at least half the grid step dx = 0.0333333, "
        "got 1e-300"),
    "bandwidth_just_under_half_the_grid_step": (
        "fokker_planck_compare", FP_MODEL, dict(FP_SMALL, bandwidth=0.0166), {},
        "numerics.bandwidth must be finite and at least half the grid step dx = 0.0333333, "
        "got 0.0166"),
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
    "closed_form_check_of_a_fixed_time_rule": (
        "evaluate_rule", QUIT_MODEL,
        {"dt": 0.1, "t_max": 1.0, "rule": {"kind": "fixed_time", "fixed_time": 0.5}},
        {"closed_form_tolerance": 0.1},
        "checks.closed_form_tolerance needs a threshold_down rule, the kind of the quit "
        "closed form; got fixed_time"),
    "closed_form_check_of_a_never_rule": (
        "evaluate_rule", SELL_MODEL, {"rule": {"kind": "never"}}, {"closed_form_tolerance": 0.1},
        "checks.closed_form_tolerance needs a threshold_up rule"),
    "closed_form_check_against_the_direction": (
        "evaluate_rule", SELL_MODEL, {"rule": {"kind": "threshold_down", "threshold": 0.5}},
        {"closed_form_tolerance": 0.1}, "needs a threshold_up rule, the kind of the sell"),
    "dynkin_start_in_the_sell_stopping_region": (
        "dynkin_check", dict(SELL_MODEL, m0=5.0), {}, {},
        "the Dynkin check needs a start inside the continuation region; the initial mean (m0) "
        "5.0 is on the stopping side of 2.71273731325692"),
    "dynkin_start_in_the_quit_stopping_region": (
        "dynkin_check", dict(QUIT_MODEL, x0=-2.0), {}, {},
        "the Dynkin check needs a start inside the continuation region; the initial mean (x0) "
        "-2.0 is on the stopping side of -0.47434164902525"),
    "negative_quit_intensity": (
        "evaluate_rule", dict(QUIT_MODEL, intensity=-0.5),
        {"rule": {"kind": "threshold_down", "threshold": -0.47}}, {},
        "jump intensity must be >= 0"),
    "negative_sell_jump_intensity": (
        "evaluate_rule", dict(SELL_MODEL, jump_intensity=-0.5), {"rule": RULE}, {},
        "jump intensity must be >= 0"),
    "sweep_of_never_rules": (  # every row of sweep.csv was the same never rule
        "threshold_sweep", SELL_MODEL, {"thresholds": [2.2, 2.7], "rule_kind": "never"}, {},
        "unknown key 'rule_kind' in numerics"),
    "sweep_of_fixed_time_rules": (  # was rejected for wanting a nonnegative time
        "threshold_sweep", SELL_MODEL, {"thresholds": [2.7], "rule_kind": "fixed_time"}, {},
        "unknown key 'rule_kind' in numerics"),
    "one_replication": (  # its standard error was written as 0.0
        "evaluate_rule", SELL_MODEL, {"replications": 1, "rule": RULE}, {},
        "replications >= 2 (one replication has no standard error)"),
    "dynkin_of_one_replication": (  # its 3-SE limit was 0.0
        "dynkin_check", SELL_MODEL, {"replications": 1}, {}, "replications >= 2"),
}


@pytest.mark.parametrize("case", list(VALIDATE_REJECTS))
def test_validate_rejects_misread_settings(tmp_path, case):
    experiment, model, numerics, checks, message = VALIDATE_REJECTS[case]
    body = base_config(tmp_path, experiment=experiment, model=dict(model), numerics=numerics,
                       checks=checks)
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert message in "\n".join(err.value.errors)


def test_dynkin_check_takes_its_pool_from_the_config(tmp_path, monkeypatch):
    # numerics.workers sets the pool, as for evaluate_rule and threshold_sweep; it was an
    # unknown key.  Over four batches the pool writes the serial run's dynkin.csv
    sizes = []
    pool = stopping.ProcessPoolExecutor

    def logged(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(stopping, "ProcessPoolExecutor", logged)
    body = base_config(tmp_path, experiment="dynkin_check", model=dict(SELL_MODEL, m0=1.5),
                       numerics={"dt": 0.01, "replications": 200, "batch_size": 64,
                                 "delta": 0.5, "workers": 2}, seed=7)
    path = write_config(tmp_path, body)
    assert main(["validate", path]) == 0
    written = []
    for workers in (None, 1):  # the config's 2, then `run --workers 1`
        assert run_experiment(load_config(path), workers=workers) == 0
        written.append((tmp_path / "out" / "dynkin.csv").read_bytes())
    assert sizes == [2]
    assert written[0] == written[1]


def test_fixed_time_at_t_max_loads(tmp_path):
    # the last grid step still stops every path, so the rule is not misread
    body = base_config(tmp_path, experiment="evaluate_rule", model=dict(QUIT_MODEL), numerics={
        "dt": 0.01, "t_max": 2.0, "rule": {"kind": "fixed_time", "fixed_time": 2.0}})
    assert load_config(write_config(tmp_path, body))["numerics"]["rule"]["fixed_time"] == 2.0


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

    def test_unclamped_sell_clouds_follow_the_oracle(self, tmp_path):
        # by t = 10 some sell particles are negative; clamping them biased m_bar upward
        body = base_config(
            tmp_path, experiment="simulate_path",
            model=dict(SELL_MODEL, jump_intensity=0.5, jump_mark=-0.2),
            numerics={"dt": 0.01, "horizon": 10.0, "n": 10000, "n_paths": 5,
                      "checkpoints": [10.0]},
            checks={"max_rel_error": 0.1})
        run_experiment(load_config(write_config(tmp_path, body)))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["checks"]["max_rel_error_vs_oracle"]["value"] < 0.1

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
        ref = quit_candidate(make_quit_model(0.3, 0.1, rho=0.2)).value(0.0, 2.0)
        assert abs(float(row["mean"]) - ref) <= max(3 * float(row["std_error"]), 0.02 * ref)

    def test_closed_form_check_uses_the_rules_own_value(self, tmp_path):
        # a threshold below xi* is checked against its own value, not the optimal one
        numerics = {"dt": 0.01, "replications": 4000, "rule": {"kind": "threshold_up",
                                                                 "threshold": 1.5}}
        body = base_config(tmp_path, experiment="evaluate_rule", numerics=numerics, seed=3,
                           checks={"closed_form_tolerance": 0.05})
        assert run_experiment(load_config(write_config(tmp_path, body))) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["checks"]["value_vs_closed_form"]["passed"]

    @pytest.mark.parametrize("kind", [{}, {"kind": None}], ids=["absent", "null"])
    def test_a_rule_without_a_kind_takes_the_familys(self, tmp_path, kind):
        # the kind was threshold_up for both families: a quit rule stopped every path at
        # time 0 and wrote 0.0 +- 0.0
        numerics = {"dt": 0.01, "replications": 2000, "t_max": 60.0,
                    "rule": {"threshold": -0.47434164902525, **kind}}
        body = base_config(tmp_path, experiment="evaluate_rule", model=dict(QUIT_MODEL),
                           numerics=numerics, seed=5)
        assert run_experiment(load_config(write_config(tmp_path, body))) == 0
        with open(tmp_path / "out" / "estimate.csv") as fh:
            row = next(csv.DictReader(line for line in fh if not line.startswith("#")))
        est = stopping.evaluate_rule_mc(
            make_quit_model(0.3, 0.1, rho=0.2),
            stopping.StoppingRule("threshold_down", threshold=-0.47434164902525),
            SimConfig(dt=0.01, replications=2000, seed=5, t_max=60.0))
        assert (float(row["mean"]), float(row["std_error"])) == (est.mean, est.std_error)
        assert est.mean > 0.7

    def test_probe_grid_defaults_apply(self, tmp_path):
        body = base_config(tmp_path, experiment="var_ineq_check", numerics={"probe": {}})
        assert run_experiment(load_config(write_config(tmp_path, body))) == 0
        report = json.loads((tmp_path / "out" / "var_ineq_report.json").read_text())
        assert report["n_continuation_probes"] + report["n_stopping_probes"] == 200 * 20

    def test_var_ineq_report_keys_are_the_report_fields(self, tmp_path):
        body = base_config(tmp_path, experiment="var_ineq_check",
                           numerics={"probe": {"n_z": 10, "n_s": 2}})
        assert run_experiment(load_config(write_config(tmp_path, body))) == 0
        report = json.loads((tmp_path / "out" / "var_ineq_report.json").read_text())
        assert set(report) == {f.name for f in dataclasses.fields(VarIneqReport)} | {"passed"}

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
        {"dt": 0.01, "replications": 300, "t_max": 8.0,
         "rule": {"kind": "threshold_down", "threshold": -0.47}},
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
        'estimate.csv': '4363fb363a6db5b2d6ea5e759db9a4fbbff042002450d5a939242140f07b7214',
        'summary.json': 'a8b1370299ec61499aa5edfe42e0a7d290da368a5bee8166659978d092710bc2',
    },
    'evaluate_rule-quit': {
        'estimate.csv': 'a4a6e525ae334e05df60d6e03f1828f553167959b442398114ba108cec687535',
        'summary.json': '9af67130bf474511586cf1f6019b532747647c1b892348eea0505ace5b87d7e1',
    },
    'threshold_sweep-sell': {
        'summary.json': 'd83cfd63002694da1ca5b8e190911b9d3355e6836ceed375a4bb1c63565e1d5b',
        'sweep.csv': '15be1f91ffa2ec224a1255f25c016f13554cdbf09e167c52e596b5d39c29218b',
    },
    'threshold_sweep-quit': {
        'summary.json': '7817019b5332d0298182135ba901694b37055b7780eee647fde026ca205dda05',
        'sweep.csv': '7cda7720290f5cb9a12c76cde620df096b44cca49829d0d8b2d617125ca07f33',
    },
    'simulate_path-sell': {
        'summary.json': '8d1522210602d4d9ffd9cc7823f8e790e00eaa8fd90f9b178cf91fa9372e4172',
        'trajectory.csv': '7774a666d7f07895d62acab09c569c9668f17fc528116d6a91f2e3b88581ad44',
    },
    'simulate_path-quit': {
        'summary.json': 'b44863cc55f69f77e661b51d42d23636bb674c9cdc34b355cefd143d11cf540d',
        'trajectory.csv': 'de2067b9a3e19336f3ad762d08c10570adc89a9565aa0e33b538fb2458a9ee0f',
    },
    'fokker_planck_compare-sell': {
        'densities.csv': 'ae84122e8480eafcd51b52ad86e5cba4166823aad1d4150ade431f6d6a0184fc',
        'fp_summary.csv': 'f40a118aa4c91a8d0509a3246de89605093d28273485a6458b0ad6d0dbb904be',
        'summary.json': '9334b4e1330ae05453fe043ac8d277a345c398fa517817b3b96c1e20bd9656aa',
    },
    'fokker_planck_compare-quit': {
        'densities.csv': '646a395d6ea9e53bd5d62844dc36996741f26a27a4c2cd6ad8de12c89d81f068',
        'fp_summary.csv': 'eaf5dfabee83896f9385bf7e7c0d968dfefc5115d419eb996574f4fbe2eb04f9',
        'summary.json': '14421a2f6ffa9aea9c7309e7ef1a12e4c42013e3a4efb494f35023c4dbf9281d',
    },
    'var_ineq_check-sell': {
        'summary.json': '63bd62777ea90dae5387235f332966a65afe5f63811038843737eccaf81bf61b',
        'var_ineq_report.json': 'd0b9b981ef0c5c7fcd6f74e181eaf0e27e385b208d6e172f41f27b285b959cc7',
    },
    'var_ineq_check-quit': {
        'summary.json': '8c2c64abf471a0181cf6b21ca4c432174c3a17499e78a5d09e2a7d694d5a6eb7',
        'var_ineq_report.json': 'e1e6defd210e951e1f673f992e2727e4206a0edf03d4f3c31114cf9bab2c6210',
    },
    'dynkin_check-sell': {
        'dynkin.csv': 'f8c1a25c8c0471a4a8c5ea558b3806d12d18322b9780847af57d49fa925cc2af',
        'summary.json': 'a013e9afae3bbf2b3109a4260453b6c88e2c6f85334ac86b5f5bd9b5905529f2',
    },
    'dynkin_check-quit': {
        'dynkin.csv': 'e3c8acf702430d2c45b970cb8b03b7d686ca14688721b4e097f115e1e29002d9',
        'summary.json': 'bece52af1f1921c6345b609913c14d70cc3ff0fb3757860b1815448baa54bce9',
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


@pytest.mark.parametrize("family", ["sell", "quit"])
def test_value_cap_passes_the_frozen_closed_form_checks(tmp_path, family):
    # the frozen configs cap most rows at t_max; paying the bequest there fails the check
    model, numerics, checks = FROZEN_CONFIGS["evaluate_rule", family]
    body = base_config(tmp_path, experiment="evaluate_rule", model=model, seed=7,
                       numerics=dict(numerics, cap_payoff="value"), checks=checks)
    assert run_experiment(load_config(write_config(tmp_path, body))) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["checks"]["value_vs_closed_form"]["passed"]


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


@pytest.mark.parametrize("family", ["sell", "quit"])
def test_fp_summary_reports_the_cfl_margin(tmp_path, monkeypatch, family):
    out = _run_frozen(tmp_path, monkeypatch, "fokker_planck_compare", family)
    rows = dict(csv.reader((out / "fp_summary.csv").read_text().splitlines()[3:]))
    margin = float(rows["cfl_margin_min"])
    if family == "quit":  # constant coefficients: every step has the bound 0.25 dx^2 / sigma1^2
        assert margin == pytest.approx(1 - 0.001 / (0.25 * (4.0 / 120) ** 2 / 0.3**2), rel=1e-12)
    else:
        assert 0 < margin < 1


@pytest.mark.parametrize("family", ["sell", "quit"])
def test_dynkin_csv_reports_its_truncation(tmp_path, monkeypatch, family):
    model, numerics, _ = FROZEN_CONFIGS["dynkin_check", family]
    out = _run_frozen(tmp_path, monkeypatch, "dynkin_check", family)
    [row] = csv.DictReader((out / "dynkin.csv").read_text().splitlines()[2:])  # after the comments
    cfg = SimConfig(dt=numerics["dt"], replications=numerics["replications"], seed=7,
                    t_max=numerics["delta"])
    result = dynkin_residual(build_model(model), cfg)
    assert 0 < result.estimate.truncation_fraction < 1
    assert float(row["truncation_fraction"]) == result.estimate.truncation_fraction

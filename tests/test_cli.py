import json

import pytest

from mvstop.cli import ConfigError, load_config, main, manifest_hash, run_experiment

SELL_MODEL = {
    "family": "sell", "alpha0": 0.1, "sigma1": 0.3, "sigma2": 0.2,
    "rho": 0.2, "a": 1.0, "m0": 1.0,
}
QUIT_MODEL = {"family": "quit", "sigma1": 0.3, "sigma2": 0.1, "rho": 0.2, "x0": 0.0}


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


RULE = {"kind": "threshold_up", "threshold": 2.7}
FP_MODEL = dict(QUIT_MODEL, sigma2=0.0, initial={"kind": "normal", "loc": 0.0, "scale": 0.3})
# configs that `run` aborts on: (experiment, model, numerics, expected message)
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
}


@pytest.mark.parametrize("case", list(RUN_ABORTS))
def test_validate_rejects_what_run_aborts(tmp_path, capsys, case):
    experiment, model, numerics, message = RUN_ABORTS[case]
    body = base_config(tmp_path, experiment=experiment, model=dict(model), numerics=numerics)
    assert main(["validate", write_config(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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

    def test_run_subcommand(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["run", path]) == 0

    def test_aborting_experiment_reports_failure(self, tmp_path):
        body = base_config(
            tmp_path,
            experiment="fokker_planck_compare",
            model=dict(QUIT_MODEL),   # point-mass initial law: not evolvable
            numerics={"dt": 1e-3, "horizon": 0.01, "n": 100},
        )
        config = load_config(write_config(tmp_path, body))
        assert run_experiment(config) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "aborted" in summary["checks"]

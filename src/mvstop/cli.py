"""Batch experiment runner.

Reads a strict JSON configuration, dispatches to the library, and writes a
manifest, result CSVs and a pass/fail summary into the output directory.
Reruns with the same config and seed are byte-identical in every result
file regardless of worker count; only the manifest's wall time differs, and
the manifest hash referenced from the CSV headers excludes it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .fokker_planck import compare_to_particles, evolve_spide, gaussian_density, make_grid
from .generator import check_variational_inequalities, default_probe_grid
from .model import INITIAL_KINDS, InitialLaw, ModelSpec
from .particle import CommonNoisePath, kde_density, simulate_path
from .stopping import (
    FAMILIES,
    Family,
    SimConfig,
    StoppingRule,
    conditional_mean_oracle,
    dynkin_residual,
    evaluate_rule_mc,
    threshold_sweep,
)


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


# ---------------------------------------------------------------------------
# config loading and validation

_TOP_KEYS = {"experiment", "model", "numerics", "seed", "output", "checks"}
_NUMERICS_KEYS = {
    "closed_form_report": set(),
    "evaluate_rule": {"dt", "replications", "t_max", "mode", "n", "workers",
                      "batch_size", "rule", "cap_payoff"},
    "threshold_sweep": {"dt", "replications", "t_max", "mode", "n", "workers",
                        "batch_size", "thresholds", "rule_kind"},
    "simulate_path": {"dt", "horizon", "n", "n_paths", "checkpoints"},
    "fokker_planck_compare": {"dt", "horizon", "n", "grid", "bandwidth", "spide_dt"},
    "var_ineq_check": {"probe", "threshold", "tolerance", "gap_tolerance"},
    "dynkin_check": {"dt", "replications", "delta", "workers", "batch_size"},
}
EXPERIMENTS = tuple(_NUMERICS_KEYS)
_RULE_KEYS = {"kind", "threshold", "fixed_time", "horizon_cap"}
_GRID_KEYS = {"x_min", "x_max", "n_points"}
_PROBE_KEYS = {"z_min", "z_max", "n_z", "s_max", "n_s", "log_z"}
_INITIAL_KEYS = {"kind", "loc", "scale"}
_CHECK_KEYS = {"closed_form_tolerance", "max_l1", "max_mass_defect", "residual_tol",
               "argmax_within_cell", "expect_pass", "max_rel_error"}


def _check_keys(block: dict, allowed: set, where: str, errors: list) -> None:
    for key in block:
        if key not in allowed:
            errors.append(f"unknown key {key!r} in {where}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require(block: dict, key: str, where: str, errors: list):
    if key not in block:
        errors.append(f"missing key {key!r} in {where}")
        return None
    value = block[key]
    if not _is_number(value):
        errors.append(f"key {key!r} in {where} has wrong type")
        return None
    return value


def _optional(block: dict, key: str, default, where: str, errors: list):
    """A numeric key's value, ``default`` when absent, None when mistyped."""
    return _require(block, key, where, errors) if key in block else default


def _validate_model(model: dict, errors: list) -> None:
    family = model.get("family")
    fam = FAMILIES.get(family) if isinstance(family, str) else None
    if fam is None:
        errors.append(f"model.family must be one of {tuple(FAMILIES)}")
        return
    _check_keys(model, {"family", "initial", *fam.required, *fam.defaults}, "model", errors)
    for key in (*fam.required, *fam.defaults):
        if key in fam.required or key in model:
            _require(model, key, "model", errors)
    initial = model.get("initial")
    if initial is not None:
        if not isinstance(initial, dict) or initial.get("kind") not in INITIAL_KINDS:
            errors.append(f"model.initial must be an object with kind in {INITIAL_KINDS}")
        else:
            _check_keys(initial, _INITIAL_KEYS, "model.initial", errors)


def _validate_numerics(kind: str, numerics: dict, errors: list) -> None:
    dt = _optional(numerics, "dt", 1e-3, "numerics", errors)
    spide_dt = _optional(numerics, "spide_dt", dt, "numerics", errors)
    horizon = _optional(numerics, "horizon", 0.5, "numerics", errors)
    if (dt is not None and dt <= 0) or (spide_dt is not None and spide_dt <= 0):
        errors.append("numerics.dt and numerics.spide_dt must be > 0")
    elif kind == "fokker_planck_compare" and None not in (dt, spide_dt, horizon):
        ratio = round(dt / spide_dt)
        if (ratio < 1 or abs(dt / spide_dt - ratio) > 1e-9 * ratio
                or round(horizon / spide_dt) % ratio):
            errors.append("numerics.dt must be a whole multiple of spide_dt and divide horizon")
    for key in ("replications", "n", "n_paths"):
        count = _optional(numerics, key, 1, "numerics", errors)
        if count is not None and count < 1:
            errors.append(f"numerics.{key} must be >= 1")
    grid = numerics.get("thresholds")
    if kind == "threshold_sweep" and not (isinstance(grid, list) and grid
                                          and all(map(_is_number, grid))):
        errors.append("numerics.thresholds must be a nonempty list of numbers")
    points = numerics.get("checkpoints", [])
    if not (isinstance(points, list) and all(map(_is_number, points))):
        errors.append("numerics.checkpoints must be a list of numbers")


def load_config(path) -> dict:
    """Parse and validate a config file; raises ConfigError listing all issues."""
    errors: list[str] = []
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top-level document must be an object"])
    _check_keys(raw, _TOP_KEYS, "top level", errors)
    kind = raw.get("experiment")
    if kind not in EXPERIMENTS:
        errors.append(f"experiment must be one of {EXPERIMENTS}")
    if not isinstance(raw.get("seed"), int) or isinstance(raw.get("seed"), bool):
        errors.append("seed must be an integer")
    if not isinstance(raw.get("output"), str):
        errors.append("output must be a directory path string")
    model = raw.get("model")
    if isinstance(model, dict):
        _validate_model(model, errors)
    else:
        errors.append("model block missing or not an object")
    numerics = raw.get("numerics", {})
    if not isinstance(numerics, dict):
        errors.append("numerics must be an object")
    elif kind in _NUMERICS_KEYS:
        _check_keys(numerics, _NUMERICS_KEYS[kind], "numerics", errors)
        _validate_numerics(kind, numerics, errors)
        for key, allowed in (("rule", _RULE_KEYS), ("grid", _GRID_KEYS),
                             ("probe", _PROBE_KEYS)):
            if not isinstance(numerics.get(key, {}), dict):
                errors.append(f"numerics.{key} must be an object")
            elif key in numerics:
                _check_keys(numerics[key], allowed, f"numerics.{key}", errors)
    checks = raw.get("checks", {})
    if isinstance(checks, dict):
        _check_keys(checks, _CHECK_KEYS, "checks", errors)
    else:
        errors.append("checks must be an object")
    if errors:
        raise ConfigError(errors)
    raw.setdefault("numerics", {})
    raw.setdefault("checks", {})
    try:
        _build_run(raw)
    except (KeyError, TypeError, ValueError) as exc:
        missing = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError([f"cannot build the run: {missing}"]) from exc
    return raw


# ---------------------------------------------------------------------------
# model construction from config


def _initial_law(model: dict, default_loc: float) -> InitialLaw:
    block = model.get("initial")
    if block is None:
        return InitialLaw("point", default_loc)
    return InitialLaw(block["kind"], block.get("loc", 0.0), block.get("scale", 0.0))


def build_model(model: dict) -> tuple[ModelSpec, object, float]:
    """Returns (spec, params bundle, start value)."""
    fam = FAMILIES[model["family"]]
    block = {**fam.defaults, **model}
    params = fam.params(block)
    start = block[fam.start_key]
    return params.spec(_initial_law(model, start)), params, start


def _sim_config(numerics: dict, seed: int, start: float, workers: int | None) -> SimConfig:
    return SimConfig(
        dt=numerics.get("dt", 1e-3),
        replications=int(numerics.get("replications", 10000)),
        seed=seed,
        t_max=numerics.get("t_max", 100.0),
        mode=numerics.get("mode", "fast"),
        n_particles=int(numerics.get("n", 1000)),
        start=start,
        cap_payoff=numerics.get("cap_payoff", "stop"),
        workers=workers if workers is not None else int(numerics.get("workers", 1)),
        batch_size=int(numerics.get("batch_size", 16384)),
    )


def _rule(numerics: dict) -> StoppingRule:
    block = numerics.get("rule", {})
    return StoppingRule(
        block.get("kind", "threshold_up"),
        threshold=block.get("threshold", math.nan),
        fixed_time=block.get("fixed_time", math.nan),
        horizon_cap=block.get("horizon_cap"),
    )


def _sweep_rule_kind(numerics: dict, fam: Family) -> str:
    return numerics.get("rule_kind", f"threshold_{fam.direction}")


def _checkpoints(numerics: dict) -> list[tuple[float, int]]:
    """Each simulate_path checkpoint time with its grid step."""
    dt, horizon = numerics.get("dt", 1e-3), numerics.get("horizon", 1.0)
    points = [(t, int(round(t / dt))) for t in numerics.get("checkpoints", [horizon])]
    if not all(0 <= k <= round(horizon / dt) for _, k in points):
        raise ValueError("numerics.checkpoints must lie in [0, horizon]")
    return points


def _fp_grid(numerics: dict, spec: ModelSpec) -> np.ndarray:
    """The density grid; the initial law must be a spread-out normal."""
    if spec.initial_law.kind != "normal" or spec.initial_law.scale <= 0:
        raise ValueError("fokker_planck_compare needs a spread-out normal initial law")
    block = numerics.get("grid", {"x_min": -3.0, "x_max": 3.0, "n_points": 601})
    return make_grid(block["x_min"], block["x_max"], int(block["n_points"]))


def _probe_grid(numerics: dict, fam: Family, params) -> tuple[np.ndarray, np.ndarray]:
    probe = {**fam.probe(fam.candidate(params).threshold), **numerics.get("probe", {})}
    return default_probe_grid(
        probe["z_min"], probe["z_max"], int(probe.get("n_z", 200)),
        probe.get("s_max", 2.0), int(probe.get("n_s", 20)), probe["log_z"],
    )


def _build_run(config: dict) -> None:
    """Build what ``run`` builds before it computes, raising what that raises."""
    spec, params, start = build_model(config["model"])
    fam = FAMILIES[spec.family]
    kind, numerics = config["experiment"], config["numerics"]
    if kind in ("evaluate_rule", "threshold_sweep", "dynkin_check"):
        cfg = _sim_config(numerics, config["seed"], start, None)
    if kind == "evaluate_rule":
        _rule(numerics)
    elif kind == "threshold_sweep":
        for t in numerics["thresholds"]:
            StoppingRule(_sweep_rule_kind(numerics, fam), threshold=float(t))
    elif kind == "dynkin_check":
        replace(cfg, t_max=numerics.get("delta", 0.5))
    elif kind == "simulate_path":
        _checkpoints(numerics)
    elif kind == "fokker_planck_compare":
        _fp_grid(numerics, spec)
    elif kind == "var_ineq_check":
        fam.candidate(params, numerics.get("threshold"))
        _probe_grid(numerics, fam, params)


# ---------------------------------------------------------------------------
# output plumbing


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_hash(config: dict) -> str:
    payload = _canonical_json({"config": config, "version": __version__})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, columns, rows, mhash: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest_hash={mhash}\n# mvstop {__version__}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


class Summary:
    def __init__(self):
        self.checks: dict[str, dict] = {}

    def add(self, name: str, value, limit, passed: bool) -> None:
        self.checks[name] = {"value": value, "limit": limit, "passed": bool(passed)}

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())


# ---------------------------------------------------------------------------
# experiments


def _closed_form_report(config, out, mhash, summary):
    spec, params, _ = build_model(config["model"])
    tol = config["checks"].get("residual_tol", 1e-12)
    rows, worst = FAMILIES[spec.family].report(params)
    write_csv(out / "closed_form.csv", ("quantity", "value"), rows, mhash)
    summary.add("closed_form_residuals", worst, tol, worst < tol)


def _evaluate_rule(config, out, mhash, summary, workers):
    spec, params, start = build_model(config["model"])
    numerics = config["numerics"]
    cfg = _sim_config(numerics, config["seed"], start, workers)
    rule = _rule(numerics)
    fam = FAMILIES[spec.family]
    est = evaluate_rule_mc(spec, rule, fam.payoff(params), cfg)
    write_csv(
        out / "estimate.csv",
        ("model", "threshold", "mean", "std_error", "replications",
         "truncation_fraction", "dt", "n", "seed"),
        [(spec.family, rule.threshold, est.mean, est.std_error, est.replications,
          est.truncation_fraction, cfg.dt, cfg.n_particles, cfg.seed)],
        mhash,
    )
    tol = config["checks"].get("closed_form_tolerance")
    if tol is not None:
        ref = fam.value(0.0, start, params)
        band = max(3 * est.std_error, tol * abs(ref))
        summary.add("value_vs_closed_form", abs(est.mean - ref), band,
                    abs(est.mean - ref) <= band)


def _threshold_sweep(config, out, mhash, summary, workers):
    spec, params, start = build_model(config["model"])
    numerics = config["numerics"]
    cfg = _sim_config(numerics, config["seed"], start, workers)
    fam = FAMILIES[spec.family]
    thresholds = numerics["thresholds"]
    sweep = threshold_sweep(spec, thresholds, fam.payoff(params), cfg,
                            kind=_sweep_rule_kind(numerics, fam))
    rows = [
        (spec.family, t, e.mean, e.std_error, e.replications, e.truncation_fraction,
         cfg.dt, cfg.n_particles, cfg.seed, int(t == sweep.argmax_threshold))
        for t, e in sweep.rows()
    ]
    write_csv(
        out / "sweep.csv",
        ("model", "threshold", "mean", "std_error", "replications",
         "truncation_fraction", "dt", "n", "seed", "is_argmax"),
        rows, mhash,
    )
    if config["checks"].get("argmax_within_cell"):
        star = fam.candidate(params).threshold
        grid = sorted(thresholds)
        pos = int(np.argmin([abs(t - star) for t in grid]))
        neighbors = {grid[max(0, pos - 1)], grid[pos], grid[min(len(grid) - 1, pos + 1)]}
        summary.add("argmax_within_one_cell", sweep.argmax_threshold, sorted(neighbors),
                    sweep.argmax_threshold in neighbors)


def _simulate_path(config, out, mhash, summary):
    spec, _, start = build_model(config["model"])
    numerics = config["numerics"]
    dt = numerics.get("dt", 1e-3)
    horizon = numerics.get("horizon", 1.0)
    n = int(numerics.get("n", 1000))
    n_paths = int(numerics.get("n_paths", 10))
    checkpoints = _checkpoints(numerics)
    rows = []
    worst = 0.0
    for rep in range(n_paths):
        ss = np.random.SeedSequence(config["seed"], spawn_key=(rep,))
        rng_common, rng_cloud = [np.random.default_rng(c) for c in ss.spawn(2)]
        common = CommonNoisePath.sample(horizon, dt, rng_common)
        result = simulate_path(spec, horizon, dt, n, common, rng_cloud,
                               floor=FAMILIES[spec.family].floor)
        oracle = conditional_mean_oracle(spec, start, common)
        for t_check, k in checkpoints:
            ref = oracle[k]
            err = abs(result.m_bar[k] - ref) / max(abs(ref), 1e-12)
            worst = max(worst, err)
            rows.append((rep, t_check, result.m_bar[k], ref, err, n, result.floor_events))
    write_csv(
        out / "trajectory.csv",
        ("replication", "t", "m_bar", "oracle", "rel_error", "n", "floor_events"),
        rows, mhash,
    )
    tol = config["checks"].get("max_rel_error", 0.05)
    summary.add("max_rel_error_vs_oracle", worst, tol, worst < tol)


def _fokker_planck_compare(config, out, mhash, summary):
    spec, _, _ = build_model(config["model"])
    numerics = config["numerics"]
    dt = numerics.get("dt", 1e-3)            # particle step
    spide_dt = numerics.get("spide_dt", dt)  # density step, may be finer
    horizon = numerics.get("horizon", 0.5)
    n = int(numerics.get("n", 10000))
    x = _fp_grid(numerics, spec)
    law = spec.initial_law
    ss = np.random.SeedSequence(config["seed"], spawn_key=(0,))
    rng_common, rng_cloud = [np.random.default_rng(c) for c in ss.spawn(2)]
    common = CommonNoisePath.sample(horizon, spide_dt, rng_common)
    density = gaussian_density(x, law.loc, law.scale)
    density, diags = evolve_spide(density, spec, spide_dt, common.increments)
    ratio = int(round(dt / spide_dt))
    coarse = CommonNoisePath(dt, common.increments.reshape(-1, ratio).sum(axis=1))
    result = simulate_path(spec, horizon, dt, n, coarse, rng_cloud,
                           snapshot_times=(horizon,))
    kde = kde_density(result.snapshots[horizon], numerics.get("bandwidth"), x)
    l1 = compare_to_particles(density, kde)
    defect = max(d.mass_defect for d in diags)
    write_csv(out / "densities.csv", ("x", "spide", "kde"),
              list(zip(x, density.values, kde.values)), mhash)
    write_csv(out / "fp_summary.csv", ("quantity", "value"),
              [("l1_distance", l1), ("max_mass_defect", defect),
               ("clipped_mass_total", sum(d.clipped_mass for d in diags))], mhash)
    summary.add("l1_distance", l1, config["checks"].get("max_l1", 0.1),
                l1 < config["checks"].get("max_l1", 0.1))
    summary.add("max_mass_defect", defect,
                config["checks"].get("max_mass_defect", 1e-6),
                defect < config["checks"].get("max_mass_defect", 1e-6))


def _var_ineq_check(config, out, mhash, summary):
    spec, params, _ = build_model(config["model"])
    fam = FAMILIES[spec.family]
    numerics = config["numerics"]
    candidate = fam.candidate(params, numerics.get("threshold"))
    probe_s, probe_z = _probe_grid(numerics, fam, params)
    report = check_variational_inequalities(
        candidate, spec, probe_s, probe_z,
        tol=numerics.get("tolerance", 1e-10),
        gap_tol=numerics.get("gap_tolerance", 1e-8),
    )
    with open(out / "var_ineq_report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    expect_pass = config["checks"].get("expect_pass", True)
    summary.add("variational_inequalities", report.passed(), expect_pass,
                report.passed() == expect_pass)


def _dynkin_check(config, out, mhash, summary, workers):
    spec, params, start = build_model(config["model"])
    numerics = config["numerics"]
    cfg = _sim_config(numerics, config["seed"], start, workers)
    candidate = FAMILIES[spec.family].candidate(params)
    delta = numerics.get("delta", 0.5)
    result = dynkin_residual(spec, candidate, cfg, delta)
    write_csv(out / "dynkin.csv",
              ("model", "delta", "residual", "std_error", "per_unit_time",
               "replications", "dt", "seed"),
              [(spec.family, delta, result.residual, result.std_error,
                result.per_unit_time, cfg.replications, cfg.dt, cfg.seed)], mhash)
    limit = 3 * result.std_error
    summary.add("dynkin_residual", abs(result.residual), limit,
                abs(result.residual) <= limit)


def run_experiment(config: dict, workers: int | None = None) -> int:
    """Execute one configured experiment; returns a process exit status."""
    out = Path(config["output"])
    out.mkdir(parents=True, exist_ok=True)
    mhash = manifest_hash(config)
    summary = Summary()
    started = time.time()
    kind = config["experiment"]
    try:
        if kind == "closed_form_report":
            _closed_form_report(config, out, mhash, summary)
        elif kind == "evaluate_rule":
            _evaluate_rule(config, out, mhash, summary, workers)
        elif kind == "threshold_sweep":
            _threshold_sweep(config, out, mhash, summary, workers)
        elif kind == "simulate_path":
            _simulate_path(config, out, mhash, summary)
        elif kind == "fokker_planck_compare":
            _fokker_planck_compare(config, out, mhash, summary)
        elif kind == "var_ineq_check":
            _var_ineq_check(config, out, mhash, summary)
        elif kind == "dynkin_check":
            _dynkin_check(config, out, mhash, summary, workers)
    except Exception as exc:  # numerical aborts become summary entries
        summary.add("aborted", f"{type(exc).__name__}: {exc}", None, False)
    wall = time.time() - started
    with open(out / "manifest.json", "w") as fh:
        json.dump(
            {"config": config, "version": __version__, "seed": config["seed"],
             "manifest_hash": mhash, "wall_time_s": wall},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    with open(out / "summary.json", "w") as fh:
        json.dump({"experiment": kind, "manifest_hash": mhash,
                   "passed": summary.passed, "checks": summary.checks},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if summary.passed else 1


# ---------------------------------------------------------------------------
# entry point


def _workers_from_env(args) -> int | None:
    if args.workers is not None:
        return args.workers
    env = os.environ.get("MVSTOP_WORKERS")
    return int(env) if env else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mvstop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=None)
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    p_rep = sub.add_parser("report", help="print the summary of a results directory")
    p_rep.add_argument("results_dir")
    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            load_config(args.config)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return 1
        print("ok")
        return 0
    if args.command == "report":
        path = Path(args.results_dir) / "summary.json"
        if not path.exists():
            print(f"no summary at {path}", file=sys.stderr)
            return 1
        summary = json.loads(path.read_text())
        print(f"experiment: {summary['experiment']}  passed: {summary['passed']}")
        for name, check in summary["checks"].items():
            flag = "PASS" if check["passed"] else "FAIL"
            print(f"  [{flag}] {name}: value={check['value']} limit={check['limit']}")
        return 0 if summary["passed"] else 1
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    return run_experiment(config, workers=_workers_from_env(args))


if __name__ == "__main__":
    raise SystemExit(main())

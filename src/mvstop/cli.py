"""Batch experiment runner.

Reads a strict JSON configuration, dispatches to the library, and writes a
manifest, result CSVs and a pass/fail summary into the output directory.
Reruns with the same config and seed are byte-identical in every result
file regardless of worker count; only the manifest's wall time differs, and
the manifest hash referenced from the CSV headers excludes it.

Each experiment is one entry of ``EXPERIMENTS``: its numerics and checks
keys with their types and defaults, and the ``prepare`` step that builds
every library object of the run.  ``validate`` and ``run`` both resolve a
config against the entry and call ``prepare``, so ``validate`` builds what
``run`` builds.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .fokker_planck import compare_to_particles, evolve_spide, gaussian_density, make_grid
from .generator import check_variational_inequalities, default_probe_grid
from .model import InitialLaw, ModelError, ModelSpec
from .particle import CommonNoisePath, check_on_grid, kde_density, off_grid, simulate_path
from .stopping import (
    FAMILIES,
    SimConfig,
    StoppingRule,
    check_dynkin_start,
    check_fixed_time,
    conditional_mean_oracle,
    dynkin_residual,
    evaluate_rule_mc,
    rule_value,
    threshold_sweep,
)


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


# ---------------------------------------------------------------------------
# key types and the resolver


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Type(NamedTuple):
    """A config value type: the values it accepts and a bound they must meet."""

    name: str
    accepts: Callable[[object], bool]
    bound: str = ""
    within: Callable[[object], bool] = lambda value: True


NUMBER = Type("a number", _is_number)
POSITIVE = Type("a number", _is_number, "> 0", lambda value: value > 0)
COUNT = Type("a number", _is_number, ">= 1", lambda value: 1 <= value < math.inf)  # -> int
FLAG = Type("true or false", lambda value: isinstance(value, bool))
TEXT = Type("a string", lambda value: isinstance(value, str))
NUMBERS = Type("a nonempty list of numbers",
               lambda value: isinstance(value, list) and bool(value)
               and all(map(_is_number, value)))
REQUIRED = object()  # the default of a key that must be given


def _resolve(table: dict, block, where: str, errors: list) -> dict:
    """``block`` checked against ``table`` and completed with its defaults.

    ``table`` maps each key to ``(type, default)``.  A key whose default is
    None is optional and may also be given as null.  A type that is itself a
    table declares a sub-block; a default sub-block is resolved as if given.
    Unknown and missing keys, wrong types and values out of bounds are
    appended to ``errors``.
    """
    if not isinstance(block, dict):
        errors.append(f"{where} must be an object")
        return {}
    errors.extend(f"unknown key {key!r} in {where}" for key in block if key not in table)
    resolved = {}
    for key, (kind, default) in table.items():
        value = block.get(key, default)
        if value is REQUIRED:
            errors.append(f"missing key {key!r} in {where}")
        elif value is None and default is None:
            pass  # an optional key, absent or given as null
        elif isinstance(kind, dict):
            value = _resolve(kind, value, f"{where}.{key}", errors)
        elif key in block and not kind.accepts(value):
            errors.append(f"key {key!r} in {where} has wrong type: {value!r} "
                          f"(needs {kind.name})")
        elif key in block and not kind.within(value):
            errors.append(f"{where}.{key} must be {kind.bound}, got {value!r}")
        elif kind is COUNT:
            value = int(value)
        resolved[key] = value
    return resolved


# ---------------------------------------------------------------------------
# config loading and validation

_TOP_KEYS = {"experiment", "model", "numerics", "seed", "output", "checks"}
_INITIAL = {"kind": (TEXT, REQUIRED), "loc": (NUMBER, 0.0), "scale": (NUMBER, 0.0)}


def _validate_model(model: dict, errors: list) -> None:
    family = model.get("family")
    fam = FAMILIES.get(family) if isinstance(family, str) else None
    if fam is None:
        errors.append(f"model.family must be one of {tuple(FAMILIES)}")
        return
    table = {"family": (TEXT, REQUIRED), "initial": (_INITIAL, None),
             **{key: (NUMBER, REQUIRED) for key in fam.required},
             **{key: (NUMBER, value) for key, value in fam.defaults.items()}}
    before = len(errors)
    initial = _resolve(table, model, "model", errors)["initial"]
    if initial is not None and len(errors) == before:  # the kind and scale checks are the law's
        try:
            InitialLaw(**initial)
        except ModelError as exc:
            errors.append(f"model.initial: {exc}")


def _not_a_number(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _in_float_range(parse):
    """A json number hook: ``parse``, after rejecting a literal no float can hold."""
    def hook(text: str):
        if not math.isfinite(float(text)):  # 1e999 and a 400-digit integer read as inf
            raise ValueError(f"{text} does not fit in a float")
        return parse(text)
    return hook


def load_config(path) -> dict:
    """Parse and validate a config file; raises ConfigError listing all issues.

    Returns the config as written, with empty ``numerics`` and ``checks``
    added where absent: the manifest hash and echo cover this, not the
    resolved settings.
    """
    errors: list[str] = []
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_not_a_number,
                            parse_float=_in_float_range(float), parse_int=_in_float_range(int))
    except (OSError, ValueError) as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top-level document must be an object"])
    errors.extend(f"unknown key {key!r} in top level" for key in raw if key not in _TOP_KEYS)
    kind = raw.get("experiment")
    known = isinstance(kind, str) and kind in EXPERIMENTS
    if not known:
        errors.append(f"experiment must be one of {tuple(EXPERIMENTS)}")
    seed = raw.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append(f"seed must be a non-negative integer, got {seed!r}")
    output = raw.get("output")
    if not isinstance(output, str):
        errors.append("output must be a directory path string")
    elif not next(p for p in (Path(output), *Path(output).parents) if p.exists()).is_dir():
        errors.append(f"output {output!r} cannot be a directory: a file is on its path")
    model = raw.get("model")
    if isinstance(model, dict):
        _validate_model(model, errors)
    else:
        errors.append("model block missing or not an object")
    raw.setdefault("numerics", {})
    raw.setdefault("checks", {})
    if known:
        try:
            _prepare(raw, errors)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            errors.append(f"cannot build the run: {exc}")
    if errors:
        raise ConfigError(errors)
    return raw


def _prepare(config: dict, errors: list, workers: int | None = None):
    """Resolve the experiment's numerics and checks into ``errors``.

    With no errors, build the run and return its computation,
    ``(out, mhash, summary) -> None``; otherwise return None.  ``workers``
    overrides ``numerics.workers``.
    """
    experiment = EXPERIMENTS[config["experiment"]]
    numerics = _resolve(experiment.numerics, config["numerics"], "numerics", errors)
    checks = _resolve(experiment.checks, config["checks"], "checks", errors)
    if errors:
        return None
    if workers is not None:
        numerics["workers"] = workers
    return experiment.prepare(build_model(config["model"]), numerics, checks, config["seed"])


# ---------------------------------------------------------------------------
# model construction from config


def build_model(model: dict) -> ModelSpec:
    """The spec of a model config block.  No initial law means a point at the
    family's start key (``m0`` or ``x0``); every run starts at the law's mean."""
    fam = FAMILIES[model["family"]]
    key = fam.start_key
    block = {**fam.defaults, **model}
    initial = model.get("initial")
    law = InitialLaw("point", block[key]) if initial is None else InitialLaw(**initial)
    spec = fam.build(block, law)
    if initial is not None and key in model and model[key] != law.mean:
        raise ValueError(f"model.{key} = {model[key]!r} differs from the mean {law.mean!r} "
                         f"of model.initial; give one of them")
    fam.start_y(spec)
    return spec


def _sim_config(numerics: dict, seed: int, **fixed) -> SimConfig:
    """The SimConfig of resolved numerics; a ``_SIM`` key absent or None keeps its default."""
    given = {("n_particles" if key == "n" else key): value
             for key, value in numerics.items() if key in _SIM and value is not None}
    return SimConfig(seed=seed, **given, **fixed)


# ---------------------------------------------------------------------------
# output plumbing


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_hash(config: dict) -> str:
    payload = _canonical_json({"config": config, "version": __version__})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, float):  # np.float64 too, whose repr is np.float64(...)
        return repr(float(value))
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
# experiments: prepare(spec, numerics, checks, seed) builds the
# run and returns the computation that writes its outputs


def _closed_form_report(spec, numerics, checks, seed):
    def compute(out, mhash, summary):
        rows, worst = FAMILIES[spec.family].report(spec)
        write_csv(out / "closed_form.csv", ("quantity", "value"), rows, mhash)
        tol = checks["residual_tol"]
        summary.add("closed_form_residuals", worst, tol, worst < tol)
    return compute


def _evaluate_rule(spec, numerics, checks, seed):
    given = numerics["rule"]
    kind = FAMILIES[spec.family].threshold_kind(spec) if given["kind"] is None else given["kind"]
    rule = StoppingRule(**dict(given, kind=kind))
    dt, t_max = numerics["dt"], numerics["t_max"]
    check_on_grid(dt, {"t_max": t_max}, "numerics.")
    check_fixed_time(rule, dt, t_max, "numerics.")
    cfg = _sim_config(numerics, seed)
    tol = checks["closed_form_tolerance"]
    if tol is not None:
        ref = rule_value(spec, rule, "checks.closed_form_tolerance").value(
            0.0, spec.initial_law.mean)
    if cfg.cap_payoff == "value":  # the run checks this too, but only once it runs
        rule_value(spec, rule, 'numerics.cap_payoff "value"')

    def compute(out, mhash, summary):
        est = evaluate_rule_mc(spec, rule, cfg)
        write_csv(
            out / "estimate.csv",
            ("model", "threshold", "mean", "std_error", "replications",
             "truncation_fraction", "dt", "n", "seed"),
            [(spec.family, rule.threshold, est.mean, est.std_error, est.replications,
              est.truncation_fraction, cfg.dt, cfg.n_particles, cfg.seed)],
            mhash,
        )
        if tol is not None:
            band = max(3 * est.std_error, tol * abs(ref))
            summary.add("value_vs_closed_form", abs(est.mean - ref), band,
                        abs(est.mean - ref) <= band)
    return compute


def _threshold_sweep(spec, numerics, checks, seed):
    fam = FAMILIES[spec.family]
    check_on_grid(numerics["dt"], {"t_max": numerics["t_max"]}, "numerics.")
    cfg = _sim_config(numerics, seed)
    thresholds = numerics["thresholds"]

    def compute(out, mhash, summary):
        sweep = threshold_sweep(spec, thresholds, cfg)
        rows = [
            (spec.family, t, e.mean, e.std_error, e.replications, e.truncation_fraction,
             cfg.dt, cfg.n_particles, cfg.seed, int(t == sweep.argmax_threshold))
            for t, e in zip(sweep.thresholds, sweep.estimates)
        ]
        write_csv(
            out / "sweep.csv",
            ("model", "threshold", "mean", "std_error", "replications",
             "truncation_fraction", "dt", "n", "seed", "is_argmax"),
            rows, mhash,
        )
        if checks["argmax_within_cell"]:
            star = fam.candidate(spec).threshold
            grid = sorted(thresholds)
            pos = int(np.argmin([abs(t - star) for t in grid]))
            neighbors = {grid[max(0, pos - 1)], grid[pos], grid[min(len(grid) - 1, pos + 1)]}
            summary.add("argmax_within_one_cell", sweep.argmax_threshold, sorted(neighbors),
                        sweep.argmax_threshold in neighbors)
    return compute


def _simulate_path(spec, numerics, checks, seed):
    dt, horizon, n = numerics["dt"], numerics["horizon"], numerics["n"]
    check_on_grid(dt, {"horizon": horizon}, "numerics.")
    checkpoints = [(t, int(round(t / dt))) for t in numerics["checkpoints"] or [horizon]]
    if not all(0 <= k <= round(horizon / dt) for _, k in checkpoints):
        raise ValueError("numerics.checkpoints must lie in [0, horizon]")
    stray = [t for t, _ in checkpoints if off_grid(t, dt)]
    if stray:  # each row is labelled with t but evaluated at step k
        raise ValueError(f"numerics.checkpoints must be whole multiples of dt; "
                         f"off the grid: {stray}")

    def compute(out, mhash, summary):
        rows = []
        worst = 0.0
        for rep in range(numerics["n_paths"]):
            ss = np.random.SeedSequence(seed, spawn_key=(rep,))
            rng_common, rng_cloud = [np.random.default_rng(c) for c in ss.spawn(2)]
            common = CommonNoisePath.sample(horizon, dt, rng_common)
            result = simulate_path(spec, common, n, rng_cloud)
            oracle = conditional_mean_oracle(spec, common)
            for t_check, k in checkpoints:
                ref = oracle[k]
                err = abs(result.m_bar[k] - ref) / max(abs(ref), 1e-12)
                worst = max(worst, err)
                rows.append((rep, t_check, result.m_bar[k], ref, err, n))
        write_csv(
            out / "trajectory.csv",
            ("replication", "t", "m_bar", "oracle", "rel_error", "n"),
            rows, mhash,
        )
        tol = checks["max_rel_error"]
        summary.add("max_rel_error_vs_oracle", worst, tol, worst < tol)
    return compute


def _fokker_planck_compare(spec, numerics, checks, seed):
    law = spec.initial_law
    if law.kind != "normal" or law.scale <= 0:
        raise ValueError("fokker_planck_compare needs a spread-out normal initial law")
    x = make_grid(**numerics["grid"])
    dt = numerics["dt"]                       # particle step
    spide_dt = numerics["spide_dt"] or dt     # density step, may be finer
    horizon = numerics["horizon"]
    ratio = round(dt / spide_dt)
    if ratio < 1 or off_grid(dt, spide_dt) or off_grid(horizon, dt):
        raise ValueError("numerics.dt must be a whole multiple of spide_dt and divide horizon")

    def compute(out, mhash, summary):
        ss = np.random.SeedSequence(seed, spawn_key=(0,))
        rng_common, rng_cloud = [np.random.default_rng(c) for c in ss.spawn(2)]
        common = CommonNoisePath.sample(horizon, spide_dt, rng_common)
        density = gaussian_density(x, law.loc, law.scale)
        density, diags = evolve_spide(density, spec, spide_dt, common.increments)
        coarse = CommonNoisePath(dt, common.increments.reshape(-1, ratio).sum(axis=1))
        result = simulate_path(spec, coarse, numerics["n"], rng_cloud)
        kde = kde_density(result.cloud, numerics["bandwidth"], x)
        l1 = compare_to_particles(density, kde)
        defect = max(d.mass_defect for d in diags)
        write_csv(out / "densities.csv", ("x", "spide", "kde"),
                  list(zip(x, density.values, kde.values)), mhash)
        write_csv(out / "fp_summary.csv", ("quantity", "value"),
                  [("l1_distance", l1), ("max_mass_defect", defect),
                   ("clipped_mass_total", sum(d.clipped_mass for d in diags)),
                   ("cfl_margin_min", min(1.0 - spide_dt / d.cfl_bound for d in diags))],
                  mhash)
        summary.add("l1_distance", l1, checks["max_l1"], l1 < checks["max_l1"])
        summary.add("max_mass_defect", defect, checks["max_mass_defect"],
                    defect < checks["max_mass_defect"])
    return compute


def _var_ineq_check(spec, numerics, checks, seed):
    fam = FAMILIES[spec.family]
    candidate = fam.candidate(spec, numerics["threshold"])
    given = {key: value for key, value in numerics["probe"].items() if value is not None}
    probe_s, probe_z = default_probe_grid(**{**fam.probe(fam.candidate(spec).threshold),
                                             **given})

    def compute(out, mhash, summary):
        report = check_variational_inequalities(
            candidate, spec, fam.payoff(spec), probe_s, probe_z,
            tol=numerics["tolerance"], gap_tol=numerics["gap_tolerance"],
        )
        with open(out / "var_ineq_report.json", "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        summary.add("variational_inequalities", report.passed(), checks["expect_pass"],
                    report.passed() == checks["expect_pass"])
    return compute


def _dynkin_check(spec, numerics, checks, seed):
    delta = numerics["delta"]
    check_dynkin_start(spec, numerics["dt"], delta, "numerics.delta")
    check_on_grid(numerics["dt"], {"delta": delta}, "numerics.")
    cfg = _sim_config(numerics, seed, t_max=delta)

    def compute(out, mhash, summary):
        result = dynkin_residual(spec, cfg)
        write_csv(out / "dynkin.csv",
                  ("model", "delta", "residual", "std_error", "per_unit_time",
                   "truncation_fraction", "replications", "dt", "seed"),
                  [(spec.family, delta, result.residual, result.std_error,
                    result.per_unit_time, result.estimate.truncation_fraction,
                    cfg.replications, cfg.dt, cfg.seed)], mhash)
        limit = 3 * result.std_error
        summary.add("dynkin_residual", abs(result.residual), limit,
                    abs(result.residual) <= limit)
    return compute


# ---------------------------------------------------------------------------
# the experiment table: every numerics and checks key, declared once


class Experiment(NamedTuple):
    numerics: dict      # key -> (type or sub-table, default or REQUIRED)
    checks: dict
    prepare: Callable   # (spec, numerics, checks, seed) -> computation


_SIM = {  # SimConfig settings; "n" is its n_particles, and None keeps SimConfig's default
    "dt": (POSITIVE, 1e-3), "replications": (COUNT, 10000), "t_max": (NUMBER, 100.0),
    "mode": (TEXT, None), "n": (COUNT, None), "cap_payoff": (TEXT, None),
    "workers": (COUNT, None), "batch_size": (COUNT, None),
}
_RULE = {"kind": (TEXT, None), "threshold": (NUMBER, math.nan),  # None: the family's kind
         "fixed_time": (NUMBER, math.nan)}
_GRID = {"x_min": (NUMBER, REQUIRED), "x_max": (NUMBER, REQUIRED),
         "n_points": (COUNT, REQUIRED)}
_PROBE = {  # None keeps the family's probe window and default_probe_grid's sizes
    "z_min": (NUMBER, None), "z_max": (NUMBER, None), "n_z": (COUNT, None),
    "s_max": (NUMBER, None), "n_s": (COUNT, None),
}

EXPERIMENTS = {
    "closed_form_report": Experiment(
        {}, {"residual_tol": (NUMBER, 1e-12)}, _closed_form_report),
    "evaluate_rule": Experiment(
        {**_SIM, "rule": (_RULE, {})},
        {"closed_form_tolerance": (NUMBER, None)}, _evaluate_rule),
    "threshold_sweep": Experiment(
        {**{key: _SIM[key] for key in _SIM if key != "cap_payoff"},
         "thresholds": (NUMBERS, REQUIRED)},
        {"argmax_within_cell": (FLAG, False)}, _threshold_sweep),
    "simulate_path": Experiment(
        {"dt": (POSITIVE, 1e-3), "horizon": (POSITIVE, 1.0), "n": (COUNT, 1000),
         "n_paths": (COUNT, 10), "checkpoints": (NUMBERS, None)},
        {"max_rel_error": (NUMBER, 0.05)}, _simulate_path),
    "fokker_planck_compare": Experiment(
        {"dt": (POSITIVE, 1e-3), "spide_dt": (POSITIVE, None), "horizon": (POSITIVE, 0.5),
         "n": (COUNT, 10000), "bandwidth": (POSITIVE, None),
         "grid": (_GRID, {"x_min": -3.0, "x_max": 3.0, "n_points": 601})},
        {"max_l1": (NUMBER, 0.1), "max_mass_defect": (NUMBER, 1e-6)}, _fokker_planck_compare),
    "var_ineq_check": Experiment(
        {"probe": (_PROBE, {}), "threshold": (NUMBER, None), "tolerance": (NUMBER, 1e-10),
         "gap_tolerance": (NUMBER, 1e-8)},
        {"expect_pass": (FLAG, True)}, _var_ineq_check),
    "dynkin_check": Experiment(
        {**{key: _SIM[key] for key in ("dt", "replications", "workers", "batch_size")},
         "delta": (POSITIVE, 0.5)},
        {}, _dynkin_check),
}


def run_experiment(config: dict, workers: int | None = None) -> int:
    """Execute one configured experiment; returns a process exit status."""
    out = Path(config["output"])
    out.mkdir(parents=True, exist_ok=True)
    mhash = manifest_hash(config)
    summary = Summary()
    started = time.time()
    kind = config["experiment"]
    try:
        errors: list[str] = []
        compute = _prepare(config, errors, workers)
        if compute is None:
            raise ConfigError(errors)
        compute(out, mhash, summary)
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
    if args.command == "run" and args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")  # exits with status 2

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
        try:
            summary = json.loads(path.read_text())
            print(f"experiment: {summary['experiment']}  passed: {summary['passed']}")
            for name, check in summary["checks"].items():
                flag = "PASS" if check["passed"] else "FAIL"
                print(f"  [{flag}] {name}: value={check['value']} limit={check['limit']}")
        except (ValueError, KeyError, TypeError, AttributeError):
            print(f"malformed summary at {path}", file=sys.stderr)
            return 1
        return 0 if summary["passed"] else 1
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    return run_experiment(config, workers=args.workers)


if __name__ == "__main__":
    raise SystemExit(main())

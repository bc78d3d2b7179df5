"""Job configs for the benchmark workloads, generated from the workload seed.

A *job* is one pass over a workload's config list.  Every config in a pass
gets its own seed, derived from ``(workload, workload seed, pass, position)``,
so the same workload seed always yields the same jobs and the program sees
nothing but these configs.

This module also knows, per experiment, which files a run must write, which
numbers to lift out of them, which checks are exact, and how much work a
config asks for (the "computed (budget)" counters).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

SELL = {"family": "sell", "alpha0": 0.1, "sigma1": 0.3, "sigma2": 0.2,
        "rho": 0.2, "a": 1.0, "m0": 1.0}
# sigma1 = 0.1 makes the hitting time of xi* light-tailed, so the cost of a
# particle-mode evaluation varies little from seed to seed; at sigma1 = 0.3 a
# few slow replications set the job time.
SELL_JUMPS = {**SELL, "sigma1": 0.1, "jump_intensity": 0.5, "jump_mark": -0.2}
QUIT = {"family": "quit", "sigma1": 0.3, "sigma2": 0.1, "rho": 0.2, "x0": 0.0}
QUIT_DENSITY = {"family": "quit", "sigma1": 0.4, "sigma2": 0.0, "rho": 0.2,
                "initial": {"kind": "normal", "loc": 0.0, "scale": 0.3}}

# Replication counts and tolerances per size.  "full" is what the benchmark
# measures; "smoke" runs every experiment of every workload in seconds.
#
# The full sizes keep each chance-level check far from its limit: the sell
# sweep's argmax needs about 20k replications to stay within one cell of
# xi* (at 2k it strays two cells in roughly one job in twelve), and each
# closed_form_tolerance is about five standard errors at its replication
# count.  The Dynkin check's 3-SE band has no setting; it fails by chance in
# about 0.3% of jobs.  The smoke size is too small for the argmax check.
SIZES = {
    "full": {
        "sell_sweep_reps": 20_000, "quit_sweep_reps": 2_000, "argmax_check": True,
        "eval_reps": 4_000, "eval_tol": 0.15, "dynkin_reps": 5_000,
        "path_n": 10_000, "n_paths": 4,
        "particle_reps": 40, "particle_tmax": 20.0, "particle_tol": 0.35,
        "fp_n": 100_000, "fp_horizon": 0.5,
        "probe_nz": 200, "probe_ns": 20,
    },
    "smoke": {
        "sell_sweep_reps": 200, "quit_sweep_reps": 200, "argmax_check": False,
        "eval_reps": 200, "eval_tol": 0.5, "dynkin_reps": 200,
        "path_n": 1_000, "n_paths": 1,
        "particle_reps": 4, "particle_tmax": 2.0, "particle_tol": 1.0,
        "fp_n": 20_000, "fp_horizon": 0.05,
        "probe_nz": 40, "probe_ns": 4,
    },
}

WORKLOADS = ("fast_mc", "particle_jumps", "density_xcheck")


def sell_threshold(model: dict) -> float:
    """Closed-form sell threshold xi*, computed here so configs do not depend
    on the code under test."""
    half = 0.5 * model["sigma1"] ** 2
    disc = math.sqrt((model["alpha0"] - half) ** 2 + 2 * model["rho"] * model["sigma1"] ** 2)
    lam1 = (half - model["alpha0"] + disc) / model["sigma1"] ** 2
    return lam1 * model["a"] / (lam1 - 1)


def quit_threshold(model: dict) -> float:
    """Closed-form quit threshold eta* = -|sigma1| / sqrt(2 rho)."""
    return -abs(model["sigma1"]) / math.sqrt(2 * model["rho"])


def _fast_mc(s: dict) -> list[tuple[str, dict]]:
    xi, eta = sell_threshold(SELL), quit_threshold(QUIT)
    return [
        ("sell_sweep", {
            "experiment": "threshold_sweep", "model": SELL,
            "numerics": {"dt": 1e-3, "t_max": 100.0, "replications": s["sell_sweep_reps"],
                         "thresholds": [xi + 0.25 * k for k in range(-3, 4)]},
            "checks": {"argmax_within_cell": s["argmax_check"]}}),
        ("quit_sweep", {
            "experiment": "threshold_sweep", "model": QUIT,
            "numerics": {"dt": 1e-3, "t_max": 60.0, "replications": s["quit_sweep_reps"],
                         "thresholds": [eta + 0.1 * k for k in range(-3, 4)]},
            "checks": {"argmax_within_cell": s["argmax_check"]}}),
        ("sell_evaluate", {
            "experiment": "evaluate_rule", "model": SELL,
            "numerics": {"dt": 1e-3, "t_max": 100.0, "replications": s["eval_reps"],
                         "rule": {"kind": "threshold_up", "threshold": xi}},
            "checks": {"closed_form_tolerance": s["eval_tol"]}}),
        ("quit_evaluate", {
            "experiment": "evaluate_rule", "model": QUIT,
            "numerics": {"dt": 1e-3, "t_max": 100.0, "replications": s["eval_reps"],
                         "rule": {"kind": "threshold_down", "threshold": eta}},
            "checks": {"closed_form_tolerance": s["eval_tol"]}}),
        ("sell_dynkin", {
            "experiment": "dynkin_check", "model": {**SELL, "m0": 1.5},
            "numerics": {"dt": 1e-3, "replications": s["dynkin_reps"], "delta": 0.5},
            "checks": {}}),
    ]


def _particle_jumps(s: dict) -> list[tuple[str, dict]]:
    return [
        ("sell_paths", {
            "experiment": "simulate_path", "model": SELL_JUMPS,
            "numerics": {"dt": 1e-3, "horizon": 1.0, "n": s["path_n"],
                         "n_paths": s["n_paths"], "checkpoints": [0.5, 1.0]},
            "checks": {"max_rel_error": 0.05}}),
        ("sell_particle_evaluate", {
            "experiment": "evaluate_rule", "model": SELL_JUMPS,
            "numerics": {"dt": 1e-2, "t_max": s["particle_tmax"], "mode": "particle",
                         "n": 2000, "replications": s["particle_reps"],
                         "rule": {"kind": "threshold_up",
                                  "threshold": sell_threshold(SELL_JUMPS)}},
            "checks": {"closed_form_tolerance": s["particle_tol"]}}),
    ]


def _density_xcheck(s: dict) -> list[tuple[str, dict]]:
    probe = {"n_z": s["probe_nz"], "n_s": s["probe_ns"]}
    return [
        ("quit_fokker_planck", {
            "experiment": "fokker_planck_compare", "model": QUIT_DENSITY,
            "numerics": {"dt": 1e-3, "spide_dt": 1e-4, "horizon": s["fp_horizon"],
                         "n": s["fp_n"],
                         "grid": {"x_min": -3.0, "x_max": 3.0, "n_points": 601}},
            "checks": {"max_l1": 0.1}}),
        ("sell_var_ineq", {"experiment": "var_ineq_check", "model": SELL,
                           "numerics": {"probe": probe}, "checks": {}}),
        ("quit_var_ineq", {"experiment": "var_ineq_check", "model": QUIT,
                           "numerics": {"probe": probe}, "checks": {}}),
        ("sell_closed_form", {"experiment": "closed_form_report", "model": SELL,
                              "numerics": {}, "checks": {}}),
        ("quit_closed_form", {"experiment": "closed_form_report", "model": QUIT,
                              "numerics": {}, "checks": {}}),
    ]


_BUILDERS = {"fast_mc": _fast_mc, "particle_jumps": _particle_jumps,
             "density_xcheck": _density_xcheck}


def derive_seed(*parts) -> int:
    """A 31-bit seed that depends only on ``parts``."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def pass_configs(workload: str, size: str, seed: int, index: int,
                 out_dir: Path) -> list[tuple[str, dict]]:
    """The labelled configs of pass ``index``, each writing under ``out_dir``."""
    jobs = []
    for pos, (label, body) in enumerate(_BUILDERS[workload](SIZES[size])):
        config = {**body, "seed": derive_seed(workload, seed, index, pos),
                  "output": str(out_dir / label)}
        jobs.append((label, config))
    return jobs


# ---------------------------------------------------------------------------
# what a run must produce

RESULT_FILES = {
    "closed_form_report": ("closed_form.csv",),
    "evaluate_rule": ("estimate.csv",),
    "threshold_sweep": ("sweep.csv",),
    "simulate_path": ("trajectory.csv",),
    "fokker_planck_compare": ("densities.csv", "fp_summary.csv"),
    "var_ineq_check": ("var_ineq_report.json",),
    "dynkin_check": ("dynkin.csv",),
}

# Checks with no sampling error: a failure is a defect, never chance.
EXACT_CHECKS = {"closed_form_residuals", "variational_inequalities", "max_mass_defect"}


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def headline(experiment: str, out: Path, checks: dict) -> dict:
    """The numbers a speed-up must not change: estimate, SE, argmax, L1, error."""
    if experiment == "evaluate_rule":
        row = _csv_rows(out / "estimate.csv")[0]
        return {"estimate": float(row["mean"]), "std_error": float(row["std_error"]),
                "truncation_fraction": float(row["truncation_fraction"])}
    if experiment == "threshold_sweep":
        best = [r for r in _csv_rows(out / "sweep.csv") if r["is_argmax"] == "1"][0]
        return {"argmax": float(best["threshold"]), "estimate": float(best["mean"]),
                "std_error": float(best["std_error"])}
    if experiment == "dynkin_check":
        row = _csv_rows(out / "dynkin.csv")[0]
        return {"estimate": float(row["residual"]), "std_error": float(row["std_error"])}
    if experiment == "simulate_path":
        return {"max_rel_error": float(checks["max_rel_error_vs_oracle"]["value"])}
    if experiment == "fokker_planck_compare":
        return {"l1": float(checks["l1_distance"]["value"]),
                "max_mass_defect": float(checks["max_mass_defect"]["value"])}
    if experiment == "var_ineq_check":
        report = json.loads((out / "var_ineq_report.json").read_text())
        return {"continuation_max_abs_residual": float(report["continuation_max_abs_residual"])}
    if experiment == "closed_form_report":
        return {"max_residual": float(checks["closed_form_residuals"]["value"])}
    raise ValueError(f"unknown experiment {experiment!r}")


def budget(config: dict) -> dict[str, int]:
    """Work a config asks for, computed from the config alone."""
    kind, num = config["experiment"], config["numerics"]
    out: dict[str, int] = {}
    if kind in ("threshold_sweep", "evaluate_rule", "dynkin_check"):
        horizon = num["delta"] if kind == "dynkin_check" else num["t_max"]
        reps = num["replications"]
        rules = len(num["thresholds"]) if kind == "threshold_sweep" else 1
        out["stopping.rep_rules"] = reps * rules
        out["stopping.path_step_budget"] = reps * round(horizon / num["dt"])
    elif kind == "simulate_path":
        out["particle.particle_steps"] = (
            num["n"] * round(num["horizon"] / num["dt"]) * num["n_paths"])
    elif kind == "fokker_planck_compare":
        points = num["grid"]["n_points"]
        out["particle.particle_steps"] = num["n"] * round(num["horizon"] / num["dt"])
        out["particle.kde_kernel_evals"] = num["n"] * points
        out["fokker_planck.grid_steps"] = points * round(num["horizon"] / num["spide_dt"])
    elif kind == "var_ineq_check":
        out["generator.probes"] = num["probe"]["n_z"] * num["probe"]["n_s"]
    return out

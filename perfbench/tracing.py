"""Spans around the calls into each mvstop layer, recorded from outside.

Each public function is wrapped under the name its caller looks it up by
(``mvstop.cli.threshold_sweep``, ``mvstop.particle.step``, ...), so the
program itself is unchanged.  Spans live in memory as
``[id, parent id, name, start, end]`` and are written out when the run ends.
A few wrappers also read the call's arguments or result, for counters that
the program computes but does not report (marks drawn, floor events, CFL
margin, truncation).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.calls: dict[str, list] = defaultdict(list)
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.stack = [], []
        self.counts, self.calls = Counter(), defaultdict(list)

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` so each call records a span; ``observe`` sees the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(tracer.spans), tracer.stack[-1] if tracer.stack else -1,
                   name, time.perf_counter(), 0.0]
            tracer.spans.append(rec)
            tracer.stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                tracer.stack.pop()
            if observe is not None:
                observe(tracer, args, result, rec[4] - rec[3])
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so calls are counted but not timed (it is too cheap to span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, wrapped in _patches(self):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _JsonWrites:
    """Stands in for ``json`` inside ``mvstop.cli`` so its ``json.dump`` writes are timed."""

    def __init__(self, tracer: Tracer):
        self.dump = tracer.span("cli.write", json.dump)

    def __getattr__(self, name):
        return getattr(json, name)


# -- observers: (tracer, args, result, seconds) ------------------------------


def _stopping(kind):
    def observe(tracer, args, result, seconds):
        if kind == "sweep":
            estimates = result.estimates
        elif kind == "dynkin":
            estimates = (result.estimate,)
        else:
            estimates = (result,)
        tracer.calls["stopping"].append((kind, estimates, seconds))
    return observe


def _marks(tracer, args, result, seconds):
    tracer.counts["model.marks_drawn"] += int(args[2])


def _floor(tracer, args, result, seconds):
    tracer.counts["particle.floor_events"] += int(result.floor_events)


def _spide_step(tracer, args, result, seconds):
    diag, dt = result[1], args[2]
    tracer.calls["fokker_planck"].append(
        (diag.mass_defect, diag.clipped_mass, 1.0 - dt / diag.cfl_bound))


def _patches(tracer: Tracer):
    cli = importlib.import_module("mvstop.cli")
    particle = importlib.import_module("mvstop.particle")
    fp = importlib.import_module("mvstop.fokker_planck")
    generator = importlib.import_module("mvstop.generator")
    model = importlib.import_module("mvstop.model")
    s = tracer.span
    return [
        (cli, "run_experiment", s("cli.run_experiment", cli.run_experiment)),
        (cli, "build_model", s("cli.build_model", cli.build_model)),
        (cli, "write_csv", s("cli.write", cli.write_csv)),
        (cli, "json", _JsonWrites(tracer)),
        (cli, "threshold_sweep",
         s("stopping.threshold_sweep", cli.threshold_sweep, _stopping("sweep"))),
        (cli, "evaluate_rule_mc",
         s("stopping.evaluate_rule_mc", cli.evaluate_rule_mc, _stopping("evaluate"))),
        (cli, "dynkin_residual",
         s("stopping.dynkin_residual", cli.dynkin_residual, _stopping("dynkin"))),
        (cli, "conditional_mean_oracle",
         s("stopping.conditional_mean_oracle", cli.conditional_mean_oracle)),
        (cli, "simulate_path", s("particle.simulate_path", cli.simulate_path, _floor)),
        (particle, "step", s("particle.step", particle.step)),
        (cli, "kde_density", s("particle.kde_density", cli.kde_density)),
        (model.LevyMeasureSpec, "sample_marks",
         s("model.sample_marks", model.LevyMeasureSpec.sample_marks, _marks)),
        (cli, "evolve_spide", s("fokker_planck.evolve_spide", cli.evolve_spide)),
        (fp, "step_spide", s("fokker_planck.step_spide", fp.step_spide, _spide_step)),
        (fp, "apply_A0_star", s("fokker_planck.apply_A0_star", fp.apply_A0_star)),
        (fp, "apply_A1_star", s("fokker_planck.apply_A1_star", fp.apply_A1_star)),
        (fp, "cfl_bound", s("fokker_planck.cfl_bound", fp.cfl_bound)),
        (cli, "check_variational_inequalities",
         s("generator.check_vi", cli.check_variational_inequalities)),
        (generator, "apply_generator_cylinder",
         tracer.counter("generator.apply_generator_calls", generator.apply_generator_cylinder)),
    ]


# -- per-pass layer metrics ---------------------------------------------------

# Counters derived from the configs (see workloads.budget) and counters the
# traced wrappers observe while the job runs.
BUDGET_COUNTERS = ("stopping.rep_rules", "stopping.path_step_budget",
                   "particle.particle_steps", "particle.kde_kernel_evals",
                   "fokker_planck.grid_steps", "generator.probes")
TRACED_COUNTERS = ("particle.step_calls", "particle.floor_events", "model.marks_drawn",
                   "fokker_planck.step_spide_calls", "generator.apply_generator_calls")

# Layer -> the span names whose inclusive time is that layer's share of a job.
LAYER_SPANS = {
    "stopping": ("stopping.threshold_sweep", "stopping.evaluate_rule_mc",
                 "stopping.dynkin_residual", "stopping.conditional_mean_oracle"),
    "particle": ("particle.simulate_path", "particle.kde_density"),
    "model": ("model.sample_marks",),
    "fokker_planck": ("fokker_planck.evolve_spide",),
    "fokker_planck+kde": ("fokker_planck.evolve_spide", "particle.kde_density"),
    "generator": ("generator.check_vi",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pass_metrics(tracer: Tracer, budget: dict, load_config_s: float,
                 bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        child[parent] += end - start

    def self_time(name):
        return sum(end - start - child[sid]
                   for sid, _, n, start, end in tracer.spans if n == name)

    stop_s = (total["stopping.threshold_sweep"] + total["stopping.evaluate_rule_mc"]
              + total["stopping.dynkin_residual"])
    rep_rules = budget.get("stopping.rep_rules", 0)
    ruled = [(e.replications, e.truncation_fraction)
             for kind, ests, _ in tracer.calls["stopping"] if kind != "dynkin" for e in ests]
    fp_steps = tracer.calls["fokker_planck"]
    particle_steps = budget.get("particle.particle_steps", 0)
    grid_steps = budget.get("fokker_planck.grid_steps", 0)
    probes = budget.get("generator.probes", 0)
    return {
        "stopping.threshold_sweep_s": total["stopping.threshold_sweep"],
        "stopping.evaluate_rule_mc_s": total["stopping.evaluate_rule_mc"],
        "stopping.dynkin_residual_s": total["stopping.dynkin_residual"],
        "stopping.conditional_mean_oracle_s": total["stopping.conditional_mean_oracle"],
        "stopping.rep_rules": rep_rules,
        "stopping.path_step_budget": budget.get("stopping.path_step_budget", 0),
        "stopping.rep_rules_per_s": _ratio(rep_rules, stop_s),
        "stopping.truncation_frac": _ratio(sum(r * t for r, t in ruled),
                                           sum(r for r, _ in ruled)),
        "stopping.se2_x_s": sum(ests[0].std_error ** 2 * sec
                                for kind, ests, sec in tracer.calls["stopping"]
                                if kind == "evaluate"),
        "particle.simulate_path_s": total["particle.simulate_path"],
        "particle.step_s": total["particle.step"],
        "particle.step_calls": calls["particle.step"],
        "particle.particle_steps": particle_steps,
        "particle.particle_steps_per_s": _ratio(particle_steps, total["particle.step"]),
        "particle.floor_events": tracer.counts["particle.floor_events"],
        "particle.kde_density_s": total["particle.kde_density"],
        "particle.kde_kernel_evals": budget.get("particle.kde_kernel_evals", 0),
        "model.sample_marks_s": total["model.sample_marks"],
        "model.marks_drawn": tracer.counts["model.marks_drawn"],
        "fokker_planck.evolve_spide_s": total["fokker_planck.evolve_spide"],
        "fokker_planck.step_spide_calls": calls["fokker_planck.step_spide"],
        "fokker_planck.grid_steps": grid_steps,
        "fokker_planck.grid_steps_per_s": _ratio(grid_steps,
                                                 total["fokker_planck.evolve_spide"]),
        "fokker_planck.operators_s": (total["fokker_planck.apply_A0_star"]
                                      + total["fokker_planck.apply_A1_star"]),
        "fokker_planck.cfl_bound_s": total["fokker_planck.cfl_bound"],
        "fokker_planck.step_self_s": self_time("fokker_planck.step_spide"),
        "fokker_planck.max_mass_defect": max((d[0] for d in fp_steps), default=0.0),
        "fokker_planck.clipped_mass_total": sum(d[1] for d in fp_steps),
        "fokker_planck.cfl_margin_min": min((d[2] for d in fp_steps), default=0.0),
        "generator.check_vi_s": total["generator.check_vi"],
        "generator.probes": probes,
        "generator.apply_generator_calls": tracer.counts["generator.apply_generator_calls"],
        "generator.probes_per_s": _ratio(probes, total["generator.check_vi"]),
        "cli.load_config_s": load_config_s,
        "cli.run_experiment_s": total["cli.run_experiment"],
        "cli.self_s": self_time("cli.run_experiment"),
        "cli.build_model_s": total["cli.build_model"],
        "cli.write_s": total["cli.write"],
        "cli.bytes_written": bytes_written,
    }


def layer_shares(tracer: Tracer, job_s: float) -> dict[str, float]:
    """Inclusive time of each layer's outermost spans as a share of the job."""
    return {layer: _ratio(sum(end - start for _, _, n, start, end in tracer.spans
                              if n in names), job_s)
            for layer, names in LAYER_SPANS.items()}


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

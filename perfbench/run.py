#!/usr/bin/env python3
"""Benchmark for mvstop: closed-loop verification jobs through the CLI entry point.

    python3 perfbench/run.py --workload fast_mc --seed 1 --seconds 25 --trace 0

One client runs one job at a time: a job is one pass over the workload's
configs (see ``workloads.py``), each run by ``mvstop.cli.run_experiment(config,
workers=1)``, and the next job starts when the previous one has finished.
Jobs run until ``--seconds`` have passed (at least one job).  The program is
imported from ``src/`` of the checkout this file sits in.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs every job twice, untraced and traced in alternating order, and reports
the per-layer metrics of the traced copies plus the tracing overhead.  The
last line of standard output is the result object; the per-job record
(environment, verdicts, headline numbers, output digests, counters) goes to
``.perfbench_out/`` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import os

# One thread per math library, fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import hashlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MAX_PASSES = 16


def import_program():
    """Import mvstop from the checkout's sources; returns (numpy, cli)."""
    if not (SRC / "mvstop" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mvstop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import mvstop.cli
    if Path(mvstop.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported mvstop from {mvstop.cli.__file__}, not {SRC}")
    return numpy, mvstop.cli


def fresh_import_seconds() -> float:
    """Time for a fresh interpreter to import numpy and mvstop, as each
    ``mvstop run`` pays it; a child process, since a module imports once."""
    code = ("import time; t = time.perf_counter(); import numpy, mvstop.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


@dataclass
class Job:
    index: int
    configs: list[tuple[str, dict]]
    budget: dict = field(default_factory=dict)
    load_config_s: float = 0.0


def prepare(cli, args, config_dir: Path) -> list[Job]:
    """Generate, write and load every job's configs (the set-up users pay)."""
    config_dir.mkdir(parents=True)
    jobs = []
    for index in range(MAX_PASSES):
        job = Job(index, [])
        # outputs are relative to the run directory, so the manifest hash and
        # hence every output digest depend on the seed alone
        for label, config in workloads.pass_configs(
                args.workload, args.size, args.seed, index, Path("out") / f"pass{index}"):
            path = config_dir / f"pass{index}-{label}.json"
            path.write_text(json.dumps(config))
            start = time.perf_counter()
            job.configs.append((label, cli.load_config(path)))
            job.load_config_s += time.perf_counter() - start
            for name, count in workloads.budget(config).items():
                job.budget[name] = job.budget.get(name, 0) + count
        jobs.append(job)
    return jobs


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _inspect(config: dict, error: str | None) -> dict:
    """Verdict, headline numbers and digests of one experiment's outputs."""
    kind, out = config["experiment"], Path(config["output"])
    record = {"experiment": kind, "passed": False, "problems": []}
    if error is not None:
        record["problems"].append(f"raised {error}")
        return record
    try:
        summary = json.loads((out / "summary.json").read_text())
        checks = summary["checks"]
        record["checks"] = checks
        record["passed"] = bool(summary["passed"])
        record["headline"] = workloads.headline(kind, out, checks)
        record["sha256"] = {p.name: _digest(p) for p in sorted(out.iterdir())
                            if p.name != "manifest.json"}
    except (OSError, KeyError, IndexError, ValueError) as exc:
        record["problems"].append(f"unreadable outputs: {type(exc).__name__}: {exc}")
        return record
    missing = [f for f in workloads.RESULT_FILES[kind] if not (out / f).is_file()]
    if missing:
        record["problems"].append(f"missing {missing}")
    if "aborted" in checks:
        record["problems"].append(f"aborted: {checks['aborted']['value']}")
    if not all(math.isfinite(v) for v in record["headline"].values()):
        record["problems"].append("non-finite headline number")
    record["problems"] += [f"exact check failed: {name}" for name, c in checks.items()
                           if name in workloads.EXACT_CHECKS and not c["passed"]]
    return record


def execute(cli, job: Job, tracer: tracing.Tracer | None = None) -> dict:
    """Run one job; time it, then read back what it wrote."""
    out = Path("out") / f"pass{job.index}"
    shutil.rmtree(out, ignore_errors=True)
    errors, seconds = {}, {}
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        for label, config in job.configs:
            started = time.perf_counter()
            try:
                cli.run_experiment(config, workers=1)
            except Exception as exc:  # a crash is a failed job, not a dead benchmark
                errors[label] = f"{type(exc).__name__}: {exc}"
            seconds[label] = time.perf_counter() - started
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    experiments = {label: {"wall_s": seconds[label], **_inspect(config, errors.get(label))}
                   for label, config in job.configs}
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out, ignore_errors=True)
    return {
        "pass": job.index, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
        "bytes_written": written,
        "passed": all(e["passed"] for e in experiments.values()),
        "problems": [f"{label}: {p}" for label, e in experiments.items()
                     for p in e["problems"]],
        "experiments": experiments,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(numpy, cli) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mvstop": cli.__version__,
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(cli, jobs: list[Job], args) -> tuple[list[dict], list[dict], list[dict]]:
    """Closed loop over the jobs until time is up.

    Returns (executions, traced per-pass metrics, traced spans).  A traced
    run executes each job untraced and traced back to back, alternating which
    goes first, so the overhead is measured on the same inputs and load.
    """
    tracer = tracing.Tracer() if args.trace else None
    executions, layer_metrics, spans = [], [], []
    start = time.perf_counter()
    for job in jobs:
        if tracer is None:
            executions.append(execute(cli, job))
        else:
            for traced in ((False, True) if job.index % 2 == 0 else (True, False)):
                rec = execute(cli, job, tracer if traced else None)
                executions.append(rec)
                if traced:
                    metrics = tracing.pass_metrics(tracer, job.budget, job.load_config_s,
                                                   rec["bytes_written"])
                    rec["layer_shares"] = tracing.layer_shares(tracer, rec["wall_s"])
                    layer_metrics.append(metrics)
                    spans.append({"pass": job.index, "spans": tracer.spans})
            untraced, traced_rec = sorted(executions[-2:], key=lambda e: e["traced"])
            digests = [{k: e.get("sha256") for k, e in r["experiments"].items()}
                       for r in (untraced, traced_rec)]
            if digests[0] != digests[1]:
                traced_rec["problems"].append("outputs differ between untraced and traced run")
        if time.perf_counter() - start >= args.seconds:
            break
    return executions, layer_metrics, spans


def _median(executions, key, traced):
    return statistics.median(e[key] for e in executions if e["traced"] == traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    numpy, cli = import_program()

    # a terminated run still removes its run directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    os.chdir(run_dir)
    try:
        import_times, setup_times = [], []
        for repeat in range(SETUP_REPEATS):
            import_times.append(fresh_import_seconds())
            start = time.perf_counter()
            jobs = prepare(cli, args, run_dir / f"configs{repeat}")
            setup_times.append(time.perf_counter() - start)
        executions, layer_metrics, spans = measure(cli, jobs, args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values = tracing.median_metrics(layer_metrics)
        values["trace.job_s_p50"] = _median(executions, "wall_s", True)
        values["trace.overhead_s"] = values["trace.job_s_p50"] - _median(executions, "wall_s", False)
    else:
        values = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "job_s_p50": _median(executions, "wall_s", False),
            "job_cpu_s_p50": _median(executions, "cpu_s", False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    problems = [p for e in executions for p in e["problems"]]
    failed = sum(not e["passed"] or bool(e["problems"]) for e in executions)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "environment": environment(numpy, cli),
        "import_s": import_times, "prepare_s": setup_times,
        "counter_labels": {**{n: "computed (budget)" for n in tracing.BUDGET_COUNTERS},
                           **{n: "counted (traced)" for n in tracing.TRACED_COUNTERS}},
        "metrics": values, "executions": executions,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans:
        with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "passes": spans}, fh)

    for e in executions:
        print(f"pass {e['pass']} {'traced' if e['traced'] else 'untraced'}: "
              f"{e['wall_s']:.3f} s wall, {e['cpu_s']:.3f} s cpu, passed={e['passed']}")
    for p in problems:
        print(f"problem: {p}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"record: {OUT / (stem + '.json')}")
    result = {
        "correct": not problems,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

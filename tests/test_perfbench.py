"""The benchmark's traced runs of the particle and density workloads, end to end.

The tracer wraps ``mvstop.particle.step`` and ``mvstop.cli.simulate_path``
and reads the result's ``floor_events``; for the density cross-check it
wraps ``mvstop.cli.kde_density`` and ``mvstop.cli.evolve_spide`` and
``step_spide``, ``apply_A0_star``, ``apply_A1_star`` and ``cfl_bound`` of
``mvstop.fokker_planck``.  A change to any of them breaks traced runs.
These run the smoke size in a subprocess, as the benchmark does.  A smoke
job's chance-level checks may fail at this size, so the count of failed
jobs is not asserted; ``correct`` covers crashes, missing outputs, exact
checks and traced outputs that differ from untraced ones.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_smoke_run(workload: str) -> None:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--size", "smoke", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]


def test_traced_particle_smoke_run_is_correct():
    _traced_smoke_run("particle_jumps")


def test_traced_density_smoke_run_is_correct():
    _traced_smoke_run("density_xcheck")

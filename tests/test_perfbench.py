"""The benchmark's traced run of the particle workload, end to end.

The tracer wraps ``mvstop.particle.step`` and ``mvstop.cli.simulate_path``
and reads the result's ``floor_events``, so a change to either breaks
traced runs.  This runs the smoke size in a subprocess, as the benchmark
does.  A smoke job's chance-level checks may fail at this size, so the
count of failed jobs is not asserted; ``correct`` covers crashes, missing
outputs, exact checks and traced outputs that differ from untraced ones.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_particle_smoke_run_is_correct():
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "particle_jumps",
           "--seed", "1", "--size", "smoke", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]

#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload at smoke size, in seconds.

    python3 perfbench/smoke.py

Runs ``run.py --size smoke`` once untraced and once traced per workload, each
in its own process, and fails unless every metric BENCHMARK.json names is
present and finite, the run is correct and no job failed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, metrics: list[dict]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit status {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("not correct")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{result.get('failed')} of {result.get('attempted')} jobs failed")
    for m in metrics:
        got = result.get("metrics", {}).get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']}: {got}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for workload in workloads.WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems = check(workload, trace, metrics)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Smoke test of the benchmark harness itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload at dimension 4 and g <= 3, once with tracing off and
once with it on, and checks that each run reports every metric that
BENCHMARK.json names, with a number, and no failed operation.  Then it
corrupts the recorded table digest and checks that ``build-d6`` reports a
failed operation (fail_frac > 0).  Takes about a minute; exits 1 on the
first problem.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import HERE, ROOT, WORK, WORKLOADS


def bench(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            names = {m["name"] for m in spec[key]}
            missing = names - set(result["metrics"])
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool)]
            if missing or bad or not result["correct"] or result["failed"]:
                sys.exit(f"FAIL {workload} trace={trace}: missing={sorted(missing)} "
                         f"non-numeric={bad} failed={result['failed']}")
            print(f"ok   {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations")

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    expected["sizes"]["smoke"]["table"]["digest"] = "0" * 64
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="smoke-", dir=WORK)
    try:
        corrupted = os.path.join(tmp, "expected.json")
        with open(corrupted, "w", encoding="utf-8") as fh:
            json.dump(expected, fh)
        result = bench("build-d6", 0, "--expected", corrupted)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result["correct"] or result["failed"] / result["attempted"] <= 0:
        sys.exit("FAIL a corrupted expected digest went unnoticed")
    print(f"ok   corrupted digest: fail_frac = {result['failed']}/{result['attempted']}")


if __name__ == "__main__":
    main()

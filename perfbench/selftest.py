#!/usr/bin/env python3
"""Self-test of the benchmark's output check and failure behaviour.

    python3 perfbench/selftest.py

1. The traced workload at seed 0 passes its pinned output check.
2. The same run with a perturbed model (decompressLatency = 2) is
   caught: correct is false, simulations are counted failed, and no
   metric is reported.
3. A directory holding only BENCHMARK.json and perfbench/ (no simulator
   sources) makes run.py exit non-zero without printing a summary.
Exits 0 when all three hold.
"""

import json
import shutil
import subprocess
import sys
import tempfile

import run


def bench(*extra, cwd=run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "traced",
           "--seed", "0", "--seconds", "1", "--trace", "0", *extra]
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    return res.returncode, json.loads(lines[-1]) if lines else None


def main():
    failures = []
    code, ok = bench()
    if code != 0 or not ok["correct"] or ok["failed"] != 0:
        failures.append(f"unperturbed run not correct: {code} {ok}")

    code, bad = bench("--decompress-latency", "2")
    if (code != 0 or bad["correct"] or bad["failed"] == 0 or
            bad["metrics"]):
        failures.append(f"perturbed run was not caught: {code} {bad}")

    run.BUILD.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BUILD.parent) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, summary = bench(cwd=bare)
        if code == 0 or summary is not None:
            failures.append(f"bare directory did not fail: {code}")

    for f in failures:
        print("selftest FAILED:", f)
    if failures:
        sys.exit(1)
    print("selftest passed: pins hold, a perturbed model is caught, and a "
          "tree without sources fails")


if __name__ == "__main__":
    main()

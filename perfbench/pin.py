#!/usr/bin/env python3
"""Record the seed-0 output pins in perfbench/expected.json.

    python3 perfbench/pin.py

Runs every workload once per mode at seed 0 with no pins, and writes
what it saw: each simulation's stats-document SHA-256, each workload's
simulated cycle total, and the codec corpus definition. Re-pin only
when a change is meant to alter modelled results; a pure simulator
speed-up must leave this file unchanged.
"""

import json
import os
import subprocess
import sys
import tempfile

import run

SUITE_CYCLES = 283832  # the headline suite total; re-pinning must keep it


def record(workload, trace, tmp, env):
    cmd = [str(run.BUILD / "wc_perfbench"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--tmp", os.path.join(tmp, "run")]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                         check=True).stdout.strip().splitlines()
    rec, summary = json.loads(out[-2]), json.loads(out[-1])
    if not summary["correct"]:
        sys.exit(f"pin.py: {workload} trace {trace} is not correct: "
                 f"{rec['problems']}")
    return rec


def main():
    run.BUILD.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BUILD.parent) as tmp:
        env = dict(os.environ, TMPDIR=tmp)
        run.build(env)
        pins = {}
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for w in (x["name"] for x in bench["workloads"]):
            e2e = record(w, 0, tmp, env)
            layers = record(w, 1, tmp, env)
            corpus = layers["corpus"]
            pins[w] = {
                "sim_cycles": e2e["metrics"]["sim_cycles"]["value"],
                "stats_sha256": e2e["stats_sha256"],
                "corpus": {"images": corpus["images"],
                           "ratio": corpus["ratio"],
                           "sha256": corpus["sha256"]},
            }
    if pins["suite"]["sim_cycles"] != SUITE_CYCLES:
        sys.exit(f"pin.py: suite ran {pins['suite']['sim_cycles']} cycles, "
                 f"not {SUITE_CYCLES}")
    doc = {"seed": 0, "workloads": pins}
    (run.HERE / "expected.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()

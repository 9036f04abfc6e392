#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--out RECORD.json]

Run it from the repository root. The first call configures and builds
perfbench/ (the simulator library from src/ plus the wc_perfbench
binary) under .bench_build/perfbench; later calls only rebuild what
changed. It then runs one workload for S seconds and prints two lines:
the full result record (provenance, digests, metric spreads) and, last,
the one-line summary {"correct", "attempted", "failed", "metrics"}.
--out also writes the record to a file, for perfbench/compare.py.

Exits non-zero without a summary when the build fails, the sources are
missing, or the run crashes or overruns its time limit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A run measures for --seconds and then finishes the pass in flight;
# anything far beyond that is a hang.
RUN_LIMIT_S = 170


def source_digest():
    """SHA-256 over every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(env):
    """Configure once, then build incrementally; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: simulator sources (src/) not found")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--out", help="also write the full record here")
    ap.add_argument("--decompress-latency", type=int,
                    help="perturb the model (output-check self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    # Keep compiler and simulator scratch files inside the checkout.
    tmp = BUILD.parent / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        build(env)
        cmd = [str(BUILD / "wc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--expected", str(HERE / "expected.json"),
               "--tmp", str(tmp / "run"),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
        if args.decompress_latency is not None:
            cmd += ["--decompress-latency", str(args.decompress_latency)]
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 env=env, timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            sys.exit(f"run.py: run exceeded {RUN_LIMIT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        sys.exit(f"run.py: wc_perfbench exited {res.returncode}")
    record, summary = json.loads(lines[-2]), json.loads(lines[-1])
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(lines[-2])
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()

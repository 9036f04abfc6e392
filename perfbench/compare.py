#!/usr/bin/env python3
"""Compare benchmark records of a parent build and a changed build.

    python3 perfbench/compare.py BASE.json... -- CHANGE.json...

Each file is a record written by `run.py --out`. Both sides must come
from the same workload, mode and toolchain (compiler, flags, nproc,
scale, record version); records from different builds are refused,
since a different compiler or flag set is not a simulator change. Pair
i of the two sides is (BASE[i], CHANGE[i]); run the sides alternately.

For every metric it prints each side's median and quartiles and a
verdict: "better" or "worse" only when the change wins (or loses) at
least nine tenths of the pairs and the medians differ by more than the
parent's own quartile spread; otherwise "same" or "unresolved".
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Provenance fields that must match for two records to be comparable.
SAME_BUILD = ("record_version", "compiler", "flags", "nproc", "workload",
              "scale", "trace", "decompress_latency")


def load(paths):
    recs = [json.loads(Path(p).read_text()) for p in paths]
    if not recs:
        sys.exit("compare.py: each side needs at least one record")
    return recs


def build_key(rec):
    prov = dict(rec["provenance"], record_version=rec["record_version"])
    return {k: prov.get(k) for k in SAME_BUILD}


def directions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in doc["end_to_end"] + doc["per_layer"]}


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def main():
    argv = sys.argv[1:]
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    base, change = load(argv[:cut]), load(argv[cut + 1:])
    keys = {json.dumps(build_key(r), sort_keys=True) for r in base + change}
    if len(keys) != 1:
        sys.exit("compare.py: refusing to compare records from different "
                 "builds or modes:\n  " + "\n  ".join(sorted(keys)))
    for side, recs in (("base", base), ("change", change)):
        digests = {r["provenance"]["source_digest"] for r in recs}
        if len(digests) != 1:
            sys.exit(f"compare.py: {side} records come from "
                     f"{len(digests)} different source trees")

    better = directions()
    pairs = min(len(base), len(change))
    print(f"{'metric':34s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>7s}  verdict")
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bm, cm = statistics.median(b), statistics.median(c)
        bq1, bq3 = quartiles(b)
        cq1, cq3 = quartiles(c)
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(1 for i in range(pairs) if sign * (c[i] - b[i]) > 0)
        losses = sum(1 for i in range(pairs) if sign * (c[i] - b[i]) < 0)
        apart = abs(cm - bm) > (bq3 - bq1)
        if wins >= 0.9 * pairs and apart:
            verdict = "better"
        elif losses >= 0.9 * pairs and apart:
            verdict = "worse"
        elif bm == cm:
            verdict = "same"
        else:
            verdict = "unresolved"
        ratio = cm / bm if bm else float("nan")
        print(f"{name:34s} {bm:12.6g} [{bq1:9.4g}, {bq3:9.4g}] "
              f"{cm:12.6g} [{cq1:9.4g}, {cq3:9.4g}] {ratio:7.3f}  "
              f"{verdict} ({wins}/{pairs} pairs won)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""CI perf gate: compare a fresh perfbench record against a baseline.

Usage: perf_gate.py BASELINE.json CURRENT.json [--max-regress=0.10]

Both files are records written by ``perfbench/run.py --out`` (CI uses
the ``suite`` workload). The gate

* exits 0 ("incomparable") without comparing when the build provenance
  differs: any of perfbench/compare.py's SAME_BUILD keys (record
  version, compiler, flags, nproc, workload, scale, trace mode,
  decompress latency) or the seed. An -O2 record measured against an
  -O3 build is not a simulator regression;
* exits 0 without comparing when the records simulated different
  totals (``metrics.sim_cycles``): the workload set or the simulated
  behaviour changed on purpose, so the wall clocks measure different
  work;
* exits 1 when ``metrics.wall_s`` grew by more than ``--max-regress``
  (default 10%);
* exits 2 ("no usable baseline") when either file is missing,
  unreadable, not valid JSON, or not a perfbench record (such as an
  artifact of an older gate) — one line, no traceback. CI treats this
  as a skip on the first run of a new baseline, never as a pass or a
  crash;
* exits 0 otherwise, printing both wall clocks and the ratio.
"""

import argparse
import json
import sys
from pathlib import Path

# Import without leaving a __pycache__ behind in perfbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from compare import SAME_BUILD  # noqa: E402  (the one copy of the keys)

PROVENANCE_KEYS = SAME_BUILD + ("seed",)

# Exit code for "no usable baseline": distinct from 0 (pass/skip) and
# 1 (regression) so CI can treat a missing or corrupt record as a skip
# on the first run without ever mistaking a crash for a pass.
EXIT_NO_BASELINE = 2


def load(path, role):
    """(provenance, wall_s, sim_cycles) of one record, or None with a
    one-line message (a half-written or foreign file must not crash the
    gate)."""
    try:
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
    except OSError as e:
        print(f"perf gate: NO BASELINE — cannot read {role} "
              f"'{path}': {e.strerror or e}")
        return None
    except ValueError as e:
        print(f"perf gate: NO BASELINE — {role} '{path}' is not "
              f"valid JSON ({e})")
        return None
    try:
        prov = dict(rec["provenance"], record_version=rec["record_version"])
        metrics = rec["metrics"]
        wall = float(metrics["wall_s"]["value"])
        return prov, wall, metrics["sim_cycles"]["value"]
    except (KeyError, TypeError, ValueError):
        print(f"perf gate: NO BASELINE — {role} '{path}' is not a "
              "perfbench record")
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regress", type=float, default=0.10,
                    help="allowed fractional wall_s growth")
    args = ap.parse_args()

    base = load(args.baseline, "baseline")
    cur = load(args.current, "current record")
    if base is None or cur is None:
        return EXIT_NO_BASELINE
    base_prov, base_wall, base_cycles = base
    cur_prov, cur_wall, cur_cycles = cur

    for key in PROVENANCE_KEYS:
        if base_prov.get(key) != cur_prov.get(key):
            print(f"perf gate: SKIP — {key} differs "
                  f"({base_prov.get(key)!r} vs {cur_prov.get(key)!r}); "
                  "records are not comparable")
            return 0

    if base_cycles != cur_cycles:
        print(f"perf gate: SKIP — simulated work changed "
              f"({base_cycles} vs {cur_cycles} sim_cycles); "
              "wall clocks measure different runs")
        return 0

    if base_wall <= 0:
        print("perf gate: SKIP — baseline wall_s is not positive")
        return 0

    ratio = cur_wall / base_wall
    verdict = "OK" if ratio <= 1.0 + args.max_regress else "FAIL"
    print(f"perf gate: {verdict} — wall_s {base_wall:.3f}s -> "
          f"{cur_wall:.3f}s ({ratio:.2%} of baseline, limit "
          f"{1.0 + args.max_regress:.2%})")
    return 0 if verdict == "OK" else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Exit paths of the CI perf gate (tools/perf_gate.py), driven with
synthetic perfbench records: a pass, a >10% regression, a skip for
every provenance key and for changed simulated work, and exit 2 for a
missing, corrupt or old-format baseline.

    python3 tests/test_perf_gate.py
"""

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "tools" / "perf_gate.py"
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from compare import SAME_BUILD  # noqa: E402

RECORD = {
    "record_version": 1,
    "provenance": {
        "git_sha": "abc", "source_digest": "def",
        "compiler": "GNU 12.2.0", "flags": "-O3 -g -DNDEBUG", "nproc": 4,
        "workload": "suite", "scale": 1, "seed": 0, "trace": 0,
        "decompress_latency": 1,
    },
    "run_seconds": 10.0,
    "problems": [],
    "metrics": {
        "wall_s": {"value": 1.0, "unit": "s"},
        "sim_cycles": {"value": 283832, "unit": "cycles"},
    },
}

# The record format this gate read before perfbench records: build
# metadata at the top level and one wall clock per suite.
OLD_RECORD = {
    "bench": "perf", "compiler": "GNU 12.2.0",
    "cxx_flags": "-O3 -g -DNDEBUG", "simd_isa": "sse2",
    "suites": [{"label": "suite serial", "resolved_threads": 1,
                "total_cycles": 283832, "wall_seconds": 2.7}],
}


def record(wall=1.0, cycles=283832, **provenance):
    rec = copy.deepcopy(RECORD)
    rec["metrics"]["wall_s"]["value"] = wall
    rec["metrics"]["sim_cycles"]["value"] = cycles
    for key, value in provenance.items():
        if key == "record_version":
            rec[key] = value
        else:
            rec["provenance"][key] = value
    return rec


class PerfGate(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, content):
        path = self.dir / name
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
        return str(path)

    def gate(self, base, cur, *extra):
        """(exit code, stdout) of the gate on two paths."""
        res = subprocess.run([sys.executable, str(GATE), base, cur, *extra],
                             capture_output=True, text=True)
        self.assertEqual(res.stderr, "")
        self.assertEqual(res.stdout.count("\n"), 1, res.stdout)
        return res.returncode, res.stdout

    def compare(self, base_rec, cur_rec, *extra):
        return self.gate(self.write("base.json", base_rec),
                         self.write("cur.json", cur_rec), *extra)

    def test_within_bound_passes(self):
        for wall in (0.5, 1.0, 1.09):
            code, out = self.compare(record(), record(wall=wall))
            self.assertEqual(code, 0, out)
            self.assertIn("perf gate: OK", out)

    def test_regression_fails(self):
        code, out = self.compare(record(), record(wall=1.2))
        self.assertEqual(code, 1, out)
        self.assertIn("perf gate: FAIL", out)

    def test_max_regress_sets_the_bound(self):
        code, out = self.compare(record(), record(wall=1.2),
                                 "--max-regress=0.25")
        self.assertEqual(code, 0, out)
        code, out = self.compare(record(), record(wall=1.04),
                                 "--max-regress=0.02")
        self.assertEqual(code, 1, out)

    def test_every_provenance_key_skips(self):
        for key in SAME_BUILD + ("seed",):
            with self.subTest(key=key):
                # The 1.5x wall clock would fail if compared.
                code, out = self.compare(record(),
                                         record(wall=1.5, **{key: "other"}))
                self.assertEqual(code, 0, out)
                self.assertIn(f"SKIP — {key} differs", out)

    def test_non_build_provenance_is_compared(self):
        code, out = self.compare(record(),
                                 record(wall=1.5, git_sha="x",
                                        source_digest="y"))
        self.assertEqual(code, 1, out)

    def test_changed_sim_cycles_skips(self):
        code, out = self.compare(record(), record(wall=1.5, cycles=283833))
        self.assertEqual(code, 0, out)
        self.assertIn("SKIP — simulated work changed", out)

    def test_missing_file_is_no_baseline(self):
        cur = self.write("cur.json", record())
        code, out = self.gate(str(self.dir / "absent.json"), cur)
        self.assertEqual(code, 2, out)
        self.assertIn("NO BASELINE — cannot read baseline", out)
        code, out = self.gate(cur, str(self.dir / "absent.json"))
        self.assertEqual(code, 2, out)

    def test_corrupt_file_is_no_baseline(self):
        torn = json.dumps(record())[:40]
        for content in (torn, "", "\x00\x01"):
            code, out = self.compare(content, record())
            self.assertEqual(code, 2, out)
            self.assertIn("is not valid JSON", out)

    def test_foreign_json_is_no_baseline(self):
        broken = record()
        del broken["metrics"]["wall_s"]
        for content in (OLD_RECORD, [], {}, broken):
            code, out = self.compare(content, record())
            self.assertEqual(code, 2, out)
            self.assertIn("is not a perfbench record", out)


if __name__ == "__main__":
    unittest.main()

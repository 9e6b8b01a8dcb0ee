#!/usr/bin/env python3
"""Unit tests for tools/bench_regress.py, on temporary directories.

Run directly (`python3 tools/bench_regress_test.py`) or through ctest
(`bench_regress_test`, label `fast`). Stdlib only.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

import bench_regress  # noqa: E402


def gauge(name, value):
    return {"name": name, "value": value, "unit": "count"}


def timing(name, ns_per_op):
    return {"name": name, "iters": 1, "ns_per_op": ns_per_op,
            "mb_per_s": 0.0}


class CompareFileTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, path, records):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records), encoding="utf-8")
        return path

    def compare(self, baseline, current):
        base = self.write(self.root / "base" / "BENCH_x.json", baseline)
        cur = self.write(self.root / "cur" / "BENCH_x.json", current)
        return bench_regress.compare_file(cur, base, timing_threshold=4.0,
                                          gauge_threshold=1.5)

    def test_zero_counter_baseline_must_stay_zero(self):
        errors = self.compare([gauge("machines_built", 0)],
                              [gauge("machines_built", 1)])
        self.assertEqual(len(errors), 1)
        self.assertIn("machines_built", errors[0])
        self.assertEqual(self.compare([gauge("machines_built", 0)],
                                      [gauge("machines_built", 0)]), [])

    def test_counter_growth_past_gauge_threshold_fails(self):
        self.assertEqual(len(self.compare([gauge("records_read", 100)],
                                          [gauge("records_read", 151)])), 1)
        self.assertEqual(self.compare([gauge("records_read", 100)],
                                      [gauge("records_read", 150)]), [])
        self.assertEqual(self.compare([gauge("records_read", 100)],
                                      [gauge("records_read", 10)]), [])

    def test_rss_gauges_use_the_timing_threshold(self):
        self.assertEqual(self.compare([gauge("peak_rss", 100)],
                                      [gauge("peak_rss", 300)]), [])
        self.assertEqual(len(self.compare([gauge("peak_rss", 100)],
                                          [gauge("peak_rss", 401)])), 1)

    def test_speedup_regresses_by_shrinking(self):
        self.assertEqual(len(self.compare([gauge("crc_speedup", 8.0)],
                                          [gauge("crc_speedup", 1.9)])), 1)
        self.assertEqual(self.compare([gauge("crc_speedup", 8.0)],
                                      [gauge("crc_speedup", 2.1)]), [])
        self.assertEqual(self.compare([gauge("crc_speedup", 8.0)],
                                      [gauge("crc_speedup", 80.0)]), [])

    def test_timing_growth_past_timing_threshold_fails(self):
        self.assertEqual(len(self.compare([timing("restore", 100.0)],
                                          [timing("restore", 401.0)])), 1)
        self.assertEqual(self.compare([timing("restore", 100.0)],
                                      [timing("restore", 399.0)]), [])

    def test_dropped_and_new_records_do_not_fail(self):
        errors = self.compare(
            [gauge("kept", 1), gauge("dropped", 0), timing("gone", 5.0)],
            [gauge("kept", 1), gauge("new_counter", 7)])
        self.assertEqual(errors, [])

    def test_main_exit_code_follows_the_comparison(self):
        history = self.root / "history"
        self.write(history / "2000-01-01-old" / "BENCH_x.json",
                   [gauge("machines_built", 5)])
        self.write(history / "2000-01-02-new" / "BENCH_x.json",
                   [gauge("machines_built", 0)])
        script = str(TOOLS / "bench_regress.py")

        def run(value):
            results = self.root / f"results-{value}"
            self.write(results / "BENCH_x.json",
                       [gauge("machines_built", value)])
            return subprocess.run(
                [sys.executable, script, "--results", str(results),
                 "--history", str(history)],
                capture_output=True, text=True).returncode

        # The newest entry (baseline 0) is the one compared against.
        self.assertEqual(run(0), 0)
        self.assertEqual(run(1), 1)


if __name__ == "__main__":
    unittest.main()

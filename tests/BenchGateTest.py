#!/usr/bin/env python3
"""The bench gate evaluator of tools/dyndist-bench-report, on synthetic rows.

Loads the tool by path (it has no .py suffix) and checks that each gate
kind passes at its bound and fails just past it, that a missing gated row
fails, that /real_time-suffixed names still match, and that every gate in
bench/gates.json has a positive bound and names rows its section's
binaries and filter produce.

    python3 tests/BenchGateTest.py
"""

import importlib.machinery
import importlib.util
import os
import re
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TOOL = os.path.join(ROOT, "tools", "dyndist-bench-report")

_loader = importlib.machinery.SourceFileLoader("bench_report", TOOL)
_spec = importlib.util.spec_from_loader("bench_report", _loader)
report = importlib.util.module_from_spec(_spec)
_loader.exec_module(report)


def section(*gates):
    return {"name": "s", "rate": "rate", "gates": list(gates)}


def verdicts(sec, rows):
    return [ok for ok, _ in report.evaluate(sec, rows)]


class GateKinds(unittest.TestCase):
    def test_min_passes_at_bound_and_fails_below(self):
        sec = section({"row": "BM_A", "min": 100.0})
        self.assertEqual(verdicts(sec, [{"name": "BM_A", "rate": 100.0}]), [True])
        self.assertEqual(verdicts(sec, [{"name": "BM_A", "rate": 99.99}]), [False])

    def test_max_field_passes_at_bound_and_fails_above(self):
        sec = section({"row": "BM_A", "field": "peak_rss_mb", "max": 1024})
        row = {"name": "BM_A", "rate": 1.0, "peak_rss_mb": 1024.0}
        self.assertEqual(verdicts(sec, [row]), [True])
        row["peak_rss_mb"] = 1024.01
        self.assertEqual(verdicts(sec, [row]), [False])

    def test_ratio_passes_at_bound_and_fails_below(self):
        sec = section({"ratio": ["BM_A", "BM_B"], "min": 3.0})
        rows = [{"name": "BM_A", "rate": 300.0}, {"name": "BM_B", "rate": 100.0}]
        self.assertEqual(verdicts(sec, rows), [True])
        rows[0]["rate"] = 299.9
        self.assertEqual(verdicts(sec, rows), [False])

    def test_missing_gated_row_fails(self):
        rows = [{"name": "BM_Other", "rate": 1e9, "peak_rss_mb": 1.0}]
        for gate in ({"row": "BM_A", "min": 1.0},
                     {"row": "BM_A", "field": "peak_rss_mb", "max": 1024},
                     {"ratio": ["BM_A", "BM_Other"], "min": 1.0},
                     {"ratio": ["BM_Other", "BM_A"], "min": 1.0}):
            self.assertEqual(verdicts(section(gate), rows), [False], gate)

    def test_row_without_the_rate_fails(self):
        sec = section({"row": "BM_A", "min": 1.0})
        self.assertEqual(verdicts(sec, [{"name": "BM_A"}]), [False])

    def test_real_time_suffix_matches(self):
        sec = section({"row": "BM_A/shards:1", "min": 5.0},
                      {"ratio": ["BM_B/reuse:1", "BM_B/reuse:0/real_time"], "min": 2.0})
        rows = [{"name": "BM_A/shards:1/real_time", "rate": 5.0},
                {"name": "BM_B/reuse:1/real_time", "rate": 4.0},
                {"name": "BM_B/reuse:0", "rate": 2.0}]
        self.assertEqual(verdicts(sec, rows), [True, True])

    def test_wall_clock_counter_overrides_items_per_second(self):
        row = report.trim_row({"name": "BM_A", "iterations": 1,
                               "items_per_second": 9.0,
                               "events_per_second_wall": 3.0,
                               "peak_rss_mb": 7.0, "family_index": 0}, "rate")
        self.assertEqual(row, {"name": "BM_A", "iterations": 1, "rate": 3.0,
                               "peak_rss_mb": 7.0})


class Manifest(unittest.TestCase):
    def test_every_gate_is_well_formed(self):
        sections = report.load_manifest()
        names = [s["name"] for s in sections]
        self.assertEqual(len(names), len(set(names)))
        gates = 0
        for sec in sections:
            for key in ("binaries", "filter", "rate"):
                self.assertTrue(sec.get(key), (sec["name"], key))
            for binary in sec["binaries"]:
                self.assertTrue(os.path.exists(
                    os.path.join(ROOT, "bench", binary + ".cpp")), binary)
            for gate in sec.get("gates", []):
                gates += 1
                bound = gate.get("min", gate.get("max"))
                self.assertIsInstance(bound, (int, float), gate)
                self.assertGreater(bound, 0, gate)
                self.assertNotEqual("min" in gate, "max" in gate, gate)
                self.assertNotEqual("row" in gate, "ratio" in gate, gate)
                self.assertTrue(gate.get("why"), gate)
                rows = gate["ratio"] if "ratio" in gate else [gate["row"]]
                if "ratio" in gate:
                    self.assertEqual(len(rows), 2, gate)
                for row in rows:  # The section's filter must select the row.
                    self.assertTrue(re.search(sec["filter"], row), (sec["name"], row))
                if "max" in gate:
                    self.assertIn("field", gate)
        self.assertEqual(gates, 11)


if __name__ == "__main__":
    unittest.main()

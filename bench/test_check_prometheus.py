#!/usr/bin/env python3
"""Unit tests for bench/check_prometheus.py on inline fixture files.
Registered with ctest as bench_check_prometheus_unit."""

import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(BENCH_DIR, "check_prometheus.py")

VALID = """\
# HELP rq_flight_recorded_total total queries recorded
# TYPE rq_flight_recorded_total counter
rq_flight_recorded_total 3
# HELP rq_query_info query label installed by the CLI
# TYPE rq_query_info gauge
rq_query_info{query="2rpq (a\\\\-)* <= b\\"quoted\\""} 1
# TYPE rq_fold_states counter
rq_fold_states 42
# TYPE rq_fold_peak_states gauge
rq_fold_peak_states 12
# TYPE rq_fold_states_dist histogram
rq_fold_states_dist_bucket{le="15"} 1
rq_fold_states_dist_bucket{le="47"} 3
rq_fold_states_dist_bucket{le="+Inf"} 4
rq_fold_states_dist_sum 120
rq_fold_states_dist_count 4
"""


class CheckPrometheusTest(unittest.TestCase):
    def run_checker(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "metrics.prom")
            with open(path, "w") as f:
                f.write(text)
            return subprocess.run([sys.executable, CHECKER, path],
                                  capture_output=True, text=True)

    def test_valid_file_passes(self):
        proc = self.run_checker(VALID)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_sample_without_type_fails(self):
        proc = self.run_checker("rq_orphan_total 3\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no preceding # TYPE", proc.stderr)

    def test_family_declared_twice_fails(self):
        # A counter and a gauge sharing one name would render two blocks
        # for one family; the second TYPE must not silently win.
        text = VALID + "# TYPE rq_fold_states gauge\nrq_fold_states 7\n"
        proc = self.run_checker(text)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("declared twice", proc.stderr)

    def test_missing_rq_namespace_fails(self):
        proc = self.run_checker(
            "# TYPE other_total counter\nother_total 1\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing rq_ namespace", proc.stderr)

    def test_non_cumulative_histogram_fails(self):
        bad = VALID.replace('rq_fold_states_dist_bucket{le="47"} 3',
                            'rq_fold_states_dist_bucket{le="47"} 0')
        proc = self.run_checker(bad)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("not cumulative", proc.stderr)

    def test_count_bucket_mismatch_fails(self):
        bad = VALID.replace("rq_fold_states_dist_count 4",
                            "rq_fold_states_dist_count 9")
        proc = self.run_checker(bad)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("_count", proc.stderr)

    def test_missing_inf_bucket_fails(self):
        bad = VALID.replace('rq_fold_states_dist_bucket{le="+Inf"} 4\n', "")
        proc = self.run_checker(bad)
        self.assertEqual(proc.returncode, 1)
        self.assertIn('expected le="+Inf"', proc.stderr)

    def test_bare_inf_value_fails(self):
        proc = self.run_checker(
            "# TYPE rq_rate counter\nrq_rate inf\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("non-finite", proc.stderr)

    def test_empty_export_fails(self):
        proc = self.run_checker("")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no counter samples", proc.stderr)

    def test_escaped_label_values_pass(self):
        # Backslashes and escaped quotes (regex query text) must parse;
        # commas and braces inside a quoted value are legal too.
        text = VALID + (
            '# TYPE rq_info gauge\n'
            'rq_info{query="a\\\\nb, {c}\\"d\\""} 1\n')
        proc = self.run_checker(text)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_unescaped_quote_in_label_fails(self):
        text = VALID + (
            '# TYPE rq_info gauge\n'
            'rq_info{query="raw"quote"} 1\n')
        proc = self.run_checker(text)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unparseable", proc.stderr)

    def test_illegal_escape_in_label_fails(self):
        text = VALID + (
            '# TYPE rq_info gauge\n'
            'rq_info{query="bad\\q"} 1\n')
        proc = self.run_checker(text)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("illegal escape", proc.stderr)


if __name__ == "__main__":
    unittest.main()

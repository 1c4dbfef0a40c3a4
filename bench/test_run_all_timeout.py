#!/usr/bin/env python3
"""Unit tests for bench/run_all.sh — the --timeout guard and what a
--smoke run records — driven by fake bench_* binaries (no real
benchmarks run). Registered with ctest as bench_run_all_timeout_unit;
also runnable directly:

    python3 bench/test_run_all_timeout.py
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_ALL = os.path.join(BENCH_DIR, "run_all.sh")

# A fake harness binary: answers --json <path> with a minimal but valid
# "rq-bench/1" report whose counters satisfy the suite's subsystem check.
OK_REPORT = {
    "schema": "rq-bench/1",
    "binary": "bench_ok",
    "smoke": False,
    "cache": False,
    "benchmarks": [
        {"name": "W/jobs:1", "iterations": 1, "real_time_ns": 100.0,
         "cpu_time_ns": 100.0, "counters": {}}
    ],
    "obs": {"counters": [
        {"name": "containment.checks", "value": 1},
        {"name": "fold.folds", "value": 1},
        {"name": "complement.builds", "value": 1},
        {"name": "datalog.rounds", "value": 1},
    ]},
}

OK_SCRIPT = """#!/usr/bin/env bash
# Fake bench binary: emit a fixed report at the path following --json and
# a one-counter exposition at the path following --prometheus.
json=""
prom=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --json) json="$2"; shift 2 ;;
    --prometheus) prom="$2"; shift 2 ;;
    *) shift ;;
  esac
done
if [[ -n "$prom" ]]; then
  printf '# TYPE rq_containment_checks counter\\nrq_containment_checks 1\\n' \\
    > "$prom"
fi
cat > "$json" <<'EOF'
%s
EOF
"""

# A jobs sweep as bench_graph_eval reports it: the rows a non-smoke run
# turns into the graph_eval_speedup headline.
GRAPH_EVAL_REPORT = dict(
    OK_REPORT, binary="bench_graph_eval", smoke=True,
    benchmarks=[
        {"name": "W/jobs:" + jobs, "iterations": 1, "real_time_ns": 100.0,
         "cpu_time_ns": 100.0, "counters": {}}
        for jobs in ("1", "8")
    ])

HEADLINE_KEYS = ("batch_cache_speedup", "graph_eval_speedup",
                 "server_throughput", "mutation_throughput",
                 "baseline_comparison")

HANG_SCRIPT = """#!/usr/bin/env bash
# Fake hung bench binary: never returns on its own. exec so the sleep IS
# the process timeout kills — no orphan holding the output pipe open.
exec sleep 600
"""


def write_executable(path, text):
    with open(path, "w") as f:
        f.write(text)
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR | stat.S_IXGRP)


def run(build_dir, *flags):
    out = os.path.join(build_dir, "BENCH_results.json")
    proc = subprocess.run(
        [RUN_ALL, "--build-dir", build_dir, "--out", out, *flags],
        capture_output=True, text=True)
    return proc, out


class RunAllTimeoutTest(unittest.TestCase):
    def test_hung_binary_fails_the_run_with_timeout_marker(self):
        with tempfile.TemporaryDirectory() as build_dir:
            write_executable(os.path.join(build_dir, "bench_hang"),
                             HANG_SCRIPT)
            proc, _ = run(build_dir, "--timeout", "1")
            self.assertNotEqual(proc.returncode, 0)
            self.assertIn("TIMEOUT: bench_hang", proc.stderr)

    def test_fast_binary_passes_under_timeout(self):
        with tempfile.TemporaryDirectory() as build_dir:
            write_executable(
                os.path.join(build_dir, "bench_ok"),
                OK_SCRIPT % json.dumps(OK_REPORT, indent=2))
            proc, out = run(build_dir, "--timeout", "60")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertNotIn("TIMEOUT", proc.stderr)
            with open(out) as f:
                suite = json.load(f)
            self.assertEqual(suite["schema"], "rq-bench-suite/2")
            self.assertEqual(len(suite["binaries"]), 1)

    def test_no_timeout_flag_keeps_legacy_behavior(self):
        with tempfile.TemporaryDirectory() as build_dir:
            write_executable(
                os.path.join(build_dir, "bench_ok"),
                OK_SCRIPT % json.dumps(OK_REPORT, indent=2))
            proc, _ = run(build_dir)
            self.assertEqual(proc.returncode, 0, proc.stderr)


class RunAllSmokeTest(unittest.TestCase):
    def test_smoke_runs_record_no_headline_and_no_baseline(self):
        with tempfile.TemporaryDirectory() as build_dir:
            write_executable(
                os.path.join(build_dir, "bench_graph_eval"),
                OK_SCRIPT % json.dumps(GRAPH_EVAL_REPORT, indent=2))
            for attempt in (1, 2):
                proc, out = run(build_dir, "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                with open(out) as f:
                    suite = json.load(f)
                self.assertTrue(suite["smoke"])
                for key in HEADLINE_KEYS:
                    self.assertNotIn(key, suite, f"smoke run {attempt}")
                self.assertFalse(os.path.exists(
                    os.path.join(build_dir, "BENCH_baseline.json")))


if __name__ == "__main__":
    sys.exit(unittest.main())

#!/usr/bin/env python3
"""The rqserved benchmark (see rqbench/README.md).

Usage, from the repository root:

    python3 rqbench/run.py --workload eval_cold|analyze|mixed_rw \
        --seed N --seconds S --trace 0|1
    python3 rqbench/run.py --selftest

Builds rqserved and the rqbench load generator from source in one
optimized CMake build under .bench_build/, records host and build facts,
runs one measurement (a series of cycles, each on a fresh rqserved) and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1 (names and units as in BENCHMARK.json).
Exits non-zero without a result when the sources are missing, the build
fails or is not optimized, or a run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = "rqbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"rqbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(root, base, "rqbench")


def build(root, targets):
    """Configures once, then builds `targets`; compiler output goes to
    stderr so stdout carries only results."""
    out = build_dir(root)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, BENCH_DIR), "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        fail("build failed")
    return out


def cache_value(out, key):
    """The value of `key` (without its :TYPE) in the build's CMakeCache."""
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            name, _, value = line.partition("=")
            if name.split(":")[0] == key:
                return value.strip()
    return ""


def compiler_version(path):
    """The first line of `path --version`, e.g. "c++ (Debian 12.2.0-14) 12.2.0"."""
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else path
    except OSError:
        return path


def source_id(root):
    """The commit when the checkout is a git work tree, else a digest of
    the sources that go into the build."""
    try:
        commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", BENCH_DIR):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def run_binary(cmd):
    """Runs rqbench in its own process group so a timeout also stops the
    rqserved it launched; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["eval_cold", "analyze",
                                               "mixed_rw"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", os.path.join("examples",
                                                         "rqserved.cpp")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"no {needed} here: run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    if args.selftest:
        out = build(root, ["rqbench_tests"])
        sys.exit(subprocess.call([os.path.join(out, "rqbench_tests")]))
    if args.workload is None:
        fail("--workload is required")

    out = build(root, ["rqbench"])
    build_type = cache_value(out, "CMAKE_BUILD_TYPE")
    if build_type not in ("Release", "RelWithDebInfo"):
        fail(f"refusing to measure a '{build_type}' build")
    for option in ("RQ_SANITIZE", "RQ_TSAN"):
        if cache_value(out, option) not in ("", "OFF"):
            fail(f"refusing to measure a build with {option}")
    print("host " + json.dumps({
        "nproc": os.cpu_count(),
        "compiler": compiler_version(cache_value(out, "CMAKE_CXX_COMPILER")),
        "build_type": build_type,
        "source": source_id(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }), flush=True)

    work = os.path.join(os.path.dirname(out), "work")
    os.makedirs(work, exist_ok=True)
    code, lines = run_binary([
        os.path.join(out, "rqbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rqserved", os.path.join(out, "repo", "examples", "rqserved"),
        "--work-dir", work])
    if code != 0 or not lines:
        fail(f"rqbench exited with {code}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()

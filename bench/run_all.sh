#!/usr/bin/env bash
# Runs every bench_* binary through the shared harness and aggregates the
# per-binary "rq-bench/1" reports into one BENCH_results.json
# (schema "rq-bench-suite/2": adds run wall-clock start/finish and host
# provenance — nproc, kernel, compiler — to the /1 layout; compare.py
# accepts both). Each binary entry gains a "peak_bytes" summary
# ({tracked, rss}: the memory accountant's high-water mark and the OS
# ru_maxrss view — docs/OBSERVABILITY.md "Memory accounting").
#
# Usage: bench/run_all.sh [--smoke] [--trace] [--cache] [--jobs N]
#                         [--timeout SECS] [--baseline FILE]
#                         [--build-dir DIR] [--out FILE]
#   --smoke       abbreviated pass (~1 ms per benchmark) — CI smoke target.
#                 Each binary additionally writes its registry in
#                 Prometheus text format; every file is validated by
#                 bench/check_prometheus.py and the last one is kept next
#                 to --out as <out-stem>.prom.
#                 A smoke run records no headline and, without an explicit
#                 --baseline, no baseline comparison: ~1 ms timings are
#                 too short to compare.
#   --trace       enable aggregate span tracing in each binary
#   --cache       enable the automata cache in every binary; the suite
#                 report then records the aggregate cache hit rate, and the
#                 run fails if the cache saw no traffic at all
#   --jobs N      process-default worker count (common/parallel.h)
#   --timeout S   hard per-binary wall-clock cap: a binary still running
#                 after S seconds is killed (SIGTERM, then SIGKILL after
#                 10 s) and the run fails with "TIMEOUT: <name>". Guards
#                 the suite against a hung benchmark; complements the
#                 harness's cooperative --timeout-ms flag
#   --baseline F  compare this run against a prior suite file F via
#                 bench/compare.py: the deltas are recorded under
#                 "baseline_comparison" in the output, and a >10% geomean
#                 regression in any binary fails the run
#   --build-dir   directory holding the bench binaries
#                 (default: <repo>/build/bench)
#   --out         aggregated output path (default: <repo>/BENCH_results.json)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build/bench"
out="${repo_root}/BENCH_results.json"
extra_flags=()
smoke=false
cache=false
baseline=""
timeout_s=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=true; extra_flags+=(--smoke); shift ;;
    --trace) extra_flags+=(--trace); shift ;;
    --cache) cache=true; extra_flags+=(--cache); shift ;;
    --jobs) extra_flags+=(--jobs "$2"); shift 2 ;;
    --timeout) timeout_s="$2"; shift 2 ;;
    --baseline) baseline="$2"; shift 2 ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

binaries=("${build_dir}"/bench_*)
found=()
for b in "${binaries[@]}"; do
  [[ -x "$b" && ! "$b" == *.json ]] && found+=("$b")
done
if [[ ${#found[@]} -eq 0 ]]; then
  echo "no bench_* binaries in ${build_dir} — build the project first" >&2
  exit 1
fi

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

# Run provenance for the suite report: wall-clock window and host identity,
# so a results file is interpretable long after the run (and across hosts).
started_iso="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
started_epoch="$(date +%s)"
host_nproc="$(nproc 2>/dev/null || echo 1)"
host_uname="$(uname -srm 2>/dev/null || echo unknown)"
host_compiler="$("${CXX:-c++}" --version 2>/dev/null | head -1 || true)"

reports=()
proms=()
failed=0
for bin in "${found[@]}"; do
  name="$(basename "$bin")"
  report="${tmp_dir}/${name}.json"
  per_bin_flags=()
  if [[ "$smoke" == true ]]; then
    per_bin_flags+=(--prometheus "${tmp_dir}/${name}.prom")
  fi
  runner=()
  if [[ -n "$timeout_s" ]]; then
    runner=(timeout --foreground --kill-after=10 "$timeout_s")
  fi
  echo "== ${name}" >&2
  if "${runner[@]}" "$bin" "${extra_flags[@]}" "${per_bin_flags[@]}" \
       --json "$report" >&2
  then
    reports+=("$report")
    [[ "$smoke" == true ]] && proms+=("${tmp_dir}/${name}.prom")
  else
    rc=$?
    if [[ -n "$timeout_s" && ( $rc -eq 124 || $rc -eq 137 ) ]]; then
      echo "TIMEOUT: ${name} (exceeded ${timeout_s}s)" >&2
    else
      echo "FAILED: ${name}" >&2
    fi
    failed=1
  fi
done

# Every smoke run's Prometheus exposition must parse; the last binary's
# file is kept as the suite artifact.
if [[ ${#proms[@]} -gt 0 ]]; then
  if ! python3 "${repo_root}/bench/check_prometheus.py" "${proms[@]}" >&2
  then
    echo "FAILED: Prometheus exposition validation" >&2
    failed=1
  fi
  cp "${proms[-1]}" "${out%.json}.prom"
  echo "wrote ${out%.json}.prom" >&2
fi

finished_iso="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
finished_epoch="$(date +%s)"

RQ_BENCH_STARTED="$started_iso" RQ_BENCH_FINISHED="$finished_iso" \
RQ_BENCH_DURATION_S="$((finished_epoch - started_epoch))" \
RQ_BENCH_NPROC="$host_nproc" RQ_BENCH_UNAME="$host_uname" \
RQ_BENCH_COMPILER="$host_compiler" \
python3 - "$out" "$smoke" "$cache" "${reports[@]}" <<'PY'
import json, os, sys

out_path, smoke, cache = sys.argv[1], sys.argv[2] == "true", sys.argv[3] == "true"
suite = {"schema": "rq-bench-suite/2", "smoke": smoke, "cache": cache,
         "run": {
             "started": os.environ.get("RQ_BENCH_STARTED", ""),
             "finished": os.environ.get("RQ_BENCH_FINISHED", ""),
             "duration_s": int(os.environ.get("RQ_BENCH_DURATION_S", "0")),
         },
         "host": {
             "nproc": int(os.environ.get("RQ_BENCH_NPROC", "0")),
             "uname": os.environ.get("RQ_BENCH_UNAME", ""),
             "compiler": os.environ.get("RQ_BENCH_COMPILER", ""),
         },
         "binaries": []}
for path in sys.argv[4:]:
    with open(path) as f:
        report = json.load(f)
    assert report.get("schema") == "rq-bench/1", path
    # Per-binary memory summary (docs/OBSERVABILITY.md "Memory
    # accounting"): the accountant's high-water mark across the whole run
    # plus the OS view sampled at export time, lifted out of the gauge
    # array so results are greppable without walking the obs snapshot.
    gauges = {g["name"]: g
              for g in report.get("obs", {}).get("gauges", [])}
    tracked = gauges.get("mem.tracked_bytes", {})
    rss = gauges.get("mem.peak_rss_bytes", {})
    report["peak_bytes"] = {
        "tracked": tracked.get("peak", 0),
        "rss": rss.get("value", 0),
    }
    suite["binaries"].append(report)

# Sanity: the suite must exercise the core subsystems' counters.
names = set()
totals = {}
for report in suite["binaries"]:
    for c in report.get("obs", {}).get("counters", []):
        if c["value"] > 0:
            names.add(c["name"])
        totals[c["name"]] = totals.get(c["name"], 0) + c["value"]
subsystems = {n.split(".")[0] for n in names}
required = {"containment", "fold", "complement", "datalog"}
missing = required - subsystems
if missing:
    sys.exit(f"suite missing counters from subsystems: {sorted(missing)}")

# Aggregate cache traffic across the suite. With --cache the cache must have
# seen traffic — a silent zero means the flag never reached the checkers.
hits = totals.get("cache.hits", 0)
misses = totals.get("cache.misses", 0)
lookups = hits + misses
suite["cache_stats"] = {
    "hits": hits,
    "misses": misses,
    "evictions": totals.get("cache.evictions", 0),
    "hit_rate": hits / lookups if lookups else None,
}
if cache and lookups == 0:
    sys.exit("--cache was on but cache.hits + cache.misses == 0: "
             "the cache never saw a lookup")

# The headlines below compare timings, so a smoke run records none.
timed = [] if smoke else suite["binaries"]

# Headline metric: geomean speedup of cached --jobs 4 over uncached serial
# across the bench_batch_containment workloads (cache:C/jobs:J arg names).
base_times, fast_times = {}, {}
for report in timed:
    if report.get("binary") != "bench_batch_containment":
        continue
    for b in report.get("benchmarks", []):
        name = b.get("name", "")
        if "error" in b:
            continue
        workload = name.split("/")[0]
        if "cache:0/jobs:1" in name:
            base_times[workload] = b["real_time_ns"]
        elif "cache:1/jobs:4" in name:
            fast_times[workload] = b["real_time_ns"]
common = sorted(set(base_times) & set(fast_times))
if common:
    import math
    ratios = [base_times[w] / fast_times[w] for w in common]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    suite["batch_cache_speedup"] = {
        "workloads": {w: base_times[w] / fast_times[w] for w in common},
        "geomean": geomean,
        "comparison": "uncached jobs=1 vs cached jobs=4 (real time)",
    }

# Second headline: geomean speedup of multi-source graph evaluation at
# jobs=8 over jobs=1 across the bench_graph_eval jobs-sweep workloads
# (benchmark names embed .../jobs:N). Tracks available cores: ~1.0 on a
# single-core host, rising with real parallel hardware.
eval_base, eval_fast = {}, {}
for report in timed:
    if report.get("binary") != "bench_graph_eval":
        continue
    for b in report.get("benchmarks", []):
        name = b.get("name", "")
        if "error" in b or "/jobs:" not in name:
            continue
        workload, _, jobs = name.rpartition("/jobs:")
        if jobs == "1":
            eval_base[workload] = b["real_time_ns"]
        elif jobs == "8":
            eval_fast[workload] = b["real_time_ns"]
common = sorted(set(eval_base) & set(eval_fast))
if common:
    import math
    ratios = [eval_base[w] / eval_fast[w] for w in common]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    suite["graph_eval_speedup"] = {
        "workloads": {w: eval_base[w] / eval_fast[w] for w in common},
        "geomean": geomean,
        "comparison": "multi-source eval jobs=1 vs jobs=8 (real time)",
    }

# Third headline: query-service throughput/latency/shed-rate from
# bench_server_throughput's closed-loop configs (docs/SERVING.md). Keyed
# by benchmark name so both the client sweep and the saturated shedding
# config land in the suite summary.
server_configs = {}
for report in timed:
    if report.get("binary") != "bench_server_throughput":
        continue
    for b in report.get("benchmarks", []):
        counters = b.get("counters", {})
        if "error" in b or "requests_per_s" not in counters:
            continue
        server_configs[b["name"]] = {
            "requests_per_s": counters["requests_per_s"],
            "p50_us": counters.get("p50_us"),
            "p99_us": counters.get("p99_us"),
            "shed_rate": counters.get("shed_rate"),
        }
if server_configs:
    suite["server_throughput"] = {
        "configs": server_configs,
        "comparison": "closed-loop rqserved clients sweep + saturated "
                      "shedding config (docs/SERVING.md)",
    }

# Fourth headline: live-mutation throughput from bench_graph_mutation's
# mixed read/write closed-loop configs (docs/SERVING.md "Updates"). Keyed
# by benchmark name so the writer sweep and the budget-capped fallback
# config both land in the suite summary.
mutation_configs = {}
for report in timed:
    if report.get("binary") != "bench_graph_mutation":
        continue
    for b in report.get("benchmarks", []):
        counters = b.get("counters", {})
        if "error" in b or "mutations_per_s" not in counters:
            continue
        mutation_configs[b["name"]] = {
            "mutations_per_s": counters["mutations_per_s"],
            "edges_per_s": counters.get("edges_per_s"),
            "reads_per_s": counters.get("reads_per_s"),
            "write_p99_us": counters.get("write_p99_us"),
        }
if mutation_configs:
    suite["mutation_throughput"] = {
        "configs": mutation_configs,
        "comparison": "closed-loop mixed update/eval writer sweep + "
                      "budget-capped fallback config (docs/SERVING.md "
                      "\"Updates\")",
    }

with open(out_path, "w") as f:
    json.dump(suite, f, indent=2)
    f.write("\n")
hit_rate = suite["cache_stats"]["hit_rate"]
print(f"wrote {out_path}: {len(suite['binaries'])} binaries, "
      f"{len(names)} active counters, subsystems={sorted(subsystems)}, "
      f"cache hit rate="
      f"{'n/a' if hit_rate is None else f'{hit_rate:.1%}'}")
PY

# Regression gating (bench/compare.py): only an explicit --baseline
# compares, and it gates the run.
if [[ -n "$baseline" ]]; then
  if [[ ! -f "$baseline" ]]; then
    echo "baseline file not found: ${baseline}" >&2
    exit 2
  fi
  echo "== comparing against baseline ${baseline}" >&2
  python3 "${repo_root}/bench/compare.py" "$baseline" "$out" \
    --record-into "$out" >&2 || failed=1
fi

exit "$failed"

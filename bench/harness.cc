// Shared main() for every bench_* binary: Google Benchmark plus the librq
// observability layer (docs/OBSERVABILITY.md).
//
// Extra flags, handled before Google Benchmark sees the command line:
//   --json <path>   write a machine-readable report (schema "rq-bench/1"):
//                   per-benchmark wall/cpu time and user counters, plus the
//                   full obs snapshot (subsystem counters, span stats)
//                   accumulated across the run.
//   --smoke         run each benchmark for ~1 ms instead of the default
//                   budget — a correctness/telemetry smoke pass, not a
//                   measurement. Recorded in the report as "smoke": true.
//   --trace         enable aggregate span tracing during the run (per-name
//                   count/total time/p50/p99; bounded memory even across
//                   millions of benchmark iterations).
//   --chrome-trace <path>
//                   enable FULL span tracing and write the spans as Chrome
//                   trace-event JSON (Perfetto / chrome://tracing) on exit.
//                   Records at most kMaxRecordedSpans rows (the overflow
//                   still aggregates; see obs.dropped_spans) — pair with
//                   --smoke to keep traces small.
//   --cache         enable the content-addressed automata cache
//                   (docs/CACHING.md) for the whole run. Recorded in the
//                   report as "cache": true; cache.* counters land in the
//                   obs snapshot. Benchmarks that manage the cache flag
//                   themselves (bench_batch_containment) override it.
//   --jobs N        set the process-default worker count
//                   (common/parallel.h): batched containment checks and
//                   multi-source graph evaluation both read it.
//   --timeout-ms N  install an execution deadline (common/deadline.h) over
//                   the whole benchmark run; library loops bail out with
//                   DeadlineExceeded instead of hanging the harness. The
//                   exit code stays 0 — pair with run_all.sh --timeout for
//                   a hard process kill.
//   --memory-budget-mb N
//                   install a byte budget (common/mem.h) over the whole
//                   run; library loops bail out with ResourceExhausted
//                   through the same polling sites as --timeout-ms, and
//                   mem.budget_exceeded lands in the obs snapshot. The
//                   run always executes under an ExecContext, so the mem.*
//                   gauges in the report carry per-subsystem peaks.
//   --prometheus <path>
//                   write the end-of-run registry state (every counter,
//                   gauge, and histogram) in Prometheus text exposition
//                   format to <path> (obs/prometheus.h).
//
// bench/run_all.sh drives every binary through this interface and merges
// the per-binary reports into BENCH_results.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cache/automata_cache.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "obs/chrome_trace.h"
#include "obs/counters.h"
#include "obs/export.h"
#include "obs/prometheus.h"
#include "obs/trace.h"

namespace {

// Console output stays the default human-readable report; this shim also
// captures every finished run for the JSON report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) captured_.push_back(run);
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Run>& captured() const { return captured_; }

 private:
  std::vector<Run> captured_;
};

std::string Basename(const char* path) {
  std::string s(path);
  size_t slash = s.find_last_of('/');
  return slash == std::string::npos ? s : s.substr(slash + 1);
}

rq::obs::JsonValue ReportJson(const std::string& binary, bool smoke,
                              bool cache,
                              const std::vector<CaptureReporter::Run>& runs) {
  using rq::obs::JsonValue;
  JsonValue root = JsonValue::Object();
  root.Set("schema", JsonValue::String("rq-bench/1"));
  root.Set("binary", JsonValue::String(binary));
  root.Set("smoke", JsonValue::Bool(smoke));
  root.Set("cache", JsonValue::Bool(cache));

  JsonValue benchmarks = JsonValue::Array();
  for (const auto& run : runs) {
    if (run.run_type != CaptureReporter::Run::RT_Iteration) continue;
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(run.benchmark_name()));
    if (run.error_occurred) {
      entry.Set("error", JsonValue::String(run.error_message));
      benchmarks.Append(std::move(entry));
      continue;
    }
    entry.Set("iterations",
              JsonValue::Number(static_cast<uint64_t>(run.iterations)));
    double iters = run.iterations > 0
                       ? static_cast<double>(run.iterations)
                       : 1.0;
    entry.Set("real_time_ns",
              JsonValue::Number(run.real_accumulated_time / iters * 1e9));
    entry.Set("cpu_time_ns",
              JsonValue::Number(run.cpu_accumulated_time / iters * 1e9));
    JsonValue counters = JsonValue::Object();
    for (const auto& [name, counter] : run.counters) {
      counters.Set(name, JsonValue::Number(static_cast<double>(counter)));
    }
    entry.Set("counters", std::move(counters));
    benchmarks.Append(std::move(entry));
  }
  root.Set("benchmarks", std::move(benchmarks));
  root.Set("obs", rq::obs::SnapshotJson());
  return root;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string chrome_trace_path;
  std::string prometheus_path;
  bool smoke = false;
  bool trace = false;
  bool cache = false;
  int64_t timeout_ms = 0;
  int64_t memory_budget_mb = 0;

  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  static std::string min_time_flag = "--benchmark_min_time=0.001";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      chrome_trace_path = argv[++i];
    } else if (std::strncmp(argv[i], "--chrome-trace=", 15) == 0) {
      chrome_trace_path = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--prometheus") == 0 && i + 1 < argc) {
      prometheus_path = argv[++i];
    } else if (std::strncmp(argv[i], "--prometheus=", 13) == 0) {
      prometheus_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      cache = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      rq::SetDefaultParallelJobs(
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10)));
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      rq::SetDefaultParallelJobs(
          static_cast<unsigned>(std::strtoul(argv[i] + 7, nullptr, 10)));
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      timeout_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--timeout-ms=", 13) == 0) {
      timeout_ms = std::strtoll(argv[i] + 13, nullptr, 10);
    } else if (std::strcmp(argv[i], "--memory-budget-mb") == 0 &&
               i + 1 < argc) {
      memory_budget_mb = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--memory-budget-mb=", 19) == 0) {
      memory_budget_mb = std::strtoll(argv[i] + 19, nullptr, 10);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (smoke) passthrough.push_back(min_time_flag.data());
  int passthrough_argc = static_cast<int>(passthrough.size());

  benchmark::Initialize(&passthrough_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(passthrough_argc,
                                             passthrough.data())) {
    return 1;
  }

  // Per-run deltas: the report should describe this invocation only.
  rq::obs::Registry::Global().ResetAll();
  // A Chrome trace needs full rows; --trace alone stays aggregate-only.
  rq::obs::SetTraceMode(!chrome_trace_path.empty()
                            ? rq::obs::TraceMode::kFull
                        : trace ? rq::obs::TraceMode::kAggregate
                                : rq::obs::TraceMode::kDisabled);
  if (cache) rq::cache::AutomataCache::Global().SetEnabled(true);

  CaptureReporter reporter;
  {
    // Always run under a context so the report's mem.* gauges carry
    // per-subsystem peaks for the whole run (budget 0 = unlimited).
    rq::ExecContext ctx(
        timeout_ms > 0 ? rq::Deadline::AfterMillis(timeout_ms)
                       : rq::Deadline::Infinite(),
        /*cancel=*/nullptr,
        memory_budget_mb > 0
            ? static_cast<uint64_t>(memory_budget_mb) * 1024 * 1024
            : 0);
    rq::ScopedExecContext scoped(&ctx);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();

  if (!json_path.empty()) {
    rq::obs::JsonValue report =
        ReportJson(Basename(argv[0]), smoke, cache, reporter.captured());
    rq::Status status = rq::obs::WriteTextFile(json_path, report.Dump(2));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!chrome_trace_path.empty()) {
    rq::Status status = rq::obs::WriteChromeTraceFile(chrome_trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!prometheus_path.empty()) {
    rq::Status status = rq::obs::WritePrometheusTextFile(prometheus_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

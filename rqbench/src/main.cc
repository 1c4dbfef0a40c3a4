// rqbench — the rqserved benchmark's load generator and traced replay.
//
//   rqbench --workload eval_cold|analyze|mixed_rw --seed N --seconds S
//           --trace 0|1 --rqserved <path> --work-dir <dir>
//
// Generates the workload from the seed, computes every expected answer,
// then runs rqserved --workers 2 on the generated graph and drives it
// (end-to-end metrics; --trace 0). With --trace 1 it also replays the
// stream in-process with spans around each layer's calls and reports the
// per-layer metrics. Prints one line per metric, then one JSON object as
// the last line. run.py builds this binary, refuses unoptimised and
// sanitizer builds, and is the entry point.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "drive.h"
#include "obs/json.h"
#include "replay.h"
#include "workload.h"

using namespace rqbench;  // entry point only

namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "rqbench: %s\n", message);
  return 2;
}

void PrintMetrics(const char* group, const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("%-10s %-34s %14.6f %-6s n=%llu\n", group, name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string rqserved;
  std::string work_dir;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--rqserved") {
      rqserved = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  std::optional<Workload> workload = ParseWorkload(workload_name);
  if (!workload.has_value()) return Usage("unknown --workload");
  if (seconds < 1 || (trace != 0 && trace != 1) || rqserved.empty() ||
      work_dir.empty()) {
    return Usage("need --seconds >= 1, --trace 0|1, --rqserved, --work-dir");
  }
  auto stream = Generate(*workload, seed, seconds);
  if (!stream.ok()) return Usage(stream.status().ToString().c_str());
  unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  if (rq::Status s = ComputeExpected(&*stream, threads); !s.ok()) {
    return Usage(s.ToString().c_str());
  }

  rq::obs::JsonValue facts = rq::obs::JsonValue::Object();
  facts.Set("workload", rq::obs::JsonValue::String(workload_name));
  facts.Set("seed", rq::obs::JsonValue::Number(seed));
  facts.Set("nproc", rq::obs::JsonValue::Number(static_cast<uint64_t>(
                         std::thread::hardware_concurrency())));
  facts.Set("graph_bytes", rq::obs::JsonValue::Number(static_cast<uint64_t>(
                               stream->graph_text.size())));
  facts.Set("reads", rq::obs::JsonValue::Number(static_cast<uint64_t>(
                         stream->read_order.size())));
  facts.Set("write_batches", rq::obs::JsonValue::Number(static_cast<uint64_t>(
                                 stream->writes.size())));

  DriveOptions options;
  options.rqserved = rqserved;
  options.work_dir = work_dir;
  // Room for cycles added after disturbed ones: no cycle is added once the
  // cycles have taken 1.35 times --seconds.
  options.budget_s = 1.35 * seconds;
  auto run = DriveServer(*stream, options);
  if (!run.ok()) return Usage(run.status().ToString().c_str());

  facts.Set("writer_max_late_ms",
            rq::obs::JsonValue::Number(run->writer_max_late_ms));
  facts.Set("writer_mean_late_ms",
            rq::obs::JsonValue::Number(run->writer_mean_late_ms));
  facts.Set("writer_behind", rq::obs::JsonValue::Bool(run->writer_behind));
  rq::obs::JsonValue steal = rq::obs::JsonValue::Array();
  rq::obs::JsonValue used = rq::obs::JsonValue::Array();
  size_t disturbed = 0;
  for (size_t k = 0; k < run->steal_pct.size(); ++k) {
    steal.Append(rq::obs::JsonValue::Number(run->steal_pct[k]));
    used.Append(rq::obs::JsonValue::Bool(run->used[k]));
    if (run->used[k] && run->steal_pct[k] > kCleanStealPct) ++disturbed;
  }
  facts.Set("cycles", rq::obs::JsonValue::Number(
                          static_cast<uint64_t>(run->steal_pct.size())));
  facts.Set("steal_pct", std::move(steal));
  facts.Set("cycle_used", std::move(used));
  std::printf("facts %s\n", facts.Dump().c_str());
  if (run->writer_behind) {
    std::printf("warning: the writer fell more than one interval (%.1f ms) "
                "behind schedule; write latency measures backlog\n",
                stream->write_interval_ms);
  }
  if (disturbed > 0) {
    std::printf("warning: %zu of the cycles used lost more than %.0f%% of "
                "the host's CPU to other guests\n",
                disturbed, kCleanStealPct);
  }
  for (const auto& [reason, n] : run->failure_reasons) {
    std::printf("failed %-30s %llu\n", reason.c_str(),
                static_cast<unsigned long long>(n));
  }
  PrintMetrics("end2end", run->end_to_end);

  Metrics reported = run->end_to_end;
  if (trace == 1) {
    ReplayOptions replay;
    replay.max_reads = *workload == Workload::kAnalyze ? 20000 : 600;
    replay.trace_file = work_dir + "/trace_" + workload_name + "_" +
                        std::to_string(seed) + ".jsonl";
    auto layers = TracedReplay(*stream, replay);
    if (!layers.ok()) return Usage(layers.status().ToString().c_str());
    reported = run->counters;
    for (const auto& [name, m] : *layers) reported[name] = m;
    PrintMetrics("layer", reported);
    std::printf("trace %s\n", replay.trace_file.c_str());
  }

  rq::obs::JsonValue metrics = rq::obs::JsonValue::Object();
  for (const auto& [name, m] : reported) {
    rq::obs::JsonValue entry = rq::obs::JsonValue::Object();
    entry.Set("value", rq::obs::JsonValue::Number(m.value));
    entry.Set("unit", rq::obs::JsonValue::String(m.unit));
    entry.Set("samples", rq::obs::JsonValue::Number(m.samples));
    metrics.Set(name, std::move(entry));
  }
  rq::obs::JsonValue result = rq::obs::JsonValue::Object();
  result.Set("correct", rq::obs::JsonValue::Bool(run->failed == 0));
  result.Set("attempted", rq::obs::JsonValue::Number(run->attempted));
  result.Set("failed", rq::obs::JsonValue::Number(run->failed));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

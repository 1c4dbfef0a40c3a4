// The untraced run: launches rqserved on the generated graph, drives it
// from this process over at most two connections, checks every answer and
// derives the end-to-end metrics. The run is kCycles cycles or more, each
// on a fresh server; /metrics is scraped once, at the end of the last, for
// the counter-based per-layer metrics.
#ifndef RQBENCH_DRIVE_H_
#define RQBENCH_DRIVE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "workload.h"

namespace rqbench {

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

// Other guests of a shared host take CPU time from this one (the steal
// column of /proc/stat), and the host is slower for all of its threads
// while they do: in one run whose cycles lost 8-15% to steal, mixed_rw read
// 420-970 reads/s per cycle, against 1550-1830 at under 1.5% minutes later.
// A cycle that lost at most kCleanStealPct is clean. The run adds cycles
// while it lacks the clean cycles its metrics are taken over, within a time
// budget, and takes each metric over the cycles that lost the least.
inline constexpr double kCleanStealPct = 2;
// Cycles per run at most, counting those added.
inline constexpr int kMaxCycles = 3 * kCycles;
// Writes, set-up and mixed_rw's reads are taken over the kCleanestUsed
// cycles that lost the least: writes and launches are the same in every
// cycle, and mixed_rw's reads are the most sensitive to steal (in runs
// whose cycles lost 3.6% at the median, mixed_rw read 23% fewer reads/s
// than the median of ten runs, eval_cold 6% fewer). Over ten seeds, taking
// mixed_rw's read metrics over the 12, 8, 6, 4 and 3 least-stolen cycles of
// the same runs spread throughput_rps by 0.16, 0.13, 0.12, 0.10 and 0.07
// (IQR over median) and p90_ms by 0.15, 0.13, 0.11, 0.07 and 0.06.
inline constexpr size_t kCleanestUsed = kCycles / 3;

struct DriveOptions {
  std::string rqserved;  // path of the rqserved binary
  std::string work_dir;  // graph file and server logs go here
  // No cycle is added once the cycles have taken this long.
  double budget_s = 0;
};

struct DriveResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failure_reasons;
  Metrics end_to_end;
  // Per-layer metrics read from the last cycle's /metrics scrape.
  Metrics counters;
  // Open-loop writer: how late the generator sent batches, and whether it
  // ever fell more than one interval behind (write latency then measures
  // backlog, not service time).
  double writer_max_late_ms = 0;
  double writer_mean_late_ms = 0;
  bool writer_behind = false;
  // Share of CPU time taken by other guests of the host during each cycle,
  // launches included, and whether the metrics were taken over it.
  std::vector<double> steal_pct;
  std::vector<bool> used;
};

rq::Result<DriveResult> DriveServer(const Stream& stream,
                                    const DriveOptions& options);

// Empty when `response` (a decoded response frame) is what `request` must
// get back; otherwise the failure reason. `last_epoch` carries the highest
// epoch seen on the connection (eval and update responses must never go
// backward); null skips that check.
std::string CheckResponse(const BenchRequest& request,
                          const rq::obs::JsonValue& response,
                          uint64_t* last_epoch);

}  // namespace rqbench

#endif  // RQBENCH_DRIVE_H_

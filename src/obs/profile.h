// Per-query profile record: one containment check or evaluation, rendered
// as an EXPLAIN ANALYZE-style report (text and JSON, schema
// "rq-profile/1"; see docs/OBSERVABILITY.md).
//
// Begin attaches the profile to the query's ExecContext
// (common/deadline.h). ParallelFor mirrors of that context and the
// contexts batch jobs build with it as parent carry the same pointer, so
// subsystems annotate the profile of the query they run for through
// CurrentProfile():
//  * pipeline entry points attach plan notes (dispatch method, pipeline
//    chosen);
//  * the batch containment engine (containment/batch.h) reports one row
//    per pool worker — jobs run and busy wall-time.
// Work under a context without a profile records nothing, whatever other
// threads are profiling.
//
// End reads the memory section from the attached context and takes one
// registry snapshot (obs/counters.h) plus the span stats, keeping their
// non-zero rows. The registry is process-wide, so those rows are the
// rq-obs/2 export of a process that ran this one query, as the CLIs do.
#ifndef RQ_OBS_PROFILE_H_
#define RQ_OBS_PROFILE_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/mem.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace rq {

class ExecContext;

namespace obs {

// One batch-pool worker's contribution (containment/batch.cc flushes one
// row per worker thread after the pool joins).
struct ProfileWorker {
  uint32_t worker = 0;
  uint64_t jobs = 0;
  uint64_t busy_ns = 0;
};

// Per-query memory attribution, read from the pot of the attached context
// at End. `present` is false when no context was attached; the memory
// section is then omitted from the report.
struct ProfileMemory {
  bool present = false;
  uint64_t peak_total_bytes = 0;
  uint64_t budget_bytes = 0;  // 0 = unlimited
  bool exceeded = false;
  std::array<uint64_t, kMemSubsystemCount> peak_subsystem_bytes{};
};

class QueryProfile {
 public:
  QueryProfile() = default;
  QueryProfile(const QueryProfile&) = delete;
  QueryProfile& operator=(const QueryProfile&) = delete;

  // Starts the wall clock and attaches this profile to `ctx`, the context
  // the query runs under (null: no notes, worker rows or memory section).
  // Attach before the context is shared with other threads. `tool`,
  // `query_class` and `query_text` describe the query for the report.
  void Begin(std::string tool, std::string query_class,
             std::string query_text, ExecContext* ctx = nullptr);
  // Stops the clock, reads the memory section, detaches from the context
  // and snapshots the registry and span stats.
  void End();

  // Subsystem annotations (thread-safe; callable between Begin and End).
  void AddNote(const std::string& key, std::string value);
  void RecordWorker(uint32_t worker, uint64_t jobs, uint64_t busy_ns);

  // Report accessors (valid after End). The metric lists hold the
  // registry's non-zero rows, name-sorted.
  uint64_t wall_ns() const { return wall_ns_; }
  const std::vector<CounterSample>& counters() const {
    return metrics_.counters;
  }
  const std::vector<HistogramSample>& histograms() const {
    return metrics_.histograms;
  }
  const std::vector<GaugeSample>& gauges() const { return metrics_.gauges; }
  const std::vector<SpanStats>& spans() const { return spans_; }
  const std::vector<ProfileWorker>& workers() const { return workers_; }
  std::map<std::string, std::string> notes() const;
  const ProfileMemory& memory() const { return memory_; }

  // Renders the report. Schema "rq-profile/1":
  //   { "schema": "rq-profile/1",
  //     "tool": S, "class": S, "query": S, "collected": B, "wall_ns": N,
  //     "counters":   [ {"name": S, "delta": N}, ... ],        // sorted
  //     "histograms": [ {"name": S, "count": N, "sum": N,
  //                      "p50": N, "p90": N, "p99": N, "max": N}, ... ],
  //     "gauges":     [ {"name": S, "begin": 0, "end": N,
  //                      "peak": N, "peak_raised": B}, ... ],
  //     "span_stats": [ {"name": S, "count": N, "total_ns": N}, ... ],
  //     "workers":    [ {"worker": N, "jobs": N, "busy_ns": N}, ... ],
  //     "memory":     { "peak_total_bytes": N, "budget_bytes": N,
  //                     "exceeded": B,
  //                     "peak_subsystem_bytes": { name: N, ... } },
  //     "notes":      { key: S, ... } }
  // "collected" is true once End has run. A gauge's "begin" is its level
  // before the query, 0 in a one-query process, and "peak_raised" is
  // peak > 0. "span_stats" is filled only when tracing was on; "memory"
  // appears only when a context was attached.
  JsonValue ToJson() const;
  std::string ToText() const;  // EXPLAIN ANALYZE-style, for --profile

 private:
  std::string tool_;
  std::string query_class_;
  std::string query_text_;
  ExecContext* ctx_ = nullptr;
  uint64_t begin_ns_ = 0;
  uint64_t wall_ns_ = 0;
  bool collected_ = false;

  MetricsSnapshot metrics_;
  std::vector<SpanStats> spans_;
  ProfileMemory memory_;

  // Annotations (guarded by mu_: workers write concurrently).
  mutable std::mutex mu_;
  std::vector<ProfileWorker> workers_;
  std::map<std::string, std::string> notes_;
};

// The profile attached to the calling thread's installed ExecContext, or
// null. Hook sites null-check it.
QueryProfile* CurrentProfile();

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_PROFILE_H_

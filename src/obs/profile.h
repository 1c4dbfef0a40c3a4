// Per-query profile record: one containment check or evaluation, rendered
// as an EXPLAIN ANALYZE-style report (text and JSON, schema
// "rq-profile/2"; see docs/OBSERVABILITY.md).
//
// Begin attaches the profile to the query's ExecContext
// (common/deadline.h). ParallelFor mirrors of that context carry the same
// pointer, so pipeline entry points attach their plan notes (dispatch
// method, pipeline chosen, eval route) to the profile of the query they
// run for through CurrentProfile(), on whichever thread they run. Work
// under a context without a profile records nothing, whatever other
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
  // the query runs under (null: no notes or memory section).
  // Attach before the context is shared with other threads. `tool`,
  // `query_class` and `query_text` describe the query for the report.
  void Begin(std::string tool, std::string query_class,
             std::string query_text, ExecContext* ctx = nullptr);
  // Stops the clock, reads the memory section, detaches from the context
  // and snapshots the registry and span stats.
  void End();

  // Subsystem annotation (thread-safe; callable between Begin and End).
  void AddNote(const std::string& key, std::string value);

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
  std::map<std::string, std::string> notes() const;
  const ProfileMemory& memory() const { return memory_; }

  // Renders the report. Schema "rq-profile/2":
  //   { "schema": "rq-profile/2",
  //     "tool": S, "class": S, "query": S, "collected": B, "wall_ns": N,
  //     "counters":   [ {"name": S, "delta": N}, ... ],        // sorted
  //     "histograms": [ {"name": S, "count": N, "sum": N,
  //                      "p50": N, "p90": N, "p99": N, "max": N}, ... ],
  //     "gauges":     [ {"name": S, "begin": 0, "end": N,
  //                      "peak": N, "peak_raised": B}, ... ],
  //     "span_stats": [ {"name": S, "count": N, "total_ns": N}, ... ],
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

  // Annotations (guarded by mu_: pool threads write concurrently).
  mutable std::mutex mu_;
  std::map<std::string, std::string> notes_;
};

// The profile attached to the calling thread's installed ExecContext, or
// null. Hook sites null-check it.
QueryProfile* CurrentProfile();

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_PROFILE_H_

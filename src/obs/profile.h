// Per-query profiler: attributes observability deltas to ONE containment
// check or evaluation and renders an EXPLAIN ANALYZE-style report (text and
// JSON, schema "rq-profile/1"; see docs/OBSERVABILITY.md).
//
// The global registries (obs/counters.h, obs/gauge.h, obs/histogram.h) and
// the span tracer accumulate process-wide. A QueryProfile snapshots all of
// them when the profiled operation begins and again when it ends, and
// reports the WINDOW: counter deltas, per-name span-stat deltas, windowed
// histogram distributions (quantiles recomputed from raw bucket
// differences, so a profiled query's p50/p99 are its own, not the process
// lifetime's), and gauge begin/end levels with any peak raised inside the
// window. For a single-query run from a fresh registry the profile totals
// reconcile exactly with the global rq-obs/2 export; with the automata
// cache enabled across queries, verdict-cache hits make later profiles
// legitimately cheaper than the global totals (documented tolerance:
// profile deltas never exceed the global totals).
//
// Beyond registry windows, subsystems annotate the ACTIVE profile directly
// through the process-global hook (QueryProfile::Active()):
//  * pipeline entry points attach notes (dispatch method, pipeline chosen)
//    and stats (rounds, expansions checked, product states);
//  * the batch containment worker pool (containment/batch.h) reports one
//    row per worker — jobs executed and busy wall-time, accumulated
//    thread-locally by each worker and flushed once at pool exit, so the
//    per-worker numbers are isolated from each other by construction.
//
// One profile may be active at a time (CLI --profile wraps the whole
// query); a ProfileScope constructed while another is active records
// nothing and reports inactive.
#ifndef RQ_OBS_PROFILE_H_
#define RQ_OBS_PROFILE_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/mem.h"
#include "obs/histogram.h"
#include "obs/json.h"

namespace rq {
namespace obs {

// One counter that grew inside the window.
struct ProfileCounterDelta {
  std::string name;
  uint64_t delta = 0;
};

// Windowed distribution: quantiles over the bucket difference between the
// end and begin snapshots. `max` is the lower bound of the highest bucket
// the window touched (<= 25% below the true windowed maximum).
struct ProfileHistogramDelta {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

// Gauge levels at the window edges. `peak_raised` is true when the
// process-lifetime peak grew during the window (the window set a new
// high-water mark); `end_peak` is then that new peak.
struct ProfileGaugeDelta {
  std::string name;
  int64_t begin_value = 0;
  int64_t end_value = 0;
  int64_t end_peak = 0;
  bool peak_raised = false;
};

// Span aggregate delta (count and wall-time attributed to the window).
// Present only when tracing was enabled around the profiled operation.
struct ProfileSpanDelta {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
};

// One batch-pool worker's contribution (containment/batch.cc flushes one
// row per worker thread after the pool joins).
struct ProfileWorker {
  uint32_t worker = 0;
  uint64_t jobs = 0;
  uint64_t busy_ns = 0;
};

// Per-query memory attribution, read from the pot of the ExecContext
// installed on the profiling thread when the window closes
// (common/deadline.h). `present` is false when no context was installed —
// the memory section is then omitted from the report.
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

  // The profile currently collecting (nullptr when none). Subsystem hook
  // sites null-check this; the load is one relaxed atomic.
  static QueryProfile* Active();

  // Starts the window and installs this profile as active (fails silently
  // — records nothing — if another profile is already active). `tool`,
  // `query_class`, `query_text` describe the operation for the report.
  void Begin(std::string tool, std::string query_class,
             std::string query_text);
  // Ends the window, computes all deltas, and deactivates.
  void End();

  // Subsystem annotations (thread-safe; callable between Begin and End).
  void AddNote(const std::string& key, std::string value);
  void AddStat(const std::string& key, uint64_t value);  // accumulates
  void RecordWorker(uint32_t worker, uint64_t jobs, uint64_t busy_ns);

  // Report accessors (valid after End).
  bool collected() const { return collected_; }
  uint64_t wall_ns() const { return wall_ns_; }
  const std::vector<ProfileCounterDelta>& counters() const {
    return counters_;
  }
  const std::vector<ProfileHistogramDelta>& histograms() const {
    return histograms_;
  }
  const std::vector<ProfileGaugeDelta>& gauges() const { return gauges_; }
  const std::vector<ProfileSpanDelta>& spans() const { return spans_; }
  const std::vector<ProfileWorker>& workers() const { return workers_; }
  const ProfileMemory& memory() const { return memory_; }

  // Renders the report. Schema "rq-profile/1":
  //   { "schema": "rq-profile/1",
  //     "tool": S, "class": S, "query": S, "wall_ns": N,
  //     "counters":   [ {"name": S, "delta": N}, ... ],        // sorted
  //     "histograms": [ {"name": S, "count": N, "sum": N,
  //                      "p50": N, "p90": N, "p99": N, "max": N}, ... ],
  //     "gauges":     [ {"name": S, "begin": N, "end": N,
  //                      "peak": N, "peak_raised": B}, ... ],
  //     "span_stats": [ {"name": S, "count": N, "total_ns": N}, ... ],
  //     "workers":    [ {"worker": N, "jobs": N, "busy_ns": N}, ... ],
  //     "memory":     { "peak_total_bytes": N, "budget_bytes": N,
  //                     "exceeded": B,
  //                     "peak_subsystem_bytes": { name: N, ... } },
  //     "stats":      { key: N, ... },
  //     "notes":      { key: S, ... } }
  // Arrays list only entries whose window is non-empty; "memory" appears
  // only when an ExecContext was installed around the profiled operation.
  JsonValue ToJson() const;
  std::string ToText() const;  // EXPLAIN ANALYZE-style, for --profile

 private:
  struct HistogramBaseline {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, Histogram::kNumBuckets> buckets{};
  };
  struct GaugeBaseline {
    int64_t value = 0;
    int64_t peak = 0;
  };
  struct SpanBaseline {
    uint64_t count = 0;
    uint64_t total_ns = 0;
  };

  // Window descriptor.
  std::string tool_;
  std::string query_class_;
  std::string query_text_;
  uint64_t begin_ns_ = 0;
  uint64_t wall_ns_ = 0;
  bool active_ = false;
  bool collected_ = false;

  // Begin snapshots.
  std::map<std::string, uint64_t> counter_baseline_;
  std::map<std::string, HistogramBaseline> histogram_baseline_;
  std::map<std::string, GaugeBaseline> gauge_baseline_;
  std::map<std::string, SpanBaseline> span_baseline_;

  // Results.
  std::vector<ProfileCounterDelta> counters_;
  std::vector<ProfileHistogramDelta> histograms_;
  std::vector<ProfileGaugeDelta> gauges_;
  std::vector<ProfileSpanDelta> spans_;
  ProfileMemory memory_;

  // Annotations (guarded by mu_: workers flush concurrently).
  mutable std::mutex mu_;
  std::vector<ProfileWorker> workers_;
  std::map<std::string, uint64_t> stats_;
  std::map<std::string, std::string> notes_;
};

// RAII wrapper: Begin at construction, End at destruction.
class ProfileScope {
 public:
  ProfileScope(QueryProfile* profile, std::string tool,
               std::string query_class, std::string query_text)
      : profile_(profile) {
    profile_->Begin(std::move(tool), std::move(query_class),
                    std::move(query_text));
  }
  ~ProfileScope() { profile_->End(); }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  QueryProfile* profile_;
};

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_PROFILE_H_

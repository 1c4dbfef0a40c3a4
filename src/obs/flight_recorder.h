// Always-on flight recorder: a lock-free fixed-size ring of completed-query
// summaries plus a latency-gated slow-query log (the observability layer's
// incident store; see docs/OBSERVABILITY.md).
//
// Production engines need post-hoc answers to "what was this process doing
// just before it fell over?" without having had tracing enabled. The flight
// recorder runs unconditionally: every top-level query operation — a path /
// RQ / Datalog containment check, a graph or Datalog evaluation — records
// one fixed-size summary (kind, verdict, duration, primary work metric) on
// completion. Recording is a ticket fetch_add plus a handful of relaxed
// atomic stores guarded by a per-slot seqlock tag, so it is safe from any
// thread and costs nothing measurable per query (each subsystem already
// flushes its counters once per operation at the same point).
//
// The ring keeps the newest kCapacity summaries, dropping oldest-first on
// overflow; evicted summaries are counted by `obs.flight_dropped`
// (alongside `obs.dropped_spans` for the tracer's cap). Readers detect
// slots being concurrently overwritten via the seqlock tag and skip them —
// a snapshot never contains a torn entry (asserted under tsan in
// tests/concurrency/flight_recorder_concurrency_test.cc).
//
// Queries slower than the threshold (default 100 ms; see
// SetSlowQueryThresholdNs, env RQ_SLOW_QUERY_MS) additionally land in the
// slow-query log — a mutex-guarded bounded deque that may carry the query
// label installed by the CLI (SetFlightQueryLabel). Slow queries are rare
// by construction, so the lock is off the hot path.
//
// Dumps: WriteFlightDump renders ring + slow log as text on demand
// (rqcheck/rqeval --flight-dump); DumpFlightRecorderToFd is
// async-signal-safe (no locks, no allocation, write(2) only) and is what
// the fatal-signal handler installed by InstallFlightSignalHandler calls
// before re-raising, so a crashing process leaves its last kCapacity
// queries on stderr.
#ifndef RQ_OBS_FLIGHT_RECORDER_H_
#define RQ_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace rq {
namespace obs {

// Top-level query operations the recorder distinguishes. Values are stable
// (they appear in dumps); append only.
enum class QueryKind : uint8_t {
  kUnknown = 0,
  kPathContainment,     // CheckPathQueryContainment (RPQ / 2RPQ fold)
  kUc2RpqContainment,   // CheckUc2RpqContainment
  kRqContainment,       // CheckRqContainment
  kDatalogContainment,  // CheckDatalogContainment
  kGraphEval,           // path-query evaluation (product-BFS lane kernel)
  kUc2RpqEval,          // EvalUc2Rpq
  kRqEval,              // EvalRqQuery
  kDatalogEval,         // EvalDatalogGoal
};
const char* QueryKindName(QueryKind kind);

// Verdict codes carried by a summary. Containment checks map their
// Certainty (proved/refuted/unknown); evaluations record kOk. The primary
// `work` metric is per-kind: states explored for containment, expansions
// checked for RQ containment, fixpoint rounds for Datalog, product states
// for graph evaluation, answer tuples for the relational evaluators.
inline constexpr int32_t kFlightVerdictOk = 0;
inline constexpr int32_t kFlightVerdictRefuted = 1;
inline constexpr int32_t kFlightVerdictUnknown = 2;
inline constexpr int32_t kFlightVerdictError = 3;
inline constexpr int32_t kFlightVerdictTimeout = 4;
inline constexpr int32_t kFlightVerdictAbandoned = -1;
const char* FlightVerdictName(int32_t verdict);

// Verdict for an entry point unwinding with `error`: deadline expiry and
// cancellation record kFlightVerdictTimeout (the operation was cut short,
// not wrong), anything else kFlightVerdictError.
inline int32_t FlightVerdictFromError(const Status& error) {
  return (error.code() == StatusCode::kDeadlineExceeded ||
          error.code() == StatusCode::kCancelled)
             ? kFlightVerdictTimeout
             : kFlightVerdictError;
}

// Reader-side copy of one completed-query summary (oldest-first in
// snapshots; seq is the global completion ticket, starting at 0).
struct FlightEntry {
  uint64_t seq = 0;
  QueryKind kind = QueryKind::kUnknown;
  int32_t verdict = kFlightVerdictOk;
  uint64_t start_ns = 0;     // steady-clock, relative to recorder creation
  uint64_t duration_ns = 0;
  uint64_t work = 0;         // per-kind primary work metric (see above)
  uint64_t mem_peak = 0;     // peak tracked bytes (ExecContext pot
                             // high-water; 0 when no context was installed)
};

// One slow-query log row (richer than a ring slot: carries the label the
// CLI installed via SetFlightQueryLabel, empty when none was set).
struct SlowQueryEntry {
  uint64_t seq = 0;
  QueryKind kind = QueryKind::kUnknown;
  int32_t verdict = kFlightVerdictOk;
  uint64_t duration_ns = 0;
  uint64_t work = 0;
  uint64_t mem_peak = 0;
  std::string label;
};

class FlightRecorder {
 public:
  static constexpr size_t kCapacity = 256;      // ring slots (power of two)
  static constexpr size_t kMaxSlowQueries = 64; // slow-log rows kept

  static FlightRecorder& Global();

  // Records one completed query. Lock-free; callable from any thread.
  // `mem_peak` is the high-water mark of the query's ExecContext pot in
  // bytes (0 when none was installed around the operation).
  void Record(QueryKind kind, int32_t verdict, uint64_t duration_ns,
              uint64_t work, uint64_t mem_peak = 0);

  // Consistent copies of the ring (oldest-first, torn slots skipped) and
  // the slow-query log (oldest-first).
  std::vector<FlightEntry> Snapshot() const;
  std::vector<SlowQueryEntry> SlowQueries() const;

  // Total queries ever recorded (ring tickets issued).
  uint64_t TotalRecorded() const;

  // Latency gate for the slow-query log; 0 disables it. The initial value
  // is 100 ms, overridable via env RQ_SLOW_QUERY_MS at first use.
  void SetSlowQueryThresholdNs(uint64_t ns);
  uint64_t SlowQueryThresholdNs() const;

  // Context label copied into subsequent slow-query entries (the CLI's
  // query text); empty clears it. See SetFlightQueryLabel.
  void SetQueryLabel(std::string label);
  // The currently installed label ("" when none). The Prometheus exporter
  // surfaces it as rq_query_info{query="..."}.
  std::string QueryLabel() const;

  // Async-signal-safe text dump of the ring to a file descriptor: no
  // locks, no allocation, integer formatting into a stack buffer. The
  // slow-query log is mutex-guarded and therefore NOT dumped here — use
  // WriteFlightDump outside signal context for the full picture.
  void DumpToFd(int fd) const;

  // Clears ring, slow log, and ticket counter (tests; not atomic with
  // respect to concurrent Record calls).
  void Reset();

 private:
  FlightRecorder();

  struct Slot {
    // Seqlock tag: 0 = never written; odd = write in progress; even and
    // nonzero = stable, holding (seq + 1) * 2 for the entry it carries.
    std::atomic<uint64_t> tag{0};
    std::atomic<uint64_t> kind_verdict{0};  // kind << 32 | (uint32)verdict
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> duration_ns{0};
    std::atomic<uint64_t> work{0};
    std::atomic<uint64_t> mem_peak{0};
  };

  std::atomic<uint64_t> next_seq_{0};
  uint64_t epoch_ns_ = 0;  // steady-clock origin for start_ns
  Slot slots_[kCapacity];

  std::atomic<uint64_t> slow_threshold_ns_;
  mutable std::mutex slow_mu_;
  std::deque<SlowQueryEntry> slow_;
  std::string label_;  // guarded by slow_mu_
};

// RAII timing helper for the top-level entry points: starts the clock at
// construction; Finish(verdict, work) records the summary, sampling the
// calling thread's installed ExecContext (if any) for the entry's mem_peak
// field. A timer destroyed without Finish records kFlightVerdictAbandoned
// (an error path unwound through the entry point).
//
// Nested timers on the SAME thread are suppressed: only the outermost
// records, so a CheckRqContainment that dispatches to the 2RPQ fold or
// evaluates Q2 over a hundred expansions contributes one ring entry, not
// hundreds of sub-operation entries. Work fanned out to pool threads (the
// batch containment engine) starts at depth zero per worker and records
// per job — in a batch, the individual checks ARE the queries.
class FlightTimer {
 public:
  explicit FlightTimer(QueryKind kind);
  ~FlightTimer();

  FlightTimer(const FlightTimer&) = delete;
  FlightTimer& operator=(const FlightTimer&) = delete;

  void Finish(int32_t verdict, uint64_t work);

 private:
  QueryKind kind_;
  uint64_t start_ns_;
  bool finished_ = false;
  bool outermost_ = false;  // false for a nested timer: records nothing
};

// Installs `label` (typically the CLI's query text) as the context
// attached to subsequent slow-query log entries; empty clears it.
void SetFlightQueryLabel(std::string label);

// Human-readable dump of ring + slow log; path "-" writes to stderr (and
// leaves it open). Fails if any write, the final flush or the close fails.
Status WriteFlightDump(const std::string& path);

// Installs fatal-signal handlers (SIGSEGV, SIGBUS, SIGFPE, SIGILL,
// SIGABRT) that dump the ring to stderr and re-raise with default
// disposition. Idempotent; POSIX-only (no-op elsewhere).
void InstallFlightSignalHandler();

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_FLIGHT_RECORDER_H_

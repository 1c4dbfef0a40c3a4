#include "obs/trace.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "common/clock.h"
#include "obs/histogram.h"
#include "obs/subsystems.h"

namespace rq {
namespace obs {

namespace {

std::atomic<TraceMode> g_mode{TraceMode::kDisabled};

// Internal per-name aggregate: the exported SpanStats plus the duration
// histogram backing its quantiles.
struct StatsEntry {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  std::unique_ptr<Histogram> durations = std::make_unique<Histogram>();
};

struct TraceState {
  std::mutex mu;
  // Session identity. Bumped by every SetTraceMode/ClearTrace; spans and
  // per-thread bookkeeping from older generations are discarded rather
  // than linked into the new session.
  std::atomic<uint64_t> generation{1};
  // Session clock origin, as an absolute steady-clock timestamp (atomic
  // so open spans can read it without the lock).
  std::atomic<uint64_t> session_start_ns{SteadyNowNs()};
  uint32_t next_tid = 0;  // dense per-session thread ids
  std::vector<SpanRecord> records;
  std::map<std::string, StatsEntry, std::less<>> stats;
  uint64_t dropped = 0;
};

TraceState& State() {
  static TraceState* state = new TraceState();  // never destroyed
  return *state;
}

// Per-thread stack of open span record indices (-1 for aggregate-only
// spans), used to derive depth and parent for new spans. Tagged with the
// session generation so a reset invalidates stale indices and tids.
struct ThreadStack {
  uint64_t generation = 0;
  uint32_t tid = 0;
  bool tid_valid = false;
  std::vector<int32_t> open;
};

ThreadStack& LocalStack() {
  thread_local ThreadStack stack;
  return stack;
}

// Drops this thread's bookkeeping if it belongs to an older session.
// Callable without the state lock (generation is atomic).
void SyncThreadToSession(const TraceState& state, ThreadStack& stack,
                         uint64_t* generation_out) {
  uint64_t generation = state.generation.load(std::memory_order_relaxed);
  if (stack.generation != generation) {
    stack.generation = generation;
    stack.tid_valid = false;
    stack.open.clear();
  }
  *generation_out = generation;
}

void ClearLocked(TraceState& state) {
  state.records.clear();
  state.stats.clear();
  state.dropped = 0;
  state.next_tid = 0;
  state.session_start_ns.store(SteadyNowNs(), std::memory_order_relaxed);
  state.generation.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceMode CurrentTraceMode() {
  return g_mode.load(std::memory_order_relaxed);
}

uint64_t TraceSessionStartNs() {
  return State().session_start_ns.load(std::memory_order_relaxed);
}

void SetTraceMode(TraceMode mode) {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  g_mode.store(mode, std::memory_order_relaxed);
  ClearLocked(state);
}

void ClearTrace() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  ClearLocked(state);
}

std::vector<SpanRecord> CollectSpanRecords() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.records;
}

std::vector<SpanStats> CollectSpanStats() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<SpanStats> out;
  out.reserve(state.stats.size());
  for (const auto& [name, entry] : state.stats) {
    SpanStats stats;
    stats.name = name;
    stats.count = entry.count;
    stats.total_ns = entry.total_ns;
    stats.p50_ns = entry.durations->ValueAtQuantile(0.50);
    stats.p90_ns = entry.durations->ValueAtQuantile(0.90);
    stats.p99_ns = entry.durations->ValueAtQuantile(0.99);
    stats.max_ns = entry.durations->max();
    out.push_back(std::move(stats));
  }
  return out;
}

uint64_t DroppedSpanRecords() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.dropped;
}

void ScopedSpan::Begin(const char* name) {
  active_ = true;
  name_ = name;
  record_index_ = -1;
  TraceState& state = State();
  ThreadStack& stack = LocalStack();
  // One timestamp for both the record row and the duration base, so a
  // parent's start+duration always covers its children's. Absolute, so a
  // session reset mid-span cannot corrupt the duration.
  start_abs_ns_ = SteadyNowNs();
  if (CurrentTraceMode() == TraceMode::kFull) {
    std::lock_guard<std::mutex> lock(state.mu);
    SyncThreadToSession(state, stack, &generation_);
    if (!stack.tid_valid) {
      stack.tid = state.next_tid++;
      stack.tid_valid = true;
    }
    if (state.records.size() < kMaxRecordedSpans) {
      SpanRecord record;
      record.name = name;
      record.start_ns =
          start_abs_ns_ -
          state.session_start_ns.load(std::memory_order_relaxed);
      record.depth = static_cast<uint32_t>(stack.open.size());
      record.tid = stack.tid;
      // Nearest enclosing span of THIS thread that has a recorded row;
      // the stack holds only this thread's current-session indices, so
      // the parent can never land on another worker's span.
      for (auto it = stack.open.rbegin(); it != stack.open.rend(); ++it) {
        if (*it >= 0) {
          record.parent = *it;
          break;
        }
      }
      record_index_ = static_cast<int32_t>(state.records.size());
      state.records.push_back(std::move(record));
    } else {
      ++state.dropped;
      ObsCounters::Get().dropped_spans.Increment();
    }
  } else {
    SyncThreadToSession(state, stack, &generation_);
  }
  stack.open.push_back(record_index_);
}

void ScopedSpan::End() {
  TraceState& state = State();
  uint64_t duration = SteadyNowNs() - start_abs_ns_;
  ThreadStack& stack = LocalStack();
  // Only unwind a stack that still belongs to this span's session; a
  // reset already cleared it.
  if (stack.generation == generation_ && !stack.open.empty()) {
    stack.open.pop_back();
  }
  std::lock_guard<std::mutex> lock(state.mu);
  // A span that straddled a session reset is discarded entirely: its row
  // index and aggregates would otherwise leak into the new session.
  if (state.generation.load(std::memory_order_relaxed) != generation_) {
    active_ = false;
    return;
  }
  if (record_index_ >= 0 &&
      static_cast<size_t>(record_index_) < state.records.size()) {
    state.records[record_index_].duration_ns = duration;
  }
  auto it = state.stats.find(name_);
  if (it == state.stats.end()) {
    it = state.stats.emplace(name_, StatsEntry{}).first;
  }
  ++it->second.count;
  it->second.total_ns += duration;
  it->second.durations->Record(duration);
  active_ = false;
}

void ScopedSpan::AddAttr(const char* key, uint64_t value) {
  if (!active_ || record_index_ < 0) return;
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.generation.load(std::memory_order_relaxed) != generation_) {
    return;
  }
  if (static_cast<size_t>(record_index_) < state.records.size()) {
    state.records[record_index_].attrs.emplace_back(key, value);
  }
}

}  // namespace obs
}  // namespace rq

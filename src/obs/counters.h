// The process-wide metric registry (the observability layer's one metric
// store; see docs/OBSERVABILITY.md): named counters, gauges
// (obs/gauge.h) and histograms (obs/histogram.h) under one lock.
//
// Metrics are registered on first use and live for the process lifetime;
// handles are stable pointers, so hot paths hold a Counter*, Gauge* or
// Histogram* and update it with relaxed atomics — no lock, no lookup.
// Subsystems batch their counts locally and flush once per operation (see
// obs/subsystems.h), keeping the instrumented hot loops free of
// shared-memory traffic.
//
// Naming scheme: `<subsystem>.<noun>`, lower_snake_case nouns, e.g.
// `containment.states_explored`, `datalog.tuples_considered`. Each kind
// has its own namespace: a histogram conventionally shares the name of
// the counter whose per-operation distribution it records. The full
// vocabulary is documented in docs/OBSERVABILITY.md and defined in
// obs/subsystems.h.
#ifndef RQ_OBS_COUNTERS_H_
#define RQ_OBS_COUNTERS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/gauge.h"
#include "obs/histogram.h"

namespace rq {
namespace obs {

// A named monotonic counter. Obtained from the registry; never destroyed.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  std::string name_;
  std::atomic<uint64_t> value_{0};
};

struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

// `peak` is never below `value`: a racing Set/Add stores the level before
// it raises the peak, so the snapshot reports the larger of the two reads.
struct GaugeSample {
  std::string name;
  int64_t value = 0;
  int64_t peak = 0;
};

// `count` is the sum of `buckets` as read, so a row is a valid cumulative
// distribution even while Record() races the snapshot (Record bumps the
// bucket before the count). `sum` and `max` are read separately.
struct HistogramSample {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, Histogram::kNumBuckets> buckets{};
};

// Every registered metric, one name-sorted list per kind.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

// The process-wide registry. Lookup takes the lock; callers cache the
// returned handle (cheap pointer) instead of looking up per event.
class Registry {
 public:
  static Registry& Global();

  // Interns `name` within its kind, returning the same handle for the
  // same name forever. A counter, a gauge and a histogram may share a name.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // All metrics, read under one lock acquisition.
  MetricsSnapshot Snapshot() const;

  // Zeroes every counter, gauge (level and peak) and histogram. Meant for
  // tests and for bench harness runs that want per-run deltas; metrics
  // stay registered. Not atomic with respect to concurrent updates.
  void ResetAll();

 private:
  template <typename Metric>
  using Metrics = std::map<std::string, std::unique_ptr<Metric>, std::less<>>;

  Registry() = default;

  template <typename Metric>
  static Metric* Intern(Metrics<Metric>& metrics, std::string_view name);

  mutable std::mutex mu_;
  Metrics<Counter> counters_;
  Metrics<Gauge> gauges_;
  Metrics<Histogram> histograms_;
};

// Shorthands for Registry::Global().Get*(name).
Counter* GetCounter(std::string_view name);
Gauge* GetGauge(std::string_view name);
Histogram* GetHistogram(std::string_view name);

// The row named `name` in one name-sorted list of a snapshot, or nullptr.
template <typename Sample>
const Sample* FindSample(const std::vector<Sample>& samples,
                         std::string_view name) {
  auto it = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const Sample& sample, std::string_view key) {
        return sample.name < key;
      });
  return it != samples.end() && it->name == name ? &*it : nullptr;
}

// The counters that grew from `before` to `after` (two name-sorted
// snapshots, as Registry::Snapshot returns them), with their growth;
// counters registered after `before` count from 0.
std::vector<CounterSample> CounterGrowth(
    const std::vector<CounterSample>& before,
    const std::vector<CounterSample>& after);

// Captures all counter values at construction; Delta(name) reports how much
// a counter grew since then (0 for counters registered later with no
// baseline). The standard way for tests and CLI tools to attribute counts
// to one operation.
class CounterDelta {
 public:
  CounterDelta();

  uint64_t Delta(std::string_view name) const;

  // All counters that grew since construction, name-sorted.
  std::vector<CounterSample> Deltas() const;

 private:
  std::vector<CounterSample> baseline_;
};

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_COUNTERS_H_

// Max-tracking gauges for peak quantities (the observability layer's
// level store; see docs/OBSERVABILITY.md).
//
// A Gauge holds a current level and the peak that level ever reached.
// Unlike counters (monotonic totals) a gauge can go down: subsystems
// either Set() it once per operation (peak automaton sizes — the level is
// the most recent construction, the peak the largest ever) or Add()/Sub()
// deltas around a resource's lifetime (cache bytes in use, batch queue
// depth — the peak is the high-water mark). All mutations are relaxed
// atomics plus a CAS-max, so gauges are safe from any thread and follow
// the flush-per-operation discipline of obs/counters.h.
//
// Gauges are interned by the one metric registry (obs::Registry and the
// GetGauge shorthand in obs/counters.h), named `<subsystem>.<noun>` like
// counters, e.g. `fold.peak_states`, `cache.bytes_in_use`. Registered
// gauges live for the process lifetime; handles are stable pointers.
#ifndef RQ_OBS_GAUGE_H_
#define RQ_OBS_GAUGE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

namespace rq {
namespace obs {

class Gauge {
 public:
  // Replaces the current level (raising the peak if needed).
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
    RaisePeak(value);
  }

  // Moves the current level by a delta (raising the peak if needed).
  void Add(int64_t delta) {
    int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    RaisePeak(now);
  }
  void Sub(int64_t delta) { Add(-delta); }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  // Zeroes level and peak (per-run bench resets and tests). Not atomic
  // with respect to concurrent mutations.
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void RaisePeak(int64_t candidate) {
    int64_t seen = peak_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !peak_.compare_exchange_weak(seen, candidate,
                                        std::memory_order_relaxed)) {
    }
  }

  std::string name_;
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> peak_{0};
};

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_GAUGE_H_

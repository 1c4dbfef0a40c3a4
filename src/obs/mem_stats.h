// Observability surface of the memory accountant (common/mem.h): the
// global mem.* gauge/histogram/counter handles the charging hooks flush
// into, the export-time RSS sample, and a bounded timeline feeding
// Chrome-trace counter ("C") events. Vocabulary in docs/OBSERVABILITY.md.
#ifndef RQ_OBS_MEM_STATS_H_
#define RQ_OBS_MEM_STATS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/mem.h"
#include "obs/counters.h"

namespace rq {
namespace obs {

// Typed view over the mem.* registry entries (the memory twin of the
// structs in obs/subsystems.h). Live levels rise and fall with charges and
// releases; peaks are the process-wide high-water marks.
struct MemStats {
  // mem.<subsystem>_bytes, indexed by MemSubsystem.
  std::array<Gauge*, kMemSubsystemCount> subsystem_bytes;
  // Sum of all subsystem charges currently live.
  Gauge& tracked_bytes = *GetGauge("mem.tracked_bytes");
  // OS view (getrusage ru_maxrss), sampled by SampleRssGauge at export
  // time so self-reported accounting can be sanity-checked.
  Gauge& peak_rss_bytes = *GetGauge("mem.peak_rss_bytes");
  // Per-charge distribution of positive charge sizes.
  Histogram& alloc_bytes = *GetHistogram("mem.alloc_bytes");
  // Budget trips (once per ExecContext that latched kResourceExhausted).
  Counter& budget_exceeded = *GetCounter("mem.budget_exceeded");

  static MemStats& Get();

  MemStats();
};

// Unit getrusage reports ru_maxrss in. POSIX leaves it unspecified: Linux
// uses kilobytes, macOS and the BSDs report bytes. Scaling unconditionally
// by 1024 inflated mem.peak_rss_bytes 1024x off-Linux — enough to make the
// tracked <= rss sanity bound vacuously true and the gauge useless.
enum class RuMaxRssUnit { kKilobytes, kBytes };

// The unit this build's platform reports.
#if defined(__APPLE__) || defined(__FreeBSD__) || defined(__NetBSD__) || \
    defined(__OpenBSD__) || defined(__DragonFly__)
inline constexpr RuMaxRssUnit kPlatformRuMaxRssUnit = RuMaxRssUnit::kBytes;
#else
inline constexpr RuMaxRssUnit kPlatformRuMaxRssUnit =
    RuMaxRssUnit::kKilobytes;
#endif

// Converts a raw ru_maxrss reading to bytes under the given unit. Split
// out (with the unit explicit) so the scaling is testable on every
// platform, not just the one the test happens to run on.
inline uint64_t RuMaxRssToBytes(
    uint64_t raw, RuMaxRssUnit unit = kPlatformRuMaxRssUnit) {
  return unit == RuMaxRssUnit::kKilobytes ? raw * 1024 : raw;
}

// Reads the process peak RSS from the OS (ru_maxrss scaled to bytes per
// kPlatformRuMaxRssUnit; 0 where unsupported) and Set()s
// mem.peak_rss_bytes. Called by the JSON / Prometheus / profile exporters
// so the gauge is fresh in every dump.
uint64_t SampleRssGauge();

// One point on the memory timeline: the live per-subsystem levels at
// `ts_ns` (absolute steady-clock nanoseconds).
struct MemTimelineSample {
  uint64_t ts_ns = 0;
  std::array<int64_t, kMemSubsystemCount> bytes{};
};

// The charging hook records a sample whenever tracked bytes moved by at
// least kMemTimelineDeltaBytes since the last sample — but only while span
// tracing is enabled, so the mutex + vector cost nothing in production.
// Bounded at kMemTimelineCap samples (oldest kept; a saturated timeline
// simply stops growing).
inline constexpr int64_t kMemTimelineDeltaBytes = 64 * 1024;
inline constexpr size_t kMemTimelineCap = 4096;

// Called by MemCharge after moving the gauges. Cheap no-op when tracing
// is disabled.
void MaybeRecordMemTimelineSample();

std::vector<MemTimelineSample> CollectMemTimeline();

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_MEM_STATS_H_

#include "obs/mem_stats.h"

#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "obs/trace.h"

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

namespace rq {
namespace obs {

MemStats::MemStats() {
  for (int i = 0; i < kMemSubsystemCount; ++i) {
    subsystem_bytes[static_cast<size_t>(i)] = GetGauge(
        std::string("mem.") +
        MemSubsystemName(static_cast<MemSubsystem>(i)) + "_bytes");
  }
}

MemStats& MemStats::Get() {
  static MemStats* stats = new MemStats();  // never destroyed
  return *stats;
}

uint64_t SampleRssGauge() {
#if !defined(_WIN32)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // ru_maxrss is kilobytes on Linux but bytes on macOS/BSD; the
    // platform-gated unit lives in mem_stats.h (RuMaxRssToBytes).
    uint64_t bytes = RuMaxRssToBytes(static_cast<uint64_t>(usage.ru_maxrss));
    MemStats::Get().peak_rss_bytes.Set(static_cast<int64_t>(bytes));
    return bytes;
  }
#endif
  return 0;
}

namespace {

struct Timeline {
  std::mutex mu;
  std::vector<MemTimelineSample> samples;
  int64_t last_total = 0;
};

Timeline& GetTimeline() {
  static Timeline* timeline = new Timeline();  // never destroyed
  return *timeline;
}

}  // namespace

void MaybeRecordMemTimelineSample() {
  if (CurrentTraceMode() == TraceMode::kDisabled) return;
  MemStats& stats = MemStats::Get();
  int64_t total = stats.tracked_bytes.value();
  Timeline& timeline = GetTimeline();
  std::lock_guard<std::mutex> lock(timeline.mu);
  if (timeline.samples.size() >= kMemTimelineCap) return;
  int64_t delta = total - timeline.last_total;
  if (!timeline.samples.empty() &&
      (delta < 0 ? -delta : delta) < kMemTimelineDeltaBytes) {
    return;
  }
  timeline.last_total = total;
  MemTimelineSample sample;
  sample.ts_ns = SteadyNowNs();
  for (int i = 0; i < kMemSubsystemCount; ++i) {
    sample.bytes[static_cast<size_t>(i)] =
        stats.subsystem_bytes[static_cast<size_t>(i)]->value();
  }
  timeline.samples.push_back(sample);
}

std::vector<MemTimelineSample> CollectMemTimeline() {
  Timeline& timeline = GetTimeline();
  std::lock_guard<std::mutex> lock(timeline.mu);
  return timeline.samples;
}

}  // namespace obs
}  // namespace rq

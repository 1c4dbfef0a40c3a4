#include "obs/profile.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/deadline.h"
#include "obs/counters.h"
#include "obs/gauge.h"
#include "obs/mem_stats.h"
#include "obs/trace.h"

namespace rq {
namespace obs {

namespace {

std::atomic<QueryProfile*> g_active{nullptr};

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

QueryProfile* QueryProfile::Active() {
  return g_active.load(std::memory_order_acquire);
}

void QueryProfile::Begin(std::string tool, std::string query_class,
                         std::string query_text) {
  QueryProfile* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_acq_rel)) {
    return;  // another profile is collecting; stay inactive
  }
  active_ = true;
  tool_ = std::move(tool);
  query_class_ = std::move(query_class);
  query_text_ = std::move(query_text);

  for (const CounterSample& sample : Registry::Global().Snapshot()) {
    counter_baseline_[sample.name] = sample.value;
  }
  for (const HistogramBucketsSample& sample :
       HistogramRegistry::Global().SnapshotBuckets()) {
    HistogramBaseline baseline;
    baseline.count = sample.count;
    baseline.sum = sample.sum;
    baseline.buckets = sample.buckets;
    histogram_baseline_[sample.name] = baseline;
  }
  for (const GaugeSample& sample : GaugeRegistry::Global().Snapshot()) {
    gauge_baseline_[sample.name] = {sample.value, sample.peak};
  }
  if (CurrentTraceMode() != TraceMode::kDisabled) {
    for (const SpanStats& stats : CollectSpanStats()) {
      span_baseline_[stats.name] = {stats.count, stats.total_ns};
    }
  }
  begin_ns_ = SteadyNowNs();
}

void QueryProfile::End() {
  if (!active_) return;
  wall_ns_ = SteadyNowNs() - begin_ns_;

  // Per-query memory attribution from the installed context (peaks, not
  // live levels: transient scopes have already released by now). Sampled
  // before the gauge snapshot below so mem.peak_rss_bytes is fresh in the
  // window.
  if (const ExecContext* ctx = ExecContext::Current(); ctx != nullptr) {
    memory_.present = true;
    memory_.peak_total_bytes = ctx->peak_total_bytes();
    memory_.budget_bytes = ctx->budget_bytes();
    memory_.exceeded = ctx->exceeded();
    for (int i = 0; i < kMemSubsystemCount; ++i) {
      memory_.peak_subsystem_bytes[i] =
          ctx->peak_subsystem_bytes(static_cast<MemSubsystem>(i));
    }
  }
  SampleRssGauge();

  for (const CounterSample& sample : Registry::Global().Snapshot()) {
    auto it = counter_baseline_.find(sample.name);
    uint64_t before = it != counter_baseline_.end() ? it->second : 0;
    if (sample.value > before) {
      counters_.push_back({sample.name, sample.value - before});
    }
  }
  for (const HistogramBucketsSample& sample :
       HistogramRegistry::Global().SnapshotBuckets()) {
    auto it = histogram_baseline_.find(sample.name);
    HistogramBaseline before =
        it != histogram_baseline_.end() ? it->second : HistogramBaseline{};
    if (sample.count <= before.count) continue;
    ProfileHistogramDelta delta;
    delta.name = sample.name;
    delta.count = sample.count - before.count;
    delta.sum = sample.sum - before.sum;
    std::array<uint64_t, Histogram::kNumBuckets> window{};
    size_t highest = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      window[i] = sample.buckets[i] - before.buckets[i];
      if (window[i] > 0) highest = i;
    }
    delta.p50 = Histogram::QuantileFromBuckets(window, 0.50);
    delta.p90 = Histogram::QuantileFromBuckets(window, 0.90);
    delta.p99 = Histogram::QuantileFromBuckets(window, 0.99);
    delta.max = Histogram::BucketLowerBound(highest);
    histograms_.push_back(std::move(delta));
  }
  for (const GaugeSample& sample : GaugeRegistry::Global().Snapshot()) {
    auto it = gauge_baseline_.find(sample.name);
    GaugeBaseline before =
        it != gauge_baseline_.end() ? it->second : GaugeBaseline{};
    bool peak_raised = sample.peak > before.peak;
    if (sample.value == before.value && !peak_raised) continue;
    ProfileGaugeDelta delta;
    delta.name = sample.name;
    delta.begin_value = before.value;
    delta.end_value = sample.value;
    delta.end_peak = sample.peak;
    delta.peak_raised = peak_raised;
    gauges_.push_back(std::move(delta));
  }
  if (CurrentTraceMode() != TraceMode::kDisabled) {
    for (const SpanStats& stats : CollectSpanStats()) {
      auto it = span_baseline_.find(stats.name);
      SpanBaseline before =
          it != span_baseline_.end() ? it->second : SpanBaseline{};
      if (stats.count <= before.count) continue;
      spans_.push_back({stats.name, stats.count - before.count,
                        stats.total_ns - before.total_ns});
    }
  }

  collected_ = true;
  active_ = false;
  g_active.store(nullptr, std::memory_order_release);
}

void QueryProfile::AddNote(const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_[key] = std::move(value);
}

void QueryProfile::AddStat(const std::string& key, uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_[key] += value;
}

void QueryProfile::RecordWorker(uint32_t worker, uint64_t jobs,
                                uint64_t busy_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  workers_.push_back({worker, jobs, busy_ns});
}

JsonValue QueryProfile::ToJson() const {
  JsonValue root = JsonValue::Object();
  root.Set("schema", JsonValue::String("rq-profile/1"));
  root.Set("tool", JsonValue::String(tool_));
  root.Set("class", JsonValue::String(query_class_));
  root.Set("query", JsonValue::String(query_text_));
  root.Set("collected", JsonValue::Bool(collected_));
  root.Set("wall_ns", JsonValue::Number(wall_ns_));

  JsonValue counters = JsonValue::Array();
  for (const ProfileCounterDelta& delta : counters_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(delta.name));
    entry.Set("delta", JsonValue::Number(delta.delta));
    counters.Append(std::move(entry));
  }
  root.Set("counters", std::move(counters));

  JsonValue histograms = JsonValue::Array();
  for (const ProfileHistogramDelta& delta : histograms_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(delta.name));
    entry.Set("count", JsonValue::Number(delta.count));
    entry.Set("sum", JsonValue::Number(delta.sum));
    entry.Set("p50", JsonValue::Number(delta.p50));
    entry.Set("p90", JsonValue::Number(delta.p90));
    entry.Set("p99", JsonValue::Number(delta.p99));
    entry.Set("max", JsonValue::Number(delta.max));
    histograms.Append(std::move(entry));
  }
  root.Set("histograms", std::move(histograms));

  JsonValue gauges = JsonValue::Array();
  for (const ProfileGaugeDelta& delta : gauges_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(delta.name));
    entry.Set("begin", JsonValue::Number(delta.begin_value));
    entry.Set("end", JsonValue::Number(delta.end_value));
    entry.Set("peak", JsonValue::Number(delta.end_peak));
    entry.Set("peak_raised", JsonValue::Bool(delta.peak_raised));
    gauges.Append(std::move(entry));
  }
  root.Set("gauges", std::move(gauges));

  JsonValue spans = JsonValue::Array();
  for (const ProfileSpanDelta& delta : spans_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(delta.name));
    entry.Set("count", JsonValue::Number(delta.count));
    entry.Set("total_ns", JsonValue::Number(delta.total_ns));
    spans.Append(std::move(entry));
  }
  root.Set("span_stats", std::move(spans));

  std::lock_guard<std::mutex> lock(mu_);
  JsonValue workers = JsonValue::Array();
  for (const ProfileWorker& worker : workers_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("worker", JsonValue::Number(static_cast<uint64_t>(worker.worker)));
    entry.Set("jobs", JsonValue::Number(worker.jobs));
    entry.Set("busy_ns", JsonValue::Number(worker.busy_ns));
    workers.Append(std::move(entry));
  }
  root.Set("workers", std::move(workers));

  if (memory_.present) {
    JsonValue memory = JsonValue::Object();
    memory.Set("peak_total_bytes", JsonValue::Number(memory_.peak_total_bytes));
    memory.Set("budget_bytes", JsonValue::Number(memory_.budget_bytes));
    memory.Set("exceeded", JsonValue::Bool(memory_.exceeded));
    JsonValue per_subsystem = JsonValue::Object();
    for (int i = 0; i < kMemSubsystemCount; ++i) {
      if (memory_.peak_subsystem_bytes[i] == 0) continue;
      per_subsystem.Set(MemSubsystemName(static_cast<MemSubsystem>(i)),
                        JsonValue::Number(memory_.peak_subsystem_bytes[i]));
    }
    memory.Set("peak_subsystem_bytes", std::move(per_subsystem));
    root.Set("memory", std::move(memory));
  }

  JsonValue stats = JsonValue::Object();
  for (const auto& [key, value] : stats_) {
    stats.Set(key, JsonValue::Number(value));
  }
  root.Set("stats", std::move(stats));

  JsonValue notes = JsonValue::Object();
  for (const auto& [key, value] : notes_) {
    notes.Set(key, JsonValue::String(value));
  }
  root.Set("notes", std::move(notes));
  return root;
}

std::string QueryProfile::ToText() const {
  std::string out;
  out += "== rq-profile/1: " + tool_ + " " + query_class_ + "  (" +
         FormatMs(wall_ns_) + " wall)\n";
  if (!query_text_.empty()) out += "query: " + query_text_ + "\n";
  if (!collected_) {
    out += "(profile inactive: another profile was already collecting)\n";
    return out;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!notes_.empty()) {
      out += "plan:\n";
      for (const auto& [key, value] : notes_) {
        out += "  " + key + " = " + value + "\n";
      }
    }
    if (!stats_.empty()) {
      out += "stats:\n";
      for (const auto& [key, value] : stats_) {
        out += "  " + key + " = " + std::to_string(value) + "\n";
      }
    }
  }
  if (!spans_.empty()) {
    out += "phases (span time inside this query):\n";
    for (const ProfileSpanDelta& delta : spans_) {
      out += "  " + delta.name + "  count=" + std::to_string(delta.count) +
             "  total=" + FormatMs(delta.total_ns) + "\n";
    }
  }
  if (!counters_.empty()) {
    out += "counters (delta):\n";
    for (const ProfileCounterDelta& delta : counters_) {
      out += "  " + delta.name + "  +" + std::to_string(delta.delta) + "\n";
    }
  }
  if (!histograms_.empty()) {
    out += "distributions (this query only):\n";
    for (const ProfileHistogramDelta& delta : histograms_) {
      out += "  " + delta.name + "  count=" + std::to_string(delta.count) +
             "  p50=" + std::to_string(delta.p50) +
             "  p99=" + std::to_string(delta.p99) +
             "  max~=" + std::to_string(delta.max) + "\n";
    }
  }
  if (!gauges_.empty()) {
    out += "gauges:\n";
    for (const ProfileGaugeDelta& delta : gauges_) {
      out += "  " + delta.name + "  " +
             std::to_string(delta.begin_value) + " -> " +
             std::to_string(delta.end_value);
      if (delta.peak_raised) {
        out += "  (new peak " + std::to_string(delta.end_peak) + ")";
      }
      out += "\n";
    }
  }
  if (memory_.present) {
    out += "memory (peak bytes, this query):\n";
    out += "  total  " + std::to_string(memory_.peak_total_bytes);
    if (memory_.budget_bytes != 0) {
      out += "  (budget " + std::to_string(memory_.budget_bytes) +
             (memory_.exceeded ? ", EXCEEDED)" : ")");
    }
    out += "\n";
    for (int i = 0; i < kMemSubsystemCount; ++i) {
      if (memory_.peak_subsystem_bytes[i] == 0) continue;
      out += std::string("  ") +
             MemSubsystemName(static_cast<MemSubsystem>(i)) + "  " +
             std::to_string(memory_.peak_subsystem_bytes[i]) + "\n";
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!workers_.empty()) {
      out += "batch workers:\n";
      for (const ProfileWorker& worker : workers_) {
        out += "  w" + std::to_string(worker.worker) +
               ": jobs=" + std::to_string(worker.jobs) +
               "  busy=" + FormatMs(worker.busy_ns) + "\n";
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace rq

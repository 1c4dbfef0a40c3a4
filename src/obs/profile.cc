#include "obs/profile.h"

#include <cstdio>
#include <vector>

#include "common/clock.h"
#include "common/deadline.h"
#include "obs/counters.h"
#include "obs/mem_stats.h"
#include "obs/trace.h"

namespace rq {
namespace obs {

namespace {

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

void QueryProfile::Begin(std::string tool, std::string query_class,
                         std::string query_text, ExecContext* ctx) {
  tool_ = std::move(tool);
  query_class_ = std::move(query_class);
  query_text_ = std::move(query_text);
  ctx_ = ctx;
  if (ctx_ != nullptr) ctx_->set_profile(this);
  begin_ns_ = SteadyNowNs();
}

void QueryProfile::End() {
  wall_ns_ = SteadyNowNs() - begin_ns_;

  // Peaks, not live levels: transient scopes have already released by now.
  if (ctx_ != nullptr) {
    memory_.present = true;
    memory_.peak_total_bytes = ctx_->peak_total_bytes();
    memory_.budget_bytes = ctx_->budget_bytes();
    memory_.exceeded = ctx_->exceeded();
    for (int i = 0; i < kMemSubsystemCount; ++i) {
      memory_.peak_subsystem_bytes[i] =
          ctx_->peak_subsystem_bytes(static_cast<MemSubsystem>(i));
    }
    ctx_->set_profile(nullptr);
    ctx_ = nullptr;
  }
  // Sampled before the snapshot so mem.peak_rss_bytes is fresh in it.
  SampleRssGauge();
  metrics_ = Registry::Global().Snapshot();
  std::erase_if(metrics_.counters,
                [](const CounterSample& row) { return row.value == 0; });
  std::erase_if(metrics_.histograms,
                [](const HistogramSample& row) { return row.count == 0; });
  std::erase_if(metrics_.gauges, [](const GaugeSample& row) {
    return row.value == 0 && row.peak == 0;
  });
  if (CurrentTraceMode() != TraceMode::kDisabled) {
    spans_ = CollectSpanStats();
    std::erase_if(spans_, [](const SpanStats& row) { return row.count == 0; });
  }
  collected_ = true;
}

void QueryProfile::AddNote(const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_[key] = std::move(value);
}

std::map<std::string, std::string> QueryProfile::notes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return notes_;
}

QueryProfile* CurrentProfile() {
  const ExecContext* ctx = ExecContext::Current();
  return ctx != nullptr ? ctx->profile() : nullptr;
}

JsonValue QueryProfile::ToJson() const {
  JsonValue root = JsonValue::Object();
  root.Set("schema", JsonValue::String("rq-profile/2"));
  root.Set("tool", JsonValue::String(tool_));
  root.Set("class", JsonValue::String(query_class_));
  root.Set("query", JsonValue::String(query_text_));
  root.Set("collected", JsonValue::Bool(collected_));
  root.Set("wall_ns", JsonValue::Number(wall_ns_));

  JsonValue counters = JsonValue::Array();
  for (const CounterSample& row : metrics_.counters) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(row.name));
    entry.Set("delta", JsonValue::Number(row.value));
    counters.Append(std::move(entry));
  }
  root.Set("counters", std::move(counters));

  JsonValue histograms = JsonValue::Array();
  for (const HistogramSample& row : metrics_.histograms) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(row.name));
    entry.Set("count", JsonValue::Number(row.count));
    entry.Set("sum", JsonValue::Number(row.sum));
    entry.Set("p50", JsonValue::Number(
                         Histogram::QuantileFromBuckets(row.buckets, 0.50)));
    entry.Set("p90", JsonValue::Number(
                         Histogram::QuantileFromBuckets(row.buckets, 0.90)));
    entry.Set("p99", JsonValue::Number(
                         Histogram::QuantileFromBuckets(row.buckets, 0.99)));
    entry.Set("max", JsonValue::Number(row.max));
    histograms.Append(std::move(entry));
  }
  root.Set("histograms", std::move(histograms));

  JsonValue gauges = JsonValue::Array();
  for (const GaugeSample& row : metrics_.gauges) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(row.name));
    entry.Set("begin", JsonValue::Number(int64_t{0}));
    entry.Set("end", JsonValue::Number(row.value));
    entry.Set("peak", JsonValue::Number(row.peak));
    entry.Set("peak_raised", JsonValue::Bool(row.peak > 0));
    gauges.Append(std::move(entry));
  }
  root.Set("gauges", std::move(gauges));

  JsonValue spans = JsonValue::Array();
  for (const SpanStats& row : spans_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(row.name));
    entry.Set("count", JsonValue::Number(row.count));
    entry.Set("total_ns", JsonValue::Number(row.total_ns));
    spans.Append(std::move(entry));
  }
  root.Set("span_stats", std::move(spans));

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

  std::lock_guard<std::mutex> lock(mu_);
  JsonValue notes = JsonValue::Object();
  for (const auto& [key, value] : notes_) {
    notes.Set(key, JsonValue::String(value));
  }
  root.Set("notes", std::move(notes));
  return root;
}

std::string QueryProfile::ToText() const {
  std::string out;
  out += "== rq-profile/2: " + tool_ + " " + query_class_ + "  (" +
         FormatMs(wall_ns_) + " wall)\n";
  if (!query_text_.empty()) out += "query: " + query_text_ + "\n";
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!notes_.empty()) {
      out += "plan:\n";
      for (const auto& [key, value] : notes_) {
        out += "  " + key + " = " + value + "\n";
      }
    }
  }
  if (!spans_.empty()) {
    out += "phases (span time inside this query):\n";
    for (const SpanStats& row : spans_) {
      out += "  " + row.name + "  count=" + std::to_string(row.count) +
             "  total=" + FormatMs(row.total_ns) + "\n";
    }
  }
  if (!metrics_.counters.empty()) {
    out += "counters (delta):\n";
    for (const CounterSample& row : metrics_.counters) {
      out += "  " + row.name + "  +" + std::to_string(row.value) + "\n";
    }
  }
  if (!metrics_.histograms.empty()) {
    out += "distributions (this query only):\n";
    for (const HistogramSample& row : metrics_.histograms) {
      out += "  " + row.name + "  count=" + std::to_string(row.count) +
             "  p50=" +
             std::to_string(Histogram::QuantileFromBuckets(row.buckets, 0.50)) +
             "  p99=" +
             std::to_string(Histogram::QuantileFromBuckets(row.buckets, 0.99)) +
             "  max~=" + std::to_string(row.max) + "\n";
    }
  }
  if (!metrics_.gauges.empty()) {
    out += "gauges:\n";
    for (const GaugeSample& row : metrics_.gauges) {
      out += "  " + row.name + "  0 -> " + std::to_string(row.value);
      if (row.peak > 0) {
        out += "  (new peak " + std::to_string(row.peak) + ")";
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
  return out;
}

}  // namespace obs
}  // namespace rq

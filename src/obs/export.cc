#include "obs/export.h"

#include <cinttypes>

#include "obs/counters.h"
#include "obs/mem_stats.h"
#include "obs/trace.h"

namespace rq {
namespace obs {

JsonValue SnapshotJson() {
  // Refresh the OS view (mem.peak_rss_bytes) so every snapshot carries a
  // current RSS sample next to the self-reported mem.* accounting.
  SampleRssGauge();
  const MetricsSnapshot snapshot = Registry::Global().Snapshot();
  JsonValue root = JsonValue::Object();
  root.Set("schema", JsonValue::String("rq-obs/2"));

  JsonValue counters = JsonValue::Array();
  for (const CounterSample& sample : snapshot.counters) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(sample.name));
    entry.Set("value", JsonValue::Number(sample.value));
    counters.Append(std::move(entry));
  }
  root.Set("counters", std::move(counters));

  JsonValue gauges = JsonValue::Array();
  for (const GaugeSample& sample : snapshot.gauges) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(sample.name));
    entry.Set("value", JsonValue::Number(sample.value));
    entry.Set("peak", JsonValue::Number(sample.peak));
    gauges.Append(std::move(entry));
  }
  root.Set("gauges", std::move(gauges));

  JsonValue histograms = JsonValue::Array();
  for (const HistogramSample& sample : snapshot.histograms) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(sample.name));
    entry.Set("count", JsonValue::Number(sample.count));
    entry.Set("sum", JsonValue::Number(sample.sum));
    entry.Set("max", JsonValue::Number(sample.max));
    entry.Set("p50", JsonValue::Number(
                         Histogram::QuantileFromBuckets(sample.buckets, 0.50)));
    entry.Set("p90", JsonValue::Number(
                         Histogram::QuantileFromBuckets(sample.buckets, 0.90)));
    entry.Set("p99", JsonValue::Number(
                         Histogram::QuantileFromBuckets(sample.buckets, 0.99)));
    histograms.Append(std::move(entry));
  }
  root.Set("histograms", std::move(histograms));

  JsonValue span_stats = JsonValue::Array();
  for (const SpanStats& stats : CollectSpanStats()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(stats.name));
    entry.Set("count", JsonValue::Number(stats.count));
    entry.Set("total_ns", JsonValue::Number(stats.total_ns));
    entry.Set("p50_ns", JsonValue::Number(stats.p50_ns));
    entry.Set("p90_ns", JsonValue::Number(stats.p90_ns));
    entry.Set("p99_ns", JsonValue::Number(stats.p99_ns));
    entry.Set("max_ns", JsonValue::Number(stats.max_ns));
    span_stats.Append(std::move(entry));
  }
  root.Set("span_stats", std::move(span_stats));

  if (CurrentTraceMode() == TraceMode::kFull) {
    JsonValue spans = JsonValue::Array();
    for (const SpanRecord& record : CollectSpanRecords()) {
      JsonValue entry = JsonValue::Object();
      entry.Set("name", JsonValue::String(record.name));
      entry.Set("start_ns", JsonValue::Number(record.start_ns));
      entry.Set("duration_ns", JsonValue::Number(record.duration_ns));
      entry.Set("depth", JsonValue::Number(static_cast<uint64_t>(record.depth)));
      entry.Set("parent", JsonValue::Number(static_cast<int64_t>(record.parent)));
      entry.Set("tid", JsonValue::Number(static_cast<uint64_t>(record.tid)));
      JsonValue attrs = JsonValue::Object();
      for (const auto& [key, value] : record.attrs) {
        attrs.Set(key, JsonValue::Number(value));
      }
      entry.Set("attrs", std::move(attrs));
      spans.Append(std::move(entry));
    }
    root.Set("spans", std::move(spans));
  }
  root.Set("dropped_spans", JsonValue::Number(DroppedSpanRecords()));
  return root;
}

std::string SnapshotJsonString() { return SnapshotJson().Dump(2); }

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InvalidArgumentError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  // A small output sits in the stdio buffer until fclose flushes it, so
  // fclose is where a full device or I/O error shows up.
  bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    return InternalError("failed to write " + path);
  }
  return Status::Ok();
}

Status WriteSnapshotJsonFile(const std::string& path) {
  return WriteTextFile(path, SnapshotJsonString());
}

void PrintSpanTree(std::FILE* out) {
  if (CurrentTraceMode() == TraceMode::kFull) {
    std::vector<SpanRecord> records = CollectSpanRecords();
    if (records.empty()) {
      std::fprintf(out, "(no spans recorded)\n");
    }
    // Multi-threaded traces prefix each row with its lane so interleaved
    // worker spans stay attributable (full lane view: --chrome-trace).
    bool multi_thread = false;
    for (const SpanRecord& record : records) {
      if (record.tid != 0) multi_thread = true;
    }
    for (const SpanRecord& record : records) {
      if (multi_thread) std::fprintf(out, "[t%" PRIu32 "] ", record.tid);
      std::fprintf(out, "%*s%s  %.3f ms", 2 * record.depth, "",
                   record.name.c_str(),
                   static_cast<double>(record.duration_ns) / 1e6);
      for (const auto& [key, value] : record.attrs) {
        std::fprintf(out, "  %s=%" PRIu64, key.c_str(), value);
      }
      std::fprintf(out, "\n");
    }
    uint64_t dropped = DroppedSpanRecords();
    if (dropped > 0) {
      std::fprintf(out,
                   "(%" PRIu64
                   " spans dropped beyond the record cap; counter "
                   "obs.dropped_spans)\n",
                   dropped);
    }
  } else {
    for (const SpanStats& stats : CollectSpanStats()) {
      std::fprintf(out,
                   "%s  count=%" PRIu64 "  total=%.3f ms  p50=%.3f ms  "
                   "p99=%.3f ms  max=%.3f ms\n",
                   stats.name.c_str(), stats.count,
                   static_cast<double>(stats.total_ns) / 1e6,
                   static_cast<double>(stats.p50_ns) / 1e6,
                   static_cast<double>(stats.p99_ns) / 1e6,
                   static_cast<double>(stats.max_ns) / 1e6);
    }
  }
  const MetricsSnapshot snapshot = Registry::Global().Snapshot();
  std::fprintf(out, "counters:\n");
  for (const CounterSample& sample : snapshot.counters) {
    if (sample.value == 0) continue;
    std::fprintf(out, "  %s = %" PRIu64 "\n", sample.name.c_str(),
                 sample.value);
  }
  bool gauge_header = false;
  for (const GaugeSample& sample : snapshot.gauges) {
    if (sample.value == 0 && sample.peak == 0) continue;
    if (!gauge_header) {
      std::fprintf(out, "gauges:\n");
      gauge_header = true;
    }
    std::fprintf(out, "  %s = %" PRId64 " (peak %" PRId64 ")\n",
                 sample.name.c_str(), sample.value, sample.peak);
  }
  bool histogram_header = false;
  for (const HistogramSample& sample : snapshot.histograms) {
    if (sample.count == 0) continue;
    if (!histogram_header) {
      std::fprintf(out, "histograms:\n");
      histogram_header = true;
    }
    std::fprintf(out,
                 "  %s  count=%" PRIu64 "  p50=%" PRIu64 "  p90=%" PRIu64
                 "  p99=%" PRIu64 "  max=%" PRIu64 "\n",
                 sample.name.c_str(), sample.count,
                 Histogram::QuantileFromBuckets(sample.buckets, 0.50),
                 Histogram::QuantileFromBuckets(sample.buckets, 0.90),
                 Histogram::QuantileFromBuckets(sample.buckets, 0.99),
                 sample.max);
  }
}

}  // namespace obs
}  // namespace rq

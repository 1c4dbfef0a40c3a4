#include "obs/prometheus.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>

#include "obs/counters.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/mem_stats.h"
#include "obs/subsystems.h"

namespace rq {
namespace obs {

namespace {

void AppendLine(std::string* out, const std::string& name,
                const char* suffix, const std::string& labels,
                uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  *out += name;
  *out += suffix;
  *out += labels;
  *out += ' ';
  *out += buf;
  *out += '\n';
}

void AppendType(std::string* out, const std::string& name,
                const char* type) {
  *out += "# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

// HELP precedes TYPE per convention; `help` is escaped here so callers
// pass raw strings (dotted registry names, descriptions).
void AppendHelp(std::string* out, const std::string& name,
                std::string_view help) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += PrometheusEscapeHelp(help);
  *out += '\n';
}

}  // namespace

std::string PrometheusMetricName(std::string_view name) {
  std::string out = "rq_";
  out.reserve(name.size() + 3);
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string PrometheusEscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PrometheusEscapeHelp(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderPrometheusText() {
  // Refresh the OS view so every scrape carries a current RSS sample next
  // to the self-reported mem.* accounting (obs/mem_stats.h).
  SampleRssGauge();
  RegisterSubsystemMetrics();
  const MetricsSnapshot snapshot = Registry::Global().Snapshot();
  std::string out;

  // The flight recorder's ticket total is not a registry counter (it lives
  // in the recorder); surface it here so scrapes see ring pressure next to
  // the obs.flight_dropped counter.
  AppendHelp(&out, "rq_flight_recorded_total",
             "total queries recorded by the flight recorder ring");
  AppendType(&out, "rq_flight_recorded_total", "counter");
  AppendLine(&out, "rq_flight_recorded_total", "", "",
             FlightRecorder::Global().TotalRecorded());

  // Query identity: the CLI's raw query text as a label on a constant-1
  // info gauge. The label value is arbitrary user input — escaping is what
  // keeps one backslash in a regex from corrupting the whole exposition.
  if (std::string label = FlightRecorder::Global().QueryLabel();
      !label.empty()) {
    AppendHelp(&out, "rq_query_info",
               "query label installed by the CLI (raw query text)");
    AppendType(&out, "rq_query_info", "gauge");
    AppendLine(&out, "rq_query_info", "",
               "{query=\"" + PrometheusEscapeLabelValue(label) + "\"}", 1);
  }

  for (const CounterSample& sample : snapshot.counters) {
    std::string name = PrometheusMetricName(sample.name);
    AppendHelp(&out, name, sample.name);
    AppendType(&out, name, "counter");
    AppendLine(&out, name, "", "", sample.value);
  }

  for (const GaugeSample& sample : snapshot.gauges) {
    std::string name = PrometheusMetricName(sample.name);
    AppendHelp(&out, name, sample.name);
    AppendType(&out, name, "gauge");
    // Gauge levels are int64 but never negative in the rq vocabulary
    // (sizes, depths, byte totals); clamp defensively.
    AppendLine(&out, name, "", "",
               sample.value > 0 ? static_cast<uint64_t>(sample.value) : 0);
    AppendHelp(&out, name + "_peak", sample.name + " (high-water mark)");
    AppendType(&out, name + "_peak", "gauge");
    AppendLine(&out, name + "_peak", "", "",
               sample.peak > 0 ? static_cast<uint64_t>(sample.peak) : 0);
  }

  for (const HistogramSample& sample : snapshot.histograms) {
    std::string name = PrometheusMetricName(sample.name) + "_dist";
    AppendHelp(&out, name, sample.name);
    AppendType(&out, name, "histogram");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (sample.buckets[i] == 0) continue;
      cumulative += sample.buckets[i];
      if (i + 1 >= Histogram::kNumBuckets) break;  // folded into +Inf
      char le[32];
      std::snprintf(le, sizeof(le), "{le=\"%" PRIu64 "\"}",
                    Histogram::BucketLowerBound(i + 1) - 1);
      AppendLine(&out, name, "_bucket", le, cumulative);
    }
    AppendLine(&out, name, "_bucket", "{le=\"+Inf\"}", sample.count);
    AppendLine(&out, name, "_sum", "", sample.sum);
    AppendLine(&out, name, "_count", "", sample.count);
  }

  return out;
}

Status WritePrometheusTextFile(const std::string& path) {
  return WriteTextFile(path, RenderPrometheusText());
}

}  // namespace obs
}  // namespace rq

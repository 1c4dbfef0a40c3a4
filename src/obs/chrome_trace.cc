#include "obs/chrome_trace.h"

#include <set>
#include <string>
#include <string_view>

#include "obs/export.h"
#include "obs/mem_stats.h"
#include "obs/trace.h"

namespace rq {
namespace obs {

namespace {

// "fold.construct" -> "fold"; names without a dot are their own category.
std::string CategoryOf(std::string_view name) {
  size_t dot = name.find('.');
  return std::string(dot == std::string_view::npos ? name
                                                   : name.substr(0, dot));
}

JsonValue ThreadNameEvent(uint32_t tid) {
  JsonValue event = JsonValue::Object();
  event.Set("name", JsonValue::String("thread_name"));
  event.Set("ph", JsonValue::String("M"));
  event.Set("pid", JsonValue::Number(uint64_t{1}));
  event.Set("tid", JsonValue::Number(static_cast<uint64_t>(tid)));
  JsonValue args = JsonValue::Object();
  args.Set("name", JsonValue::String(
                       tid == 0 ? "main" : "worker-" + std::to_string(tid)));
  event.Set("args", std::move(args));
  return event;
}

}  // namespace

JsonValue ChromeTraceJson() {
  std::vector<SpanRecord> records = CollectSpanRecords();

  JsonValue events = JsonValue::Array();
  std::set<uint32_t> tids;
  for (const SpanRecord& record : records) tids.insert(record.tid);
  for (uint32_t tid : tids) events.Append(ThreadNameEvent(tid));

  for (const SpanRecord& record : records) {
    JsonValue event = JsonValue::Object();
    event.Set("name", JsonValue::String(record.name));
    event.Set("cat", JsonValue::String(CategoryOf(record.name)));
    event.Set("ph", JsonValue::String("X"));
    // Trace-event timestamps are microseconds; doubles keep sub-µs detail.
    event.Set("ts",
              JsonValue::Number(static_cast<double>(record.start_ns) / 1e3));
    event.Set("dur", JsonValue::Number(
                         static_cast<double>(record.duration_ns) / 1e3));
    event.Set("pid", JsonValue::Number(uint64_t{1}));
    event.Set("tid", JsonValue::Number(static_cast<uint64_t>(record.tid)));
    if (!record.attrs.empty()) {
      JsonValue args = JsonValue::Object();
      for (const auto& [key, value] : record.attrs) {
        args.Set(key, JsonValue::Number(value));
      }
      event.Set("args", std::move(args));
    }
    events.Append(std::move(event));
  }

  // Memory counter ("C") events: one stacked-area lane of live bytes per
  // subsystem, sampled by the charging hook (obs/mem_stats.h). Timeline
  // timestamps are absolute; span timestamps are session-relative, so
  // rebase on the session start and drop pre-session samples.
  uint64_t session_start = TraceSessionStartNs();
  for (const MemTimelineSample& sample : CollectMemTimeline()) {
    if (sample.ts_ns < session_start) continue;
    JsonValue event = JsonValue::Object();
    event.Set("name", JsonValue::String("mem.tracked_bytes"));
    event.Set("cat", JsonValue::String("mem"));
    event.Set("ph", JsonValue::String("C"));
    event.Set("ts", JsonValue::Number(
                        static_cast<double>(sample.ts_ns - session_start) /
                        1e3));
    event.Set("pid", JsonValue::Number(uint64_t{1}));
    JsonValue args = JsonValue::Object();
    for (int i = 0; i < kMemSubsystemCount; ++i) {
      args.Set(MemSubsystemName(static_cast<MemSubsystem>(i)),
               JsonValue::Number(static_cast<double>(
                   sample.bytes[static_cast<size_t>(i)])));
    }
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }

  JsonValue root = JsonValue::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", JsonValue::String("ns"));
  return root;
}

Status WriteChromeTraceFile(const std::string& path) {
  return WriteTextFile(path, ChromeTraceJson().Dump(1) + "\n");
}

}  // namespace obs
}  // namespace rq

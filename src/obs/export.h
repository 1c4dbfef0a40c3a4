// JSON export of the observability state (schema "rq-obs/2"), the
// human-readable span tree used by `rqcheck --trace` / `rqeval --trace`,
// and the file writer every exporter shares. The counters, gauges and
// histograms sections come from one registry snapshot (obs/counters.h).
//
// Snapshot schema (stable; see docs/OBSERVABILITY.md):
//
//   {
//     "schema": "rq-obs/2",
//     "counters":   [ {"name": "...", "value": N}, ... ],          // sorted
//     "gauges":     [ {"name": "...", "value": N, "peak": N}, ... ],
//     "histograms": [ {"name": "...", "count": N, "sum": N, "max": N,
//                      "p50": N, "p90": N, "p99": N}, ... ],
//     "span_stats": [ {"name": "...", "count": N, "total_ns": N,
//                      "p50_ns": N, "p90_ns": N, "p99_ns": N,
//                      "max_ns": N}, ... ],                        // sorted
//     "spans": [ {"name": "...", "start_ns": N, "duration_ns": N,
//                 "depth": N, "parent": I,                       // -1 = root
//                 "tid": N,                  // per-session thread id
//                 "attrs": {"key": N, ...}}, ... ],              // start order
//     "dropped_spans": N
//   }
//
// "spans" is present only when full tracing was on; "span_stats" covers
// both enabled modes. One JSON object per snapshot; arrays hold one entry
// per counter / gauge / histogram / span. Schema history: "rq-obs/1" had
// no gauges/histograms sections, no span-stats quantiles, and no tid.
#ifndef RQ_OBS_EXPORT_H_
#define RQ_OBS_EXPORT_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/json.h"

namespace rq {
namespace obs {

// The full observability snapshot as a JSON document.
JsonValue SnapshotJson();

// Serialized snapshot (pretty-printed, trailing newline).
std::string SnapshotJsonString();

// Writes `text` to `path` (overwrites). Fails if the file cannot be
// opened, written or closed, so an error that only surfaces when the
// buffered output is flushed is still reported.
Status WriteTextFile(const std::string& path, std::string_view text);

// Writes the snapshot to `path` via WriteTextFile.
Status WriteSnapshotJsonFile(const std::string& path);

// Prints the recorded spans as an indented tree with durations and attrs,
// followed by the non-zero counters, gauges, and histograms. Requires full
// tracing; in aggregate mode prints per-name totals and quantiles instead.
void PrintSpanTree(std::FILE* out);

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_EXPORT_H_

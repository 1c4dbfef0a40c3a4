// Chrome trace-event JSON export of full-mode spans, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// The export is the "JSON Object Format" of the Trace Event spec: a root
// object whose "traceEvents" array holds one complete event ("ph": "X")
// per recorded span — name, category (the `<subsystem>` prefix of the
// span name), microsecond start/duration, and the span's numeric attrs as
// "args" — plus one metadata event ("ph": "M", "thread_name") per thread
// that recorded spans. Threads map 1:1 onto trace lanes: the first
// recording thread (tid 0) is named "main", later ones "worker-<tid>", so
// a --jobs N batch run renders as one lane per worker.
//
// Requires full tracing (TraceMode::kFull); with no recorded spans the
// export is a valid trace with an empty traceEvents array. Surfaced as
// `rqcheck --chrome-trace <path>`, `rqeval --chrome-trace <path>`, and
// the bench harness's `--chrome-trace <path>`.
#ifndef RQ_OBS_CHROME_TRACE_H_
#define RQ_OBS_CHROME_TRACE_H_

#include <string>

#include "common/status.h"
#include "obs/json.h"

namespace rq {
namespace obs {

// The recorded spans as a Chrome trace-event JSON document.
JsonValue ChromeTraceJson();

// Writes ChromeTraceJson() to `path` via WriteTextFile (obs/export.h).
Status WriteChromeTraceFile(const std::string& path);

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_CHROME_TRACE_H_

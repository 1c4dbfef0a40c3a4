// Wire protocol of the long-lived query service (docs/SERVING.md).
//
// Transport: length-prefixed JSON over a byte stream. Each frame is a
// 4-byte big-endian payload length followed by that many bytes of UTF-8
// JSON. Requests and responses use the same framing; a client may pipeline
// (responses carry the request's `id` echoed verbatim, and MAY come back
// out of order — the worker pool completes cheap requests past expensive
// ones).
//
// Request object:
//   {"type": "containment" | "equivalence" | "eval" | "update" | "stats"
//            | "health" | "sleep",
//    "id": <any JSON value, echoed>,                        // optional
//    "class": "...",             // containment: rpq|2rpq|cq|ucq|uc2rpq|
//                                //              rq|datalog
//                                // equivalence: rpq|2rpq|rq
//                                // eval:        path|crpq|rq|datalog
//    "q1": "...", "q2": "...",   // containment / equivalence query texts
//    "query": "...",             // eval query text
//    "graph": "...",             // eval: inline edge-list text (optional;
//                                // defaults to the server's --graph)
//    "timeout_ms": N,            // optional; clipped to the server cap
//    "memory_budget_mb": N,      // optional; clipped to the server cap
//    "max_tuples": N,            // eval: answer-set cap (default 10000)
//    "ops": [...],               // update: batched mutations (below)
//    "sleep_ms": N}              // sleep only (test/bench endpoint)
//
// Update ops mutate the server's live graph (docs/SERVING.md "Updates");
// each element of "ops" is one of
//   {"op": "add_node", "name": "..."}            // name optional
//   {"op": "add_edge", "src": "...", "label": "...", "dst": "..."}
// applied in order as ONE batch: the whole batch publishes one new graph
// epoch, and the response carries {"epoch": E, "nodes_added": N,
// "edges_added": M, "closure_pairs": P}. Node names are interned on first
// use (an add_edge implies its endpoints). Updates are answered by the
// connection's reader thread in arrival order, so a client that pipelines
// an update and then an eval on the same connection reads its own write.
//
// Response object: {"id": ..., "ok": true, ...result fields...} or
// {"id": ..., "ok": false, "error": "<code>", "message": "..."} with codes
// invalid_request | overloaded | draining | deadline_exceeded |
// resource_exhausted | cancelled | unimplemented | internal. `overloaded`
// is the 429-style admission-control rejection (docs/SERVING.md).
//
// The same listener also answers plain HTTP GETs (a connection whose first
// bytes are "GET " is served as HTTP/1.0 and closed): /metrics returns the
// Prometheus exposition (obs/prometheus.h), /healthz a one-line liveness
// body. Framed and HTTP traffic share the port so the exporter is
// scrapeable without a sidecar.
#ifndef RQ_SERVER_PROTOCOL_H_
#define RQ_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace rq {
namespace server {

// Upper bound on a single frame's payload; a peer announcing more is a
// protocol error (the connection is closed, not the process OOM'd).
inline constexpr size_t kMaxFrameBytes = 16u << 20;

// Writes one length-prefixed frame (blocking; handles partial writes and
// EINTR; never raises SIGPIPE). `fd` must be a socket.
Status WriteFrame(int fd, std::string_view payload);

// Writes raw bytes with the same blocking/retry semantics but no length
// prefix (the server's HTTP responses).
Status WriteRaw(int fd, std::string_view bytes);

// Reads one length-prefixed frame into `*payload` (blocking). On a clean
// peer close before any header byte, returns OK with *clean_eof = true and
// an empty payload; EOF mid-frame and oversized announcements are errors.
// The payload grows only as its bytes arrive, so a header alone never
// makes the reader allocate up to the announced length, and a buffer that
// an earlier frame grew past one read chunk is released first, so a
// connection holds a big frame's memory only while reading it.
Status ReadFrame(int fd, std::string* payload, bool* clean_eof,
                 size_t max_frame_bytes = kMaxFrameBytes);

enum class RequestType {
  kContainment,
  kEquivalence,
  kEval,
  kUpdate,
  kStats,
  kHealth,
  kSleep,
};
const char* RequestTypeName(RequestType type);

// One decoded graph mutation within an update batch.
struct UpdateOp {
  enum class Kind { kAddNode, kAddEdge };
  Kind kind = Kind::kAddNode;
  std::string name;   // add_node; empty = anonymous node
  std::string src;    // add_edge endpoints and label (named; interned on
  std::string label;  // first use)
  std::string dst;
};

// A decoded request frame. String fields are empty when absent; numeric
// fields 0 (= "use the server default").
struct Request {
  RequestType type = RequestType::kHealth;
  obs::JsonValue id;          // echoed verbatim; null when absent
  std::string cls;
  std::string q1;
  std::string q2;
  std::string query;
  std::string graph;
  std::vector<UpdateOp> ops;  // update batches
  int64_t timeout_ms = 0;
  int64_t memory_budget_mb = 0;
  int64_t max_tuples = 0;
  int64_t sleep_ms = 0;
};

// Strict decode of one request frame: unknown `type` values, non-string
// query fields, and negative numeric fields are kInvalidArgument.
Result<Request> ParseRequest(std::string_view text);

// The wire error code for a non-OK library Status.
const char* ErrorCodeForStatus(const Status& status);

// Response skeletons; handlers add result fields to the OK one.
obs::JsonValue OkResponse(const obs::JsonValue& id);
obs::JsonValue ErrorResponse(const obs::JsonValue& id, std::string_view code,
                             std::string_view message);

}  // namespace server
}  // namespace rq

#endif  // RQ_SERVER_PROTOCOL_H_

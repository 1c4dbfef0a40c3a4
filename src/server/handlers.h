// Request execution for the query service: hands one decoded protocol
// Request to the query front door (query/query.h), which holds the class
// table, and renders the response document. Around eval it keeps what
// only a server has: the pinned view, the epoch-keyed answer cache and the
// maintained closures. Handlers run on server worker threads with the
// per-request ExecContext already installed (server.cc), so deadline and
// budget trips surface here as non-OK Statuses and become
// `deadline_exceeded` / `resource_exhausted` wire errors.
#ifndef RQ_SERVER_HANDLERS_H_
#define RQ_SERVER_HANDLERS_H_

#include <memory>
#include <optional>

#include "graph/graph_db.h"
#include "graph/snapshot.h"
#include "obs/json.h"
#include "relational/relation.h"
#include "server/graph_store.h"
#include "server/protocol.h"

namespace rq {
namespace server {

// Per-request execution state. `view` is the graph version the request was
// pinned to at ADMISSION (server/graph_store.h): every component is shared
// and immutable once published (the relational image is built once, on
// first use), so any number of workers evaluate concurrently against their
// own pinned versions while update batches publish newer ones. Per-request
// query parsing interns symbols into a COPY of the view's alphabet, so
// symbol interning never mutates shared state.
struct HandlerContext {
  // Pinned graph version for evals without an inline graph;
  // view.has_graph() is false when the server has no graph yet.
  GraphView view;
  // Epoch-keyed eval cache + closure seeding; null outside a server (e.g.
  // direct ExecuteRequest calls in tests) disables both.
  GraphStore* store = nullptr;
  // Gate for the `sleep` request type (a test/bench endpoint that holds a
  // worker for sleep_ms while polling the installed contexts). Off in
  // production so clients cannot park workers at will.
  bool enable_sleep = false;
};

// Default / hard cap applied to eval answer sets when the request does not
// set max_tuples (the full answer can be |V|^2 tuples; a serving process
// must bound its response frames).
inline constexpr int64_t kDefaultMaxTuples = 10000;

// Executes containment / equivalence / eval / sleep requests and returns
// the complete response document (never throws; failures come back as
// {"ok": false} responses). Health, stats and update are answered by the
// server's reader thread — passing one here is an internal error
// response.
obs::JsonValue ExecuteRequest(const Request& request,
                              const HandlerContext& ctx);

}  // namespace server
}  // namespace rq

#endif  // RQ_SERVER_HANDLERS_H_

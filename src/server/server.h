// The long-lived concurrent query service (docs/SERVING.md).
//
// QueryServer listens on one TCP port and speaks the length-prefixed JSON
// protocol (server/protocol.h); the same listener answers plain HTTP GETs
// for /metrics (Prometheus exposition) and /healthz. Threading model:
//
//   * one accept thread (poll on the listen fd plus a wake pipe, so
//     BeginDrain interrupts a blocked accept);
//   * one reader thread per connection, which decodes frames, answers
//     health inline, applies `update` batches against the versioned graph
//     store (server/graph_store.h — serialized by the store's writer
//     mutex, and ordered with this connection's later requests, so a
//     pipelined update-then-eval reads its own write), and runs ADMISSION
//     CONTROL: a request is either enqueued on the bounded worker queue —
//     pinning the graph version it will evaluate against — or shed with
//     an `overloaded` response; the queue never grows past
//     max_queue_depth and new work is refused while in-flight request
//     memory exceeds max_inflight_bytes, so overload degrades into fast
//     rejections instead of unbounded buffering;
//   * `workers` worker threads popping the queue, each bound to its own
//     slice of the process's CPUs (WorkerCpuSlice) unless intra-query
//     pools are on (DefaultParallelJobs() > 1, rqserved --jobs). Each
//     request runs under one fresh
//     ExecContext whose deadline and byte budget derive from the
//     request's timeout_ms / memory_budget_mb clipped to the server caps;
//     request contexts chain their pots to one server-wide pot, which is
//     what the in-flight byte threshold reads. The containment/eval
//     handlers run through the query front door (query/query.h), whose
//     checks run under the request's context and share the automata
//     cache, so the cache stays warm across requests.
//
// Graceful drain (SIGTERM in rqserved): BeginDrain() stops accepting,
// requests already queued or running complete and their responses are
// written, later frames on live connections get `draining` responses, and
// Wait() returns once the workers have emptied the queue and every
// connection is torn down (flushing the flight-recorder dump if
// configured). All server.* counters/gauges/histograms are documented in
// docs/OBSERVABILITY.md.
#ifndef RQ_SERVER_SERVER_H_
#define RQ_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "graph/graph_db.h"
#include "relational/relation.h"
#include "server/graph_store.h"
#include "server/handlers.h"
#include "server/protocol.h"

namespace rq {
namespace server {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  // 0 = pick an ephemeral port; read it back with port() after Start().
  uint16_t port = 0;
  unsigned workers = 4;

  // Admission control: shed (respond `overloaded`) instead of queueing
  // once this many requests await a worker, refuse new connections past
  // max_connections, and shed new requests while the server-wide memory
  // pot of in-flight requests exceeds max_inflight_bytes (0 = no byte
  // threshold).
  size_t max_queue_depth = 128;
  size_t max_connections = 1024;
  uint64_t max_inflight_bytes = 0;

  // Per-request resource defaults and caps. A request's own timeout_ms /
  // memory_budget_mb is clipped to the max; 0 defaults mean unlimited.
  int64_t default_timeout_ms = 0;
  int64_t max_timeout_ms = 0;
  int64_t default_memory_budget_mb = 0;
  int64_t max_memory_budget_mb = 0;

  // Preloaded graph for eval requests without an inline graph. COPIED into
  // the versioned graph store at Start() (epoch 1); the server never reads
  // it afterwards, and `update` requests mutate the store's copy only.
  const GraphDb* graph = nullptr;

  // Live mutation knobs (server/graph_store.h, docs/SERVING.md "Updates").
  // enable_updates=false answers every `update` with invalid_request
  // (rqserved --read-only); the delta budget bounds each insert's
  // incremental closure product before falling back to re-evaluation; the
  // cache bytes bound the epoch-keyed eval answer cache (0 disables it).
  bool enable_updates = true;
  size_t incr_delta_budget = 1u << 20;
  size_t eval_cache_bytes = 8u << 20;

  // Gate for the `sleep` request type (tests/bench only).
  bool enable_sleep = false;

  // When non-empty, Wait() flushes the flight recorder's ring of completed
  // queries here as part of the drain.
  std::string flight_dump_path;
};

// The CPUs request worker `worker` of `workers` runs on: `allowed` (the
// process's CPUs, ascending) cut into min(workers, allowed.size())
// contiguous slices of near-equal size, worker i taking slice i mod that
// count. Empty when there is at most one slice: nothing to bind.
std::vector<int> WorkerCpuSlice(const std::vector<int>& allowed,
                                unsigned worker, unsigned workers);

class QueryServer {
 public:
  explicit QueryServer(ServerOptions options);
  ~QueryServer();  // hard-stops (drain + cancel in-flight) if still running

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds, listens, and spawns the accept/worker threads. Fails (and
  // leaves the server stopped) if the address cannot be bound.
  Status Start();

  // The bound port (resolves ephemeral requests); 0 before Start().
  uint16_t port() const { return port_; }

  bool serving() const { return state_.load() == State::kServing; }
  bool draining() const { return state_.load() == State::kDraining; }

  // Graceful shutdown: stop accepting, let queued and running requests
  // complete, answer later frames with `draining`. Idempotent; returns
  // immediately (Wait() blocks for completion).
  void BeginDrain();

  // Blocks until the drain completes and every thread is joined.
  void Wait();
  void DrainAndWait();

  // Like DrainAndWait but also cancels in-flight requests (their
  // responses report `cancelled`). Used by the destructor.
  void Stop();

  // Introspection for tests and the health endpoint.
  size_t active_connections() const;
  size_t queue_depth() const;
  size_t inflight_requests() const { return inflight_.load(); }
  uint64_t inflight_bytes() const { return server_pot_.total_bytes(); }
  // The versioned graph store backing eval/update requests.
  GraphStore& graph_store() { return store_; }
  uint64_t graph_epoch() const { return store_.epoch(); }

 private:
  enum class State { kIdle, kServing, kDraining, kStopped };

  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> closed{false};
    ~Connection();
  };
  using ConnPtr = std::shared_ptr<Connection>;

  struct Job {
    ConnPtr conn;
    Request request;
    // Graph version pinned at ADMISSION: the request evaluates against
    // this view no matter how many update batches publish before a worker
    // picks it up (docs/SERVING.md "Updates").
    GraphView view;
    uint64_t enqueue_ns = 0;
  };

  void AcceptLoop();
  void ConnectionLoop(ConnPtr conn, uint64_t conn_id);
  void ServeHttp(const ConnPtr& conn);
  void HandleFrames(const ConnPtr& conn);
  void WorkerLoop();
  // The resource envelope of one request: its timeout_ms /
  // memory_budget_mb clipped to the server caps, the server's cancel token,
  // and a pot chained to server_pot_.
  ExecContext RequestContext(const Request& request);
  void ExecuteJob(Job& job);
  // Applies one update batch against the graph store (on the connection
  // reader thread, so per-connection pipelining reads its own writes).
  obs::JsonValue ExecuteUpdate(const Request& request);
  void WriteResponse(const ConnPtr& conn, const obs::JsonValue& response);
  obs::JsonValue HealthResponse(const obs::JsonValue& id);
  // Joins reader threads whose connections have closed (called from the
  // accept loop and from Wait).
  void ReapFinishedConnections();

  ServerOptions options_;
  GraphStore store_;

  std::atomic<State> state_{State::kIdle};
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;

  // Never installed: every in-flight request's context chains its pot to
  // this one, whose total is the admission controller's in-flight byte
  // signal.
  ExecContext server_pot_;
  // Tripped by Stop() so in-flight requests unwind promptly.
  CancelToken cancel_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  std::atomic<size_t> inflight_{0};

  mutable std::mutex conns_mu_;
  std::unordered_map<uint64_t, ConnPtr> conns_;
  std::unordered_map<uint64_t, std::thread> conn_threads_;
  std::vector<uint64_t> finished_conn_ids_;
  uint64_t next_conn_id_ = 0;

  std::mutex lifecycle_mu_;  // serializes Wait() against itself
  bool joined_ = false;
};

}  // namespace server
}  // namespace rq

#endif  // RQ_SERVER_SERVER_H_

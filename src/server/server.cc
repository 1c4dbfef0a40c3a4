#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/clock.h"
#include "common/parallel.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/prometheus.h"
#include "obs/subsystems.h"

namespace rq {
namespace server {

namespace {

// Clips an optional request value to an optional server cap; 0 = unset on
// both sides.
int64_t ClipToCap(int64_t requested, int64_t fallback, int64_t cap) {
  int64_t value = requested > 0 ? requested : fallback;
  if (cap > 0) value = value > 0 ? std::min(value, cap) : cap;
  return value;
}

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// The CPUs the calling thread may run on, ascending; empty where there is
// no affinity call.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
#endif
  return cpus;
}

// Restricts the calling thread to `cpus`; best effort, and nothing for an
// empty list.
void BindCurrentThread(const std::vector<int>& cpus) {
#ifdef __linux__
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
#else
  (void)cpus;
#endif
}

}  // namespace

std::vector<int> WorkerCpuSlice(const std::vector<int>& allowed,
                                unsigned worker, unsigned workers) {
  const size_t slices = std::min<size_t>(workers, allowed.size());
  if (slices <= 1) return {};
  // The k-th of n CPUs falls in slice k * slices / n.
  const size_t slice = worker % slices;
  std::vector<int> cpus;
  for (size_t k = 0; k < allowed.size(); ++k) {
    if (k * slices / allowed.size() == slice) cpus.push_back(allowed[k]);
  }
  return cpus;
}

QueryServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

QueryServer::QueryServer(ServerOptions options)
    : options_(std::move(options)),
      store_(GraphStoreOptions{options_.incr_delta_budget,
                               options_.eval_cache_bytes}) {
  if (options_.workers == 0) options_.workers = 1;
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  RQ_CHECK(state_.load() == State::kIdle);

  // Seed the versioned graph store before any worker exists: epoch 1 is a
  // frozen copy of the preloaded graph (CSR snapshot + relational image),
  // shared read-only by every request pinned to it. Update batches publish
  // later epochs; requests keep the version they were admitted against.
  if (options_.graph != nullptr) {
    store_.Load(*options_.graph);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(std::string("socket: ") + ::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseFd(listen_fd_);
    return InvalidArgumentError("bad bind address '" + options_.bind_address +
                                "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = InternalError(std::string("bind ") +
                                  options_.bind_address + ": " +
                                  ::strerror(errno));
    CloseFd(listen_fd_);
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status status = InternalError(std::string("listen: ") + ::strerror(errno));
    CloseFd(listen_fd_);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  if (::pipe(wake_pipe_) < 0) {
    Status status = InternalError(std::string("pipe: ") + ::strerror(errno));
    CloseFd(listen_fd_);
    return status;
  }

  state_.store(State::kServing);
  workers_.reserve(options_.workers);
  // Each worker runs on its own slice of the CPUs. Left free, the two
  // workers of a two-worker server serving sub-millisecond requests were
  // stacked on one CPU for seconds at a time, each waiting on the run
  // queue as long as it ran, while the other CPUs idled (4-vCPU VM). An
  // intra-query pool (--jobs > 1) would inherit its worker's slice, so
  // workers stay free then.
  const std::vector<int> allowed =
      DefaultParallelJobs() <= 1 ? AllowedCpus() : std::vector<int>{};
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(
        [this, cpus = WorkerCpuSlice(allowed, i, options_.workers)] {
          BindCurrentThread(cpus);
          WorkerLoop();
        });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void QueryServer::BeginDrain() {
  State expected = State::kServing;
  if (!state_.compare_exchange_strong(expected, State::kDraining)) return;
  // Wake the accept loop's poll and any idle workers so both observe the
  // state change.
  char byte = 1;
  ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  (void)ignored;
  queue_cv_.notify_all();
}

void QueryServer::Wait() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (joined_) return;
  if (state_.load() == State::kIdle) {
    joined_ = true;
    state_.store(State::kStopped);
    return;
  }

  if (accept_thread_.joinable()) accept_thread_.join();
  // Workers exit once the queue is empty under drain, which (readers shed
  // new work during drain) means every admitted request has completed and
  // its response been written.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // In-flight work is done: unblock every reader still parked in recv and
  // join the connection threads.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      conn->closed.store(true);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::unordered_map<uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    threads.swap(conn_threads_);
  }
  for (auto& [id, thread] : threads) {
    if (thread.joinable()) thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
    finished_conn_ids_.clear();
  }
  CloseFd(wake_pipe_[0]);
  CloseFd(wake_pipe_[1]);

  if (!options_.flight_dump_path.empty()) {
    obs::WriteFlightDump(options_.flight_dump_path);  // best-effort flush
  }
  obs::ServerCounters::Get().drained.Increment();
  state_.store(State::kStopped);
  joined_ = true;
}

void QueryServer::DrainAndWait() {
  BeginDrain();
  Wait();
}

void QueryServer::Stop() {
  BeginDrain();
  cancel_.Cancel();
  Wait();
}

size_t QueryServer::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

size_t QueryServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void QueryServer::ReapFinishedConnections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (uint64_t id : finished_conn_ids_) {
      auto it = conn_threads_.find(id);
      if (it == conn_threads_.end()) continue;
      finished.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
    finished_conn_ids_.clear();
  }
  for (std::thread& thread : finished) {
    if (thread.joinable()) thread.join();
  }
}

void QueryServer::AcceptLoop() {
  auto& counters = obs::ServerCounters::Get();
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 || state_.load() != State::kServing) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) {
        continue;
      }
      break;
    }
    ReapFinishedConnections();
    if (state_.load() != State::kServing) {
      ::close(fd);  // late connect during drain: refuse
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.size() >= options_.max_connections) {
        counters.shed.Increment();
        ::close(fd);
        continue;
      }
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    counters.connections.Increment();
    counters.active_connections.Add(1);
    std::lock_guard<std::mutex> lock(conns_mu_);
    uint64_t id = next_conn_id_++;
    conns_[id] = conn;
    conn_threads_[id] = std::thread(
        [this, conn, id]() mutable { ConnectionLoop(std::move(conn), id); });
  }
  CloseFd(listen_fd_);
}

void QueryServer::ConnectionLoop(ConnPtr conn, uint64_t conn_id) {
  // The first bytes decide the dialect: "GET " means a plain HTTP scrape
  // (one request, then close), anything else the framed protocol.
  char peek[4];
  ssize_t got;
  do {
    got = ::recv(conn->fd, peek, sizeof(peek), MSG_PEEK | MSG_WAITALL);
  } while (got < 0 && errno == EINTR);
  if (got == static_cast<ssize_t>(sizeof(peek))) {
    if (std::memcmp(peek, "GET ", 4) == 0) {
      ServeHttp(conn);
    } else {
      HandleFrames(conn);
    }
  }
  conn->closed.store(true);
  ::shutdown(conn->fd, SHUT_RDWR);
  obs::ServerCounters::Get().active_connections.Add(-1);
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn_id);
  finished_conn_ids_.push_back(conn_id);
}

void QueryServer::ServeHttp(const ConnPtr& conn) {
  auto& counters = obs::ServerCounters::Get();
  std::string request_text;
  char buffer[1024];
  while (request_text.find("\r\n\r\n") == std::string::npos &&
         request_text.size() < 8192) {
    ssize_t got = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return;
    request_text.append(buffer, static_cast<size_t>(got));
  }
  size_t path_start = request_text.find(' ');
  size_t path_end = path_start == std::string::npos
                        ? std::string::npos
                        : request_text.find(' ', path_start + 1);
  if (path_end == std::string::npos) return;
  std::string path =
      request_text.substr(path_start + 1, path_end - path_start - 1);

  std::string status_line = "200 OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (path == "/metrics") {
    counters.metrics_scrapes.Increment();
    body = obs::RenderPrometheusText();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/healthz") {
    body = draining() ? "draining\n" : "ok\n";
  } else {
    status_line = "404 Not Found";
    body = "not found\n";
  }
  std::string response = "HTTP/1.0 " + status_line +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  WriteRaw(conn->fd, response);
}

obs::JsonValue QueryServer::HealthResponse(const obs::JsonValue& id) {
  obs::JsonValue response = OkResponse(id);
  const char* state = "serving";
  switch (state_.load()) {
    case State::kIdle:
      state = "idle";
      break;
    case State::kServing:
      state = "serving";
      break;
    case State::kDraining:
      state = "draining";
      break;
    case State::kStopped:
      state = "stopped";
      break;
  }
  response.Set("state", obs::JsonValue::String(state));
  response.Set("queue_depth", obs::JsonValue::Number(
                                  static_cast<uint64_t>(queue_depth())));
  response.Set("inflight_requests",
               obs::JsonValue::Number(
                   static_cast<uint64_t>(inflight_.load())));
  response.Set("active_connections",
               obs::JsonValue::Number(
                   static_cast<uint64_t>(active_connections())));
  response.Set("inflight_bytes",
               obs::JsonValue::Number(server_pot_.total_bytes()));
  response.Set("workers", obs::JsonValue::Number(
                              static_cast<uint64_t>(options_.workers)));
  return response;
}

void QueryServer::HandleFrames(const ConnPtr& conn) {
  auto& counters = obs::ServerCounters::Get();
  std::string payload;
  for (;;) {
    bool clean_eof = false;
    Status read_status = ReadFrame(conn->fd, &payload, &clean_eof);
    if (!read_status.ok() || clean_eof) break;
    counters.requests.Increment();

    Result<Request> parsed = ParseRequest(payload);
    if (!parsed.ok()) {
      WriteResponse(conn, ErrorResponse(obs::JsonValue::Null(),
                                        "invalid_request",
                                        parsed.status().message()));
      continue;
    }
    Request request = std::move(parsed).value();

    // Health is answered inline by the reader: a liveness probe must keep
    // working while the queue is saturated or draining.
    if (request.type == RequestType::kHealth) {
      WriteResponse(conn, HealthResponse(request.id));
      continue;
    }
    if (request.type == RequestType::kStats) {
      obs::JsonValue response = OkResponse(request.id);
      response.Set("stats", obs::SnapshotJson());
      WriteResponse(conn, response);
      continue;
    }

    // Updates are applied INLINE by this reader (serialized across
    // connections by the store's writer mutex): a connection's frames are
    // handled in arrival order, so an eval pipelined after an update on
    // the same connection is admitted after the new epoch published and
    // reads its own write. Evals admitted BEFORE this point already
    // pinned their view and are unaffected.
    if (request.type == RequestType::kUpdate) {
      if (state_.load() != State::kServing) {
        WriteResponse(conn, ErrorResponse(request.id, "draining",
                                          "server is draining"));
        continue;
      }
      if (!options_.enable_updates) {
        WriteResponse(conn,
                      ErrorResponse(request.id, "invalid_request",
                                    "updates are disabled (rqserved "
                                    "--read-only)"));
        continue;
      }
      WriteResponse(conn, ExecuteUpdate(request));
      continue;
    }

    // Admission control, under the queue lock so the draining check and
    // the enqueue are atomic with respect to worker shutdown: once a
    // worker has observed (draining && queue empty) and exited, no reader
    // can slip another job in.
    const char* shed_reason = nullptr;
    bool is_draining = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (state_.load() != State::kServing) {
        is_draining = true;
      } else if (queue_.size() >= options_.max_queue_depth) {
        shed_reason = "request queue full";
      } else if (options_.max_inflight_bytes > 0 &&
                 server_pot_.total_bytes() > options_.max_inflight_bytes) {
        shed_reason = "in-flight request memory over threshold";
      } else {
        Job job{conn, std::move(request), GraphView{}, SteadyNowNs()};
        // Pin the graph version at admission: however long the job waits
        // behind later updates, it evaluates against this view.
        if (job.request.type == RequestType::kEval &&
            job.request.graph.empty()) {
          job.view = store_.Acquire();
        }
        queue_.push_back(std::move(job));
        counters.queue_depth.Set(static_cast<int64_t>(queue_.size()));
      }
    }
    if (is_draining) {
      WriteResponse(conn, ErrorResponse(request.id, "draining",
                                        "server is draining"));
      continue;
    }
    if (shed_reason != nullptr) {
      counters.shed.Increment();
      WriteResponse(conn,
                    ErrorResponse(request.id, "overloaded", shed_reason));
      continue;
    }
    queue_cv_.notify_one();
  }
}

void QueryServer::WorkerLoop() {
  auto& counters = obs::ServerCounters::Get();
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || state_.load() != State::kServing;
      });
      if (queue_.empty()) {
        if (state_.load() != State::kServing) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      counters.queue_depth.Set(static_cast<int64_t>(queue_.size()));
    }
    inflight_.fetch_add(1);
    counters.inflight_requests.Add(1);
    counters.queue_wait_ns.Record(SteadyNowNs() - job.enqueue_ns);
    ExecuteJob(job);
    inflight_.fetch_sub(1);
    counters.inflight_requests.Add(-1);
  }
}

ExecContext QueryServer::RequestContext(const Request& request) {
  int64_t timeout_ms =
      ClipToCap(request.timeout_ms, options_.default_timeout_ms,
                options_.max_timeout_ms);
  int64_t budget_mb =
      ClipToCap(request.memory_budget_mb, options_.default_memory_budget_mb,
                options_.max_memory_budget_mb);
  return ExecContext(
      timeout_ms > 0 ? Deadline::AfterMillis(timeout_ms)
                     : Deadline::Infinite(),
      &cancel_,
      budget_mb > 0 ? static_cast<uint64_t>(budget_mb) * 1024 * 1024 : 0,
      &server_pot_);
}

void QueryServer::ExecuteJob(Job& job) {
  auto& counters = obs::ServerCounters::Get();
  uint64_t start_ns = SteadyNowNs();
  obs::JsonValue response;
  ExecContext exec_ctx = RequestContext(job.request);
  {
    ScopedExecContext scoped_exec(&exec_ctx);
    HandlerContext ctx;
    ctx.view = std::move(job.view);
    ctx.store = &store_;
    ctx.enable_sleep = options_.enable_sleep;
    response = ExecuteRequest(job.request, ctx);
  }
  // Same precedence rqcheck's exit codes pin down (docs/ROBUSTNESS.md
  // "Which error wins"): when both the deadline and the byte budget
  // tripped, the request failed for memory.
  const obs::JsonValue* error = response.Find("error");
  if (error != nullptr &&
      error->kind() == obs::JsonValue::Kind::kString &&
      error->string_value() == "deadline_exceeded" && exec_ctx.exceeded()) {
    response = ErrorResponse(job.request.id, "resource_exhausted",
                             "memory budget exceeded (deadline also expired)");
  }
  WriteResponse(job.conn, response);
  counters.request_latency_ns.Record(SteadyNowNs() - start_ns);
}

obs::JsonValue QueryServer::ExecuteUpdate(const Request& request) {
  auto& counters = obs::ServerCounters::Get();
  uint64_t start_ns = SteadyNowNs();
  Result<GraphStore::UpdateResult> applied = [&] {
    // Same resource envelope as worker-side requests: the incremental
    // closure maintenance inside Apply polls this context, and its
    // transient charges land in the server-wide pot.
    ExecContext exec_ctx = RequestContext(request);
    ScopedExecContext scoped_exec(&exec_ctx);
    return store_.Apply(request.ops);
  }();
  obs::JsonValue response;
  if (!applied.ok()) {
    response = ErrorResponse(request.id, ErrorCodeForStatus(applied.status()),
                             applied.status().message());
    response.Set("epoch", obs::JsonValue::Number(store_.epoch()));
  } else {
    response = OkResponse(request.id);
    response.Set("epoch", obs::JsonValue::Number(applied->epoch));
    response.Set("nodes_added",
                 obs::JsonValue::Number(
                     static_cast<uint64_t>(applied->nodes_added)));
    response.Set("edges_added",
                 obs::JsonValue::Number(
                     static_cast<uint64_t>(applied->edges_added)));
    response.Set("closure_pairs",
                 obs::JsonValue::Number(
                     static_cast<uint64_t>(applied->closure_pairs)));
  }
  counters.request_latency_ns.Record(SteadyNowNs() - start_ns);
  return response;
}

void QueryServer::WriteResponse(const ConnPtr& conn,
                                const obs::JsonValue& response) {
  auto& counters = obs::ServerCounters::Get();
  const obs::JsonValue* ok = response.Find("ok");
  if (ok != nullptr && ok->kind() == obs::JsonValue::Kind::kBool &&
      !ok->bool_value()) {
    counters.errors.Increment();
  }
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load()) return;
  if (WriteFrame(conn->fd, response.Dump()).ok()) {
    counters.responses.Increment();
  }
}

}  // namespace server
}  // namespace rq

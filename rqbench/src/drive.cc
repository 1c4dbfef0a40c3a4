#include "drive.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <functional>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "server/client.h"
#include "server/protocol.h"
#include "stats.h"

extern char** environ;

namespace rqbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kHost = "127.0.0.1";
constexpr int kConnections = 2;
// rqserved launches timed for setup_s in each cycle; the last one serves
// the cycle. One launch took 4-10 ms and swung by up to 2x.
constexpr int kLaunchesPerCycle = 4;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One rqserved child process. Stop() (also run by the destructor) sends
// SIGTERM, waits for the graceful drain, and SIGKILLs after a grace period.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  rq::Status Spawn(const std::string& binary, const std::string& graph_file,
                   const std::string& log_file) {
    int out[2];
    if (pipe(out) != 0) return rq::InternalError("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<std::string> args = {binary, "--graph", graph_file,
                                     "--workers", "2"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    stdout_fd_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      return rq::InternalError("cannot spawn " + binary + ": " +
                               std::strerror(rc));
    }
    // "rqserved listening on 127.0.0.1:PORT (workers=2)"
    std::string line;
    char c;
    while (line.size() < 512) {
      ssize_t n = read(stdout_fd_, &c, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return rq::InternalError("rqserved exited before listening");
      if (c == '\n') break;
      line.push_back(c);
    }
    size_t colon = line.rfind(':');
    if (line.rfind("rqserved listening on ", 0) != 0 ||
        colon == std::string::npos) {
      return rq::InternalError("unexpected rqserved banner: " + line);
    }
    port_ = static_cast<uint16_t>(std::strtoul(line.c_str() + colon + 1,
                                               nullptr, 10));
    return rq::Status::Ok();
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      for (int i = 0; i < 1000; ++i) {  // up to 10 s of drain
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
      }
    }
    if (stdout_fd_ >= 0) {
      close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

// A connected socket, closed on destruction.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }

  rq::Status Open(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return rq::InternalError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, kHost, &addr.sin_addr);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return rq::InternalError(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return rq::Status::Ok();
  }

  rq::Status Send(std::string_view frame) {
    return rq::server::WriteFrame(fd_, frame);
  }
  rq::Status Receive(std::string* response) {
    bool eof = false;
    RQ_RETURN_IF_ERROR(rq::server::ReadFrame(fd_, response, &eof));
    if (eof) return rq::InternalError("server closed the connection");
    return rq::Status::Ok();
  }
  // One request frame out, one response frame back.
  rq::Status Call(std::string_view frame, std::string* response) {
    RQ_RETURN_IF_ERROR(Send(frame));
    return Receive(response);
  }

 private:
  int fd_ = -1;
};

// A response kept raw during timing and checked afterwards.
struct Sent {
  uint32_t position = 0;  // index into the order it was claimed from
  uint32_t request = 0;   // index into the request list it came from
  uint64_t seq = 0;       // send order on its connection
  double latency_ms = 0;
  Clock::time_point done;
  bool transport_ok = false;
  bool correct = false;  // set when the answer is checked
  std::string payload;
};

// The next request a connection sends: its position in the order being
// sent and its index into the request list.
struct Claim {
  uint32_t position = 0;
  uint32_t request = 0;
};

// Sends requests on one connection with up to `depth` of them in flight,
// the next as soon as an answer is back, until `next` yields nothing more
// (a closed loop of `depth` clients). Requests carry a per-connection
// sequence number as the id the server echoes, since answers may come back
// out of order. Returns the sent requests in completion order.
using NextRequest = std::function<std::optional<Claim>()>;

std::vector<Sent> Pipeline(Connection& conn,
                           const std::vector<std::string>& frames,
                           size_t depth, const NextRequest& next) {
  std::vector<Sent> sent;
  struct Inflight {
    Claim claim;
    Clock::time_point start;
  };
  std::unordered_map<uint64_t, Inflight> inflight;
  uint64_t seq = 0;
  auto send_next = [&]() {
    std::optional<Claim> claim = next();
    if (!claim.has_value()) return true;
    const std::string& frame = frames[claim->request];
    inflight[seq] = {*claim, Clock::now()};
    return conn.Send("{\"id\":" + std::to_string(seq++) + "," +
                     frame.substr(1))
        .ok();
  };
  for (size_t k = 0; k < depth; ++k) {
    if (!send_next()) return sent;
  }
  while (!inflight.empty()) {
    Sent s;
    s.transport_ok = conn.Receive(&s.payload).ok();
    s.done = Clock::now();
    // Responses open with the echoed id: {"id":N,...
    auto it = inflight.end();
    if (s.transport_ok && s.payload.rfind("{\"id\":", 0) == 0) {
      it = inflight.find(std::strtoull(s.payload.c_str() + 6, nullptr, 10));
    }
    if (it == inflight.end()) {
      s.transport_ok = false;
      sent.push_back(std::move(s));
      return sent;
    }
    s.position = it->second.claim.position;
    s.request = it->second.claim.request;
    s.seq = it->first;
    s.latency_ms = MillisBetween(it->second.start, s.done);
    inflight.erase(it);
    sent.push_back(std::move(s));
    if (!send_next()) return sent;
  }
  return sent;
}

// Every connection runs a Pipeline; the connections claim positions
// [first, last) of `order` in turn. Returns the sent requests per
// connection.
std::vector<std::vector<Sent>> ClosedLoop(
    std::vector<std::unique_ptr<Connection>>& conns,
    const std::vector<std::string>& frames,
    const std::vector<uint32_t>& order, size_t first, size_t last,
    size_t depth) {
  std::atomic<size_t> claimed{first};
  auto next = [&]() -> std::optional<Claim> {
    size_t i = claimed.fetch_add(1);
    if (i >= last) return std::nullopt;
    return Claim{static_cast<uint32_t>(i), order[i]};
  };
  std::vector<std::vector<Sent>> sent(conns.size());
  auto run = [&](size_t c) {
    sent[c] = Pipeline(*conns[c], frames, depth, next);
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < conns.size(); ++c) threads.emplace_back(run, c);
  run(0);
  for (std::thread& t : threads) t.join();
  return sent;
}

struct WriterLog {
  std::vector<Sent> sent;
  std::vector<double> late_ms;
};

// Open loop: batch i is due at start + i * interval and is timed from that
// moment, so a stall shows in every later batch's latency.
WriterLog OpenLoopWriter(Connection& conn, const Stream& stream,
                         const std::vector<std::string>& frames) {
  WriterLog log;
  auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(stream.write_interval_ms));
  Clock::time_point start = Clock::now();
  for (uint32_t i = 0; i < frames.size(); ++i) {
    Clock::time_point due = start + interval * i;
    std::this_thread::sleep_until(due);
    Clock::time_point sent_at = Clock::now();
    log.late_ms.push_back(MillisBetween(due, sent_at));
    Sent s;
    s.position = i;
    s.request = i;
    s.transport_ok = conn.Call(frames[i], &s.payload).ok();
    s.latency_ms = MillisBetween(due, Clock::now());
    bool ok = s.transport_ok;
    log.sent.push_back(std::move(s));
    if (!ok) break;
  }
  return log;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct ReadStats {
  double throughput_rps = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  uint64_t samples = 0;
};

// Throughput and latency percentiles over the correct answers among
// `reads`, answered over `elapsed_ms` of wall-clock time.
ReadStats PooledReadStats(const std::vector<std::vector<Sent>>& reads,
                          double elapsed_ms) {
  std::vector<double> latencies;
  ReadStats stats;
  for (const std::vector<Sent>& per_conn : reads) {
    for (const Sent& s : per_conn) {
      ++stats.samples;
      if (s.correct) latencies.push_back(s.latency_ms);
    }
  }
  stats.throughput_rps =
      elapsed_ms > 0 ? static_cast<double>(latencies.size()) * 1000 / elapsed_ms
                     : 0;
  stats.p50_ms = Percentile(latencies, 0.5);
  stats.p90_ms = Percentile(latencies, 0.9);
  return stats;
}

// Share of CPU time the hypervisor gave to other guests (the steal column
// of /proc/stat) since `*mark`, which is then advanced.
double StealPercent(std::pair<uint64_t, uint64_t>* mark) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  in >> cpu;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  auto [last_steal, last_total] = *mark;
  *mark = {steal, total};
  if (total <= last_total) return 0;
  return 100.0 * static_cast<double>(steal - last_steal) /
         static_cast<double>(total - last_total);
}

class Tally {
 public:
  void Attempt() { ++attempted_; }
  void Fail(const std::string& reason, uint64_t n = 1) {
    failed_ += n;
    reasons_[reason] += n;
  }
  // Requests a connection never sent because its transport broke.
  void Unsent(uint64_t n) {
    if (n == 0) return;
    attempted_ += n;
    Fail("not sent", n);
  }
  // Checks one raw response; returns true when it is correct.
  bool Check(const BenchRequest& req, const Sent& s, uint64_t* epoch) {
    Attempt();
    if (!s.transport_ok) {
      Fail("transport");
      return false;
    }
    auto parsed = rq::obs::JsonValue::Parse(s.payload);
    if (!parsed.ok()) {
      Fail("unparseable response");
      return false;
    }
    std::string reason = CheckResponse(req, *parsed, epoch);
    if (!reason.empty()) {
      Fail(reason);
      return false;
    }
    return true;
  }
  void Into(DriveResult* r) const {
    r->attempted = attempted_;
    r->failed = failed_;
    r->failure_reasons = reasons_;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, uint64_t> reasons_;
};

// Reads the whole `knows+` answer and compares it with a from-scratch
// closure of the graph after the first `batches` update batches.
rq::Status CheckKnowsClosure(Connection& conn, const Stream& stream,
                             size_t batches, Tally* tally) {
  std::vector<const BenchRequest*> applied;
  for (size_t b = 0; b < batches; ++b) applied.push_back(&stream.writes[b]);
  BenchRequest read;
  read.type = "eval";
  read.cls = "path";
  read.query = "knows+";
  read.max_tuples = 1000000000;
  read.expected.kind = Expected::Kind::kEval;
  RQ_ASSIGN_OR_RETURN(
      read.expected.rows,
      ScratchKnowsClosureRows(stream, applied, &read.expected.count));
  Sent s;
  s.transport_ok = conn.Call(read.Frame(), &s.payload).ok();
  tally->Check(read, s, nullptr);
  return rq::Status::Ok();
}

void AddRatio(const Exposition& e, const std::string& metric,
              const std::string& num, const std::string& den_other,
              Metrics* out) {
  double n = e.Value(num).value_or(0);
  double d = n + e.Value(den_other).value_or(0);
  (*out)[metric] = {d > 0 ? n / d : 0, "ratio", static_cast<uint64_t>(d)};
}

void AddPerOp(const Exposition& e, const std::string& metric,
              const std::string& total, const std::string& ops,
              Metrics* out) {
  double n = e.Value(total).value_or(0);
  double d = e.Value(ops).value_or(0);
  (*out)[metric] = {d > 0 ? n / d : 0, "count", static_cast<uint64_t>(d)};
}

// Exposition names each workload needs; a missing one fails the run so a
// renamed counter cannot silently zero a layer. Elsewhere a missing
// counter reads as 0 (the workload never touched that subsystem). The
// complement.* family is not required anywhere: no request path builds the
// Vardi complement (2rpq containment searches a lazily determinized view of
// the fold 2NFA instead).
std::vector<std::string> RequiredSeries(Workload w) {
  std::vector<std::string> names = {
      "rq_server_queue_wait_ns_dist_count",
      "rq_server_request_latency_ns_dist_count",
      "rq_graph_rebuild_ns_dist_count",
      "rq_cache_eval_hits",
      "rq_cache_eval_misses",
      "rq_mem_tracked_bytes_peak",
      "rq_mem_graph_bytes_peak"};
  switch (w) {
    case Workload::kEvalCold:
      for (const char* n :
           {"rq_graph_product_states", "rq_graph_evals",
            "rq_datalog_tuples_derived", "rq_datalog_evals",
            "rq_mem_datalog_bytes_peak"}) {
        names.push_back(n);
      }
      break;
    case Workload::kAnalyze:
      for (const char* n :
           {"rq_containment_states_explored", "rq_containment_checks",
            "rq_fold_states", "rq_fold_constructions", "rq_cache_hits",
            "rq_cache_misses"}) {
        names.push_back(n);
      }
      break;
    case Workload::kMixedRw:
      for (const char* n : {"rq_incr_pairs_added", "rq_incr_fallbacks",
                            "rq_mem_incr_bytes_peak"}) {
        names.push_back(n);
      }
      break;
  }
  return names;
}

rq::Status CounterMetrics(const Exposition& e, Workload w, double client_p50_ms,
                          Metrics* out) {
  for (const std::string& name : RequiredSeries(w)) {
    if (!e.Value(name).has_value()) {
      return rq::InternalError("/metrics lacks " + name);
    }
  }
  double queue_p50 = e.HistogramQuantile("rq_server_queue_wait_ns", 0.5)
                         .value_or(0);
  double server_p50 =
      e.HistogramQuantile("rq_server_request_latency_ns", 0.5).value_or(0);
  uint64_t requests = static_cast<uint64_t>(
      e.Value("rq_server_request_latency_ns_dist_count").value_or(0));
  (*out)["server.queue_wait_ms"] = {queue_p50 / 1e6, "ms", requests};
  (*out)["server.wire_ms"] = {client_p50_ms - server_p50 / 1e6, "ms",
                              requests};
  AddRatio(e, "server.eval_cache_hit_ratio", "rq_cache_eval_hits",
           "rq_cache_eval_misses", out);
  AddRatio(e, "cache.hit_ratio", "rq_cache_hits", "rq_cache_misses", out);
  (*out)["server.publish_ms"] = {
      e.HistogramMean("rq_graph_rebuild_ns").value_or(0) / 1e6, "ms",
      static_cast<uint64_t>(
          e.Value("rq_graph_rebuild_ns_dist_count").value_or(0))};
  (*out)["relational.incr_pairs_added"] = {
      e.Value("rq_incr_pairs_added").value_or(0), "count", 1};
  (*out)["relational.incr_fallbacks"] = {
      e.Value("rq_incr_fallbacks").value_or(0), "count", 1};
  AddPerOp(e, "graph.product_states", "rq_graph_product_states",
           "rq_graph_evals", out);
  AddPerOp(e, "datalog.tuples_derived", "rq_datalog_tuples_derived",
           "rq_datalog_evals", out);
  AddPerOp(e, "containment.states_explored", "rq_containment_states_explored",
           "rq_containment_checks", out);
  AddPerOp(e, "twoway.fold_states", "rq_fold_states", "rq_fold_constructions",
           out);
  AddPerOp(e, "twoway.complement_states", "rq_complement_states",
           "rq_complement_constructions", out);
  (*out)["common.mem_peak_mb"] = {
      e.Value("rq_mem_tracked_bytes_peak").value_or(0) / (1 << 20), "MB", 1};
  for (const char* sub : {"automata", "fold", "complement", "rq", "datalog",
                          "graph", "cache", "incr"}) {
    (*out)[std::string("common.mem_peak_mb.") + sub] = {
        e.Value(std::string("rq_mem_") + sub + "_bytes_peak").value_or(0) /
            (1 << 20),
        "MB", 1};
  }
  return rq::Status::Ok();
}

struct Frames {
  std::vector<std::string> reads;
  std::vector<std::string> writes;
};

// One cycle's timed pass against one server.
struct Cycle {
  size_t slice = 0;  // which part of the read order it sent
  // The cycle's read answers per connection, and how long the reads took.
  std::vector<std::vector<Sent>> reads;
  double read_elapsed_ms = 0;
  // Throughput and latency over this cycle's reads alone.
  ReadStats pooled;
  std::vector<Sent> writes;  // by batch index
  std::vector<double> late_ms;
  std::vector<double> setup_s;  // the cycle's timed launches
  double steal_pct = 0;
  double peak_rss_mb = 0;
};

// Warm-up, the timed read and write phases and the final knows+ check on a
// server no request has touched yet. Checks every answer into `tally`.
rq::Result<Cycle> RunCycle(const ServerProcess& server, const Stream& stream,
                           const Frames& frames, size_t slice, Tally* tally) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>());
    RQ_RETURN_IF_ERROR(conns.back()->Open(server.port()));
  }
  auto check_all = [&](std::vector<std::vector<Sent>>& sent,
                       const std::vector<BenchRequest>& requests,
                       bool epochs) {
    for (std::vector<Sent>& per_conn : sent) {
      // Epochs are pinned at admission, which follows send order; answers
      // may complete out of order.
      std::vector<Sent*> by_seq;
      for (Sent& s : per_conn) by_seq.push_back(&s);
      std::stable_sort(by_seq.begin(), by_seq.end(),
                       [](const Sent* a, const Sent* b) {
                         return a->seq < b->seq;
                       });
      uint64_t epoch = 0;
      for (Sent* s : by_seq) {
        s->correct =
            tally->Check(requests[s->request], *s, epochs ? &epoch : nullptr);
        s->payload.clear();
      }
    }
  };
  auto sent_count = [](const std::vector<std::vector<Sent>>& sent) {
    size_t n = 0;
    for (const auto& c : sent) n += c.size();
    return n;
  };

  // Warm-up, excluded from timing but checked.
  auto warm = ClosedLoop(conns, frames.reads, stream.warmup_order, 0,
                         stream.warmup_order.size(), 1);
  check_all(warm, stream.reads, stream.workload == Workload::kMixedRw);
  tally->Unsent(stream.warmup_order.size() - sent_count(warm));

  Cycle cycle;
  cycle.slice = slice;
  WriterLog writer;
  if (stream.workload == Workload::kMixedRw) {
    // One writer connection on the schedule, one closed-loop reader
    // cycling the read set until the last batch is answered.
    std::atomic<bool> writes_done{false};
    cycle.reads.resize(1);
    Clock::time_point start = Clock::now();
    std::thread reader([&] {
      uint32_t i = 0;
      cycle.reads[0] = Pipeline(
          *conns[1], frames.reads, stream.read_depth,
          [&]() -> std::optional<Claim> {
            if (writes_done.load()) return std::nullopt;
            uint32_t request = i % static_cast<uint32_t>(stream.reads.size());
            return Claim{i++, request};
          });
    });
    writer = OpenLoopWriter(*conns[0], stream, frames.writes);
    writes_done.store(true);
    reader.join();
    cycle.read_elapsed_ms = MillisBetween(start, Clock::now());
    check_all(cycle.reads, stream.reads, true);
  } else {
    size_t part = stream.read_order.size() / stream.slices;
    size_t first = slice * part;
    size_t last = slice + 1 == stream.slices ? stream.read_order.size()
                                              : first + part;
    Clock::time_point start = Clock::now();
    cycle.reads = ClosedLoop(conns, frames.reads, stream.read_order, first,
                             last, stream.read_depth);
    cycle.read_elapsed_ms = MillisBetween(start, Clock::now());
    check_all(cycle.reads, stream.reads, false);
    tally->Unsent(last - first - sent_count(cycle.reads));
    // The write phase, with the knows closure maintained (this read seeds
    // it) and no reads alongside.
    RQ_RETURN_IF_ERROR(CheckKnowsClosure(*conns[0], stream, 0, tally));
    writer = OpenLoopWriter(*conns[0], stream, frames.writes);
  }
  {
    uint64_t epoch = 0;
    for (Sent& s : writer.sent) {
      s.correct = tally->Check(stream.writes[s.request], s, &epoch);
      s.payload.clear();
    }
    tally->Unsent(stream.writes.size() - writer.sent.size());
  }
  cycle.writes = std::move(writer.sent);
  cycle.late_ms = std::move(writer.late_ms);
  // Read before the final check below: its full knows+ answer is not part
  // of the workload.
  cycle.peak_rss_mb = PeakRssMb(server.pid());
  RQ_RETURN_IF_ERROR(CheckKnowsClosure(*conns[0], stream,
                                       stream.writes.size(), tally));
  cycle.pooled = PooledReadStats(cycle.reads, cycle.read_elapsed_ms);
  return cycle;
}

// Times one launch, from spawn to the answer to a health request.
rq::Result<double> TimedLaunch(ServerProcess* server,
                               const DriveOptions& options,
                               const std::string& graph_file,
                               const std::string& log_file) {
  const std::string health = R"({"type":"health"})";
  Clock::time_point t0 = Clock::now();
  RQ_RETURN_IF_ERROR(server->Spawn(options.rqserved, graph_file, log_file));
  Connection probe;
  RQ_RETURN_IF_ERROR(probe.Open(server->port()));
  std::string reply;
  RQ_RETURN_IF_ERROR(probe.Call(health, &reply));
  return MillisBetween(t0, Clock::now()) / 1000;
}

// Read-only workloads: each position of the read order was sent once per
// cycle that sent its slice, always from the same server state. Its latency
// is the median over those sends, and the percentiles are taken over the
// positions; throughput divides the reads of all slices by the sum of each
// slice's median duration. A burst of interference from outside the
// benchmark then moves a few sends, not the result.
ReadStats RepeatedReadStats(const Stream& stream,
                            const std::vector<const Cycle*>& cycles) {
  ReadStats stats;
  std::vector<std::vector<double>> by_position(stream.read_order.size());
  std::vector<std::vector<double>> elapsed(stream.slices);
  std::vector<std::vector<double>> answered(stream.slices);
  for (const Cycle* cycle : cycles) {
    const Cycle& c = *cycle;
    double ok = 0;
    for (const std::vector<Sent>& per_conn : c.reads) {
      for (const Sent& s : per_conn) {
        ++stats.samples;
        if (!s.correct) continue;
        by_position[s.position].push_back(s.latency_ms);
        ++ok;
      }
    }
    elapsed[c.slice].push_back(c.read_elapsed_ms);
    answered[c.slice].push_back(ok);
  }
  std::vector<double> latencies = GroupMedians(by_position);
  double total_ms = 0;
  double total_ok = 0;
  for (size_t p = 0; p < stream.slices; ++p) {
    total_ms += Median(elapsed[p]);
    total_ok += Median(answered[p]);
  }
  stats.throughput_rps = total_ms > 0 ? total_ok * 1000 / total_ms : 0;
  stats.p50_ms = Percentile(latencies, 0.5);
  stats.p90_ms = Percentile(latencies, 0.9);
  return stats;
}

}  // namespace

std::string CheckResponse(const BenchRequest& request,
                          const rq::obs::JsonValue& response,
                          uint64_t* last_epoch) {
  const rq::obs::JsonValue* ok = response.Find("ok");
  if (ok == nullptr || !ok->bool_value()) {
    const rq::obs::JsonValue* error = response.Find("error");
    return "error " + (error != nullptr ? error->string_value() : "?");
  }
  if (last_epoch != nullptr) {
    if (const rq::obs::JsonValue* epoch = response.Find("epoch")) {
      if (epoch->uint_value() < *last_epoch) return "epoch went backward";
      *last_epoch = epoch->uint_value();
    }
  }
  const Expected& want = request.expected;
  switch (want.kind) {
    case Expected::Kind::kNone:
      return "";
    case Expected::Kind::kVerdict: {
      const rq::obs::JsonValue* verdict = response.Find("verdict");
      if (verdict == nullptr || verdict->string_value() != want.verdict) {
        return "wrong verdict";
      }
      return "";
    }
    case Expected::Kind::kEval: {
      const rq::obs::JsonValue* count = response.Find("count");
      const rq::obs::JsonValue* tuples = response.Find("tuples");
      if (count == nullptr || tuples == nullptr ||
          count->uint_value() != want.count || tuples->Dump() != want.rows) {
        return "wrong answer";
      }
      return "";
    }
    case Expected::Kind::kUpdate: {
      const rq::obs::JsonValue* edges = response.Find("edges_added");
      if (edges == nullptr || edges->uint_value() != want.count) {
        return "wrong update result";
      }
      return "";
    }
  }
  return "";
}

rq::Result<DriveResult> DriveServer(const Stream& stream,
                                    const DriveOptions& options) {
  std::string tag = std::string(WorkloadName(stream.workload)) + "_" +
                    std::to_string(stream.seed);
  std::string graph_file = options.work_dir + "/graph_" + tag + ".txt";
  std::string log_file = options.work_dir + "/rqserved_" + tag + ".log";
  {
    std::ofstream out(graph_file);
    out << stream.graph_text;
    if (!out) return rq::InternalError("cannot write " + graph_file);
  }
  Frames frames;
  for (const BenchRequest& r : stream.reads) frames.reads.push_back(r.Frame());
  for (const BenchRequest& w : stream.writes) {
    frames.writes.push_back(w.Frame());
  }

  // Every cycle times kLaunchesPerCycle launches, the last of which serves
  // it, so set-up is sampled over the whole run too. The first kCycles
  // cycles send the slices in turn; an added cycle sends the slice with the
  // fewest clean cycles. Every cycle's answers are checked.
  Tally tally;
  DriveResult result;
  const bool read_only = stream.workload != Workload::kMixedRw;
  const size_t repeats = static_cast<size_t>(kCycles) / stream.slices;
  std::vector<size_t> clean(stream.slices, 0);
  std::vector<Cycle> cycles;
  Clock::time_point run_start = Clock::now();
  for (int k = 0;; ++k) {
    size_t slice = static_cast<size_t>(k) % stream.slices;
    if (k >= kCycles) {
      slice = static_cast<size_t>(
          std::min_element(clean.begin(), clean.end()) - clean.begin());
    }
    std::pair<uint64_t, uint64_t> steal_mark;
    StealPercent(&steal_mark);
    std::vector<double> setup_s;
    auto server = std::make_unique<ServerProcess>();
    for (int i = 0; i < kLaunchesPerCycle; ++i) {
      if (i > 0) {
        server->Stop();
        server = std::make_unique<ServerProcess>();
      }
      RQ_ASSIGN_OR_RETURN(double seconds, TimedLaunch(server.get(), options,
                                                      graph_file, log_file));
      setup_s.push_back(seconds);
    }
    RQ_ASSIGN_OR_RETURN(Cycle cycle,
                        RunCycle(*server, stream, frames, slice, &tally));
    cycle.setup_s = std::move(setup_s);
    cycle.steal_pct = StealPercent(&steal_mark);
    if (cycle.steal_pct <= kCleanStealPct) ++clean[slice];
    cycles.push_back(std::move(cycle));
    size_t clean_total = std::accumulate(clean.begin(), clean.end(), size_t{0});
    bool enough =
        clean_total >= kCleanestUsed &&
        (!read_only ||
         *std::min_element(clean.begin(), clean.end()) >= repeats);
    bool spent = MillisBetween(run_start, Clock::now()) >=
                 options.budget_s * 1000;
    if (k + 1 >= kCycles && (enough || spent || k + 1 >= kMaxCycles)) {
      // One scrape per run, after timing, from the last cycle's server.
      RQ_ASSIGN_OR_RETURN(std::string exposition,
                          rq::server::HttpGet(kHost, server->port(),
                                              "/metrics"));
      RQ_RETURN_IF_ERROR(CounterMetrics(Exposition::Parse(exposition),
                                        stream.workload,
                                        cycles.back().pooled.p50_ms,
                                        &result.counters));
      server->Stop();
      break;
    }
    server->Stop();
  }

  // The cycles in order of what they lost to steal, least first.
  std::vector<size_t> by_steal(cycles.size());
  std::iota(by_steal.begin(), by_steal.end(), 0);
  std::stable_sort(by_steal.begin(), by_steal.end(), [&](size_t a, size_t b) {
    return cycles[a].steal_pct < cycles[b].steal_pct;
  });
  result.used.assign(cycles.size(), false);
  // Writes, set-up and mixed_rw's reads: the kCleanestUsed cycles that
  // lost the least. Read-only reads and RSS: per slice, the `repeats`
  // cycles of that slice that lost the least.
  std::vector<const Cycle*> cleanest;
  for (size_t k : by_steal) {
    if (cleanest.size() == kCleanestUsed) break;
    cleanest.push_back(&cycles[k]);
    result.used[k] = true;
  }
  std::vector<const Cycle*> read_cycles = cleanest;
  if (read_only) {
    read_cycles.clear();
    std::vector<size_t> taken(stream.slices, 0);
    for (size_t k : by_steal) {
      if (taken[cycles[k].slice]++ < repeats) {
        read_cycles.push_back(&cycles[k]);
        result.used[k] = true;
      }
    }
  }
  for (const Cycle& c : cycles) result.steal_pct.push_back(c.steal_pct);

  // Read metrics. mixed_rw's reads follow the writes' pace, so no two
  // cycles send the same reads from the same state: each metric is the
  // median over the cycles of that cycle's value.
  ReadStats reads;
  if (!read_only) {
    std::vector<double> rates, p50s, p90s;
    for (const Cycle* cycle : read_cycles) {
      const Cycle& c = *cycle;
      rates.push_back(c.pooled.throughput_rps);
      p50s.push_back(c.pooled.p50_ms);
      p90s.push_back(c.pooled.p90_ms);
      reads.samples += c.pooled.samples;
    }
    reads.throughput_rps = Median(rates);
    reads.p50_ms = Median(p50s);
    reads.p90_ms = Median(p90s);
  } else {
    reads = RepeatedReadStats(stream, read_cycles);
  }
  // Write metrics: every cycle sends the same batches onto the same graph,
  // so batch i's latency is its median over the cycles used, and the
  // percentiles are taken over the batches. Set-up and the writer's
  // lateness come from the same cycles.
  std::vector<std::vector<double>> by_batch(stream.writes.size());
  std::vector<double> setup_s;
  uint64_t write_samples = 0;
  double late_sum = 0;
  size_t late_n = 0;
  for (const Cycle* cycle : cleanest) {
    const Cycle& c = *cycle;
    setup_s.insert(setup_s.end(), c.setup_s.begin(), c.setup_s.end());
    for (const Sent& s : c.writes) {
      ++write_samples;
      if (s.correct) by_batch[s.position].push_back(s.latency_ms);
    }
    for (double late : c.late_ms) {
      late_sum += late;
      ++late_n;
      result.writer_max_late_ms = std::max(result.writer_max_late_ms, late);
    }
  }
  std::vector<double> batch_latencies = GroupMedians(by_batch);
  std::vector<double> rss;
  for (const Cycle* c : read_cycles) rss.push_back(c->peak_rss_mb);

  Metrics& m = result.end_to_end;
  m["setup_s"] = {Median(setup_s), "s", setup_s.size()};
  m["throughput_rps"] = {reads.throughput_rps, "1/s", reads.samples};
  m["p50_ms"] = {reads.p50_ms, "ms", reads.samples};
  m["p90_ms"] = {reads.p90_ms, "ms", reads.samples};
  m["write_p50_ms"] = {Percentile(batch_latencies, 0.5), "ms", write_samples};
  m["write_p90_ms"] = {Percentile(batch_latencies, 0.9), "ms", write_samples};
  m["peak_rss_mb"] = {Median(rss), "MB", rss.size()};
  if (late_n > 0) {
    result.writer_mean_late_ms = late_sum / static_cast<double>(late_n);
  }
  result.writer_behind = result.writer_max_late_ms > stream.write_interval_ms;
  tally.Into(&result);
  return result;
}

}  // namespace rqbench

// rqserved — long-lived concurrent query service over the framed JSON
// protocol (docs/SERVING.md).
//
//   rqserved [--bind ADDR] [--port N] [--port-file <path>]
//            [--graph <file>] [--workers N] [--jobs N]
//            [--max-queue-depth N] [--max-connections N]
//            [--max-inflight-mb N]
//            [--default-timeout-ms N] [--max-timeout-ms N]
//            [--default-memory-budget-mb N] [--max-memory-budget-mb N]
//            [--read-only] [--incr-delta-budget N] [--eval-cache-mb N]
//            [--no-cache] [--enable-sleep] [--flight-dump <path>]
//     --bind ADDR         listen address (default 127.0.0.1)
//     --port N            listen port (default 0 = ephemeral; the chosen
//                         port is printed and written to --port-file)
//     --port-file <path>  write the bound port as a decimal line (how
//                         tests and bench scripts find an ephemeral port)
//     --graph <file>      preload a graph database for eval requests that
//                         do not carry an inline graph
//     --workers N         request worker threads (default 4)
//     --jobs N            per-request inner parallelism: the two
//                         directions of an rpq/2rpq equivalence and
//                         multi-source graph evaluation (default 1)
//     --max-queue-depth N shed (respond `overloaded`) once this many
//                         requests await a worker (default 128)
//     --max-connections N refuse connections beyond this many (default
//                         1024)
//     --max-inflight-mb N shed new requests while in-flight request
//                         memory exceeds this (default 0 = no threshold)
//     --default-timeout-ms / --max-timeout-ms
//                         per-request wall-clock budget default and cap
//     --default-memory-budget-mb / --max-memory-budget-mb
//                         per-request byte budget default and cap
//     --read-only         refuse `update` requests (invalid_request); the
//                         graph stays frozen at the --graph load
//     --incr-delta-budget N
//                         per-insert bound on the incremental closure
//                         delta product before the label falls back to
//                         full re-evaluation (default 1048576; 0 =
//                         unbounded; docs/SERVING.md "Updates")
//     --eval-cache-mb N   byte budget of the epoch-keyed eval answer
//                         cache (default 8; 0 disables it)
//     --no-cache          disable the content-addressed automata cache
//                         (on by default: a long-lived server is exactly
//                         the workload the cache exists for)
//     --enable-sleep      allow `sleep` requests (tests/bench only)
//     --flight-dump <path> flush the flight recorder here when draining
//
// The same port answers HTTP: GET /metrics returns the Prometheus
// exposition, GET /healthz a liveness line. SIGTERM / SIGINT triggers a
// graceful drain: accepting stops, in-flight requests complete, late
// frames get `draining` responses, then the process exits 0.
#include <errno.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cache/automata_cache.h"
#include "common/parallel.h"
#include "graph/graph_db.h"
#include "obs/flight_recorder.h"
#include "server/server.h"

using namespace rq;  // examples only

namespace {

int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int) {
  char byte = 1;
  ssize_t ignored = write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "rqserved: %s\n", message.c_str());
  return 1;
}

bool ParseIntFlag(const std::string& arg, int argc, char** argv, int* i,
                  const char* name, int64_t* out) {
  std::string prefix = std::string(name) + "=";
  if (arg == name && *i + 1 < argc) {
    *out = std::strtoll(argv[++*i], nullptr, 10);
    return true;
  }
  if (arg.rfind(prefix, 0) == 0) {
    *out = std::strtoll(arg.c_str() + prefix.size(), nullptr, 10);
    return true;
  }
  return false;
}

bool ParseStringFlag(const std::string& arg, int argc, char** argv, int* i,
                     const char* name, std::string* out) {
  std::string prefix = std::string(name) + "=";
  if (arg == name && *i + 1 < argc) {
    *out = argv[++*i];
    return true;
  }
  if (arg.rfind(prefix, 0) == 0) {
    *out = arg.substr(prefix.size());
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions options;
  std::string graph_file;
  std::string port_file;
  int64_t port = 0;
  int64_t workers = 4;
  int64_t jobs = 0;
  int64_t max_queue_depth = -1;
  int64_t max_connections = -1;
  int64_t max_inflight_mb = 0;
  int64_t incr_delta_budget = -1;
  int64_t eval_cache_mb = -1;
  bool use_cache = true;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (ParseStringFlag(arg, argc, argv, &i, "--bind",
                        &options.bind_address) ||
        ParseStringFlag(arg, argc, argv, &i, "--graph", &graph_file) ||
        ParseStringFlag(arg, argc, argv, &i, "--port-file", &port_file) ||
        ParseStringFlag(arg, argc, argv, &i, "--flight-dump",
                        &options.flight_dump_path) ||
        ParseIntFlag(arg, argc, argv, &i, "--port", &port) ||
        ParseIntFlag(arg, argc, argv, &i, "--workers", &workers) ||
        ParseIntFlag(arg, argc, argv, &i, "--jobs", &jobs) ||
        ParseIntFlag(arg, argc, argv, &i, "--max-queue-depth",
                     &max_queue_depth) ||
        ParseIntFlag(arg, argc, argv, &i, "--max-connections",
                     &max_connections) ||
        ParseIntFlag(arg, argc, argv, &i, "--max-inflight-mb",
                     &max_inflight_mb) ||
        ParseIntFlag(arg, argc, argv, &i, "--default-timeout-ms",
                     &options.default_timeout_ms) ||
        ParseIntFlag(arg, argc, argv, &i, "--max-timeout-ms",
                     &options.max_timeout_ms) ||
        ParseIntFlag(arg, argc, argv, &i, "--default-memory-budget-mb",
                     &options.default_memory_budget_mb) ||
        ParseIntFlag(arg, argc, argv, &i, "--max-memory-budget-mb",
                     &options.max_memory_budget_mb) ||
        ParseIntFlag(arg, argc, argv, &i, "--incr-delta-budget",
                     &incr_delta_budget) ||
        ParseIntFlag(arg, argc, argv, &i, "--eval-cache-mb",
                     &eval_cache_mb)) {
      continue;
    }
    if (arg == "--read-only") {
      options.enable_updates = false;
    } else if (arg == "--no-cache") {
      use_cache = false;
    } else if (arg == "--enable-sleep") {
      options.enable_sleep = true;
    } else {
      return Fail("unknown flag '" + arg + "' (see the header comment)");
    }
  }

  if (port < 0 || port > 65535) return Fail("--port out of range");
  options.port = static_cast<uint16_t>(port);
  if (workers > 0) options.workers = static_cast<unsigned>(workers);
  if (max_queue_depth >= 0) {
    options.max_queue_depth = static_cast<size_t>(max_queue_depth);
  }
  if (max_connections > 0) {
    options.max_connections = static_cast<size_t>(max_connections);
  }
  if (max_inflight_mb > 0) {
    options.max_inflight_bytes =
        static_cast<uint64_t>(max_inflight_mb) * 1024 * 1024;
  }
  if (incr_delta_budget >= 0) {
    options.incr_delta_budget = static_cast<size_t>(incr_delta_budget);
  }
  if (eval_cache_mb >= 0) {
    options.eval_cache_bytes =
        static_cast<size_t>(eval_cache_mb) * 1024 * 1024;
  }
  if (jobs > 0) SetDefaultParallelJobs(static_cast<unsigned>(jobs));
  cache::AutomataCache::Global().SetEnabled(use_cache);

  GraphDb graph;
  if (!graph_file.empty()) {
    std::ifstream in(graph_file);
    if (!in) return Fail("cannot open " + graph_file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = GraphDb::FromText(buffer.str());
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    graph = std::move(parsed).value();
    options.graph = &graph;
  }

  obs::InstallFlightSignalHandler();
  obs::SetFlightQueryLabel("rqserved");

  if (pipe(g_signal_pipe) < 0) {
    return Fail(std::string("pipe: ") + std::strerror(errno));
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnShutdownSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);

  server::QueryServer server(options);
  if (Status status = server.Start(); !status.ok()) {
    return Fail(status.ToString());
  }
  std::printf("rqserved listening on %s:%u (workers=%u)\n",
              options.bind_address.c_str(), server.port(), options.workers);
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << '\n';
    if (!out) return Fail("cannot write " + port_file);
  }

  // Block until SIGTERM / SIGINT, then drain.
  char byte;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "rqserved: draining\n");
  server.DrainAndWait();
  std::fprintf(stderr, "rqserved: drained, exiting\n");
  return 0;
}

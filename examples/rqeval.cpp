// rqeval — evaluate a query of any class over a graph database file.
//
//   rqeval [--trace] [--profile] [--profile-json <path>]
//          [--stats-json <path>] [--chrome-trace <path>]
//          [--flight-dump <path>] [--prometheus <path>]
//          [--cache] [--jobs N] [--timeout-ms N] [--memory-budget-mb N]
//          <graph-file> <class> <query>
//     graph-file : edge list, one "src label dst" per line ('#' comments)
//     class      : path | crpq | rq | datalog
//     query      : query text, or @path to read from a file
//     --trace             print the span tree of the evaluation (plus
//                         non-zero counters/gauges/histograms) to stderr
//     --profile           print an EXPLAIN ANALYZE-style per-query report
//                         (counter deltas, windowed distributions, gauge
//                         levels) after the answers
//     --profile-json <path> write the same report as JSON (schema
//                         "rq-profile/1") to <path>
//     --stats-json <path> write the observability snapshot (counters,
//                         gauges, histograms, spans; schema "rq-obs/2")
//                         to <path>
//     --chrome-trace <path> write the spans as Chrome trace-event JSON
//                         (Perfetto / chrome://tracing)
//     --flight-dump <path> write the flight recorder's ring of completed
//                         queries plus the slow-query log to <path>
//                         ("-" = stderr)
//     --prometheus <path> write every counter, gauge, and histogram in
//                         Prometheus text exposition format to <path>
//     --cache             enable the content-addressed automata/verdict
//                         cache (docs/CACHING.md)
//     --jobs N            worker threads for evaluation: path and crpq
//                         queries fan their multi-source product-BFS over
//                         N workers sharing one immutable graph snapshot
//                         (shared flag surface with rqcheck, where the
//                         same knob drives batched containment checks)
//     --timeout-ms N      wall-clock budget for the evaluation; expiry
//                         fails with DeadlineExceeded (exit 2) instead of
//                         hanging (docs/ROBUSTNESS.md)
//     --memory-budget-mb N byte budget for the evaluation (common/mem.h):
//                         crossing it fails with ResourceExhausted
//                         (exit 4, not a crash) through the same polling
//                         sites as --timeout-ms, and bumps the
//                         mem.budget_exceeded counter. The evaluation
//                         always runs under an ExecContext, so --profile
//                         reports a per-subsystem peak-byte breakdown
//                         either way
//
// Examples:
//   rqeval net.graph path 'knows+'
//   rqeval net.graph crpq 'q(x,y) :- (knows+)(x,y), (member)(x,g)'
//   rqeval net.graph rq 'q(x,y) := tc[x,y](knows(x,y))'
//   rqeval net.graph datalog @reach.dl
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <vector>

#include "cache/automata_cache.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "crpq/crpq.h"
#include "datalog/eval.h"
#include "graph/graph_db.h"
#include "obs/chrome_trace.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "pathquery/path_query.h"
#include "rq/eval.h"
#include "rq/parser.h"

using namespace rq;  // examples only

namespace {

std::string LoadArg(const std::string& arg) {
  if (arg.empty() || arg[0] != '@') return arg;
  std::ifstream in(arg.substr(1));
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "rqeval: %s\n", message.c_str());
  return 2;
}

void PrintTuples(const GraphDb& db, const Relation& relation) {
  for (const Tuple& t : relation.SortedTuples()) {
    for (size_t i = 0; i < t.size(); ++i) {
      std::printf(i == 0 ? "%s" : "\t%s",
                  db.NodeName(static_cast<NodeId>(t[i])).c_str());
    }
    std::printf("\n");
  }
  std::printf("-- %zu tuples\n", relation.size());
}

int RunEval(const std::string& graph_file, const std::string& cls,
            const std::string& text) {
  std::ifstream in(graph_file);
  if (!in) return Fail("cannot open " + graph_file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto graph = GraphDb::FromText(buffer.str());
  if (!graph.ok()) return Fail(graph.status().ToString());

  if (cls == "path") {
    auto q = ParsePathQuery(text, &graph->alphabet());
    if (!q.ok()) return Fail(q.status().ToString());
    Relation out(2);
    for (const auto& [x, y] : EvalPathQuery(*graph, *q->regex)) {
      out.Insert({x, y});
    }
    // Path evaluation reports truncation through the installed context
    // rather than a Status return; surface it instead of printing a
    // silently partial answer set.
    if (Status s = CheckExecContext(); !s.ok()) return Fail(s.ToString());
    PrintTuples(*graph, out);
    return 0;
  }
  if (cls == "crpq") {
    auto q = ParseUc2Rpq(text, &graph->alphabet());
    if (!q.ok()) return Fail(q.status().ToString());
    auto out = EvalUc2Rpq(*graph, *q);
    if (!out.ok()) return Fail(out.status().ToString());
    PrintTuples(*graph, *out);
    return 0;
  }
  if (cls == "rq") {
    auto q = ParseRq(text);
    if (!q.ok()) return Fail(q.status().ToString());
    auto out = EvalRqQuery(GraphToDatabase(*graph), *q);
    if (!out.ok()) return Fail(out.status().ToString());
    PrintTuples(*graph, *out);
    return 0;
  }
  if (cls == "datalog") {
    auto q = ParseDatalog(text);
    if (!q.ok()) return Fail(q.status().ToString());
    auto out = EvalDatalogGoal(*q, GraphToDatabase(*graph));
    if (!out.ok()) return Fail(out.status().ToString());
    PrintTuples(*graph, *out);
    return 0;
  }
  return Fail("unknown class: " + cls);
}

}  // namespace

int main(int argc, char** argv) {
  bool trace = false;
  bool profile_text = false;
  std::string profile_json;
  std::string stats_json;
  std::string chrome_trace;
  std::string flight_dump;
  std::string prometheus;
  int64_t timeout_ms = 0;
  int64_t memory_budget_mb = 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (arg == "--profile") {
      profile_text = true;
    } else if (arg == "--profile-json" && i + 1 < argc) {
      profile_json = argv[++i];
    } else if (arg.rfind("--profile-json=", 0) == 0) {
      profile_json = arg.substr(15);
    } else if (arg == "--flight-dump" && i + 1 < argc) {
      flight_dump = argv[++i];
    } else if (arg.rfind("--flight-dump=", 0) == 0) {
      flight_dump = arg.substr(14);
    } else if (arg == "--prometheus" && i + 1 < argc) {
      prometheus = argv[++i];
    } else if (arg.rfind("--prometheus=", 0) == 0) {
      prometheus = arg.substr(13);
    } else if (arg == "--cache") {
      cache::AutomataCache::Global().SetEnabled(true);
    } else if (arg == "--jobs" && i + 1 < argc) {
      SetDefaultParallelJobs(
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10)));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      SetDefaultParallelJobs(
          static_cast<unsigned>(std::strtoul(arg.c_str() + 7, nullptr, 10)));
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      timeout_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      timeout_ms = std::strtoll(arg.c_str() + 13, nullptr, 10);
    } else if (arg == "--memory-budget-mb" && i + 1 < argc) {
      memory_budget_mb = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg.rfind("--memory-budget-mb=", 0) == 0) {
      memory_budget_mb = std::strtoll(arg.c_str() + 19, nullptr, 10);
    } else if (arg == "--stats-json" && i + 1 < argc) {
      stats_json = argv[++i];
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      stats_json = arg.substr(13);
    } else if (arg == "--chrome-trace" && i + 1 < argc) {
      chrome_trace = argv[++i];
    } else if (arg.rfind("--chrome-trace=", 0) == 0) {
      chrome_trace = arg.substr(15);
    } else {
      positional.push_back(std::move(arg));
    }
  }
  if (positional.size() != 3) {
    return Fail(
        "usage: rqeval [--trace] [--profile] [--profile-json <path>] "
        "[--stats-json <path>] [--chrome-trace <path>] "
        "[--flight-dump <path>] [--prometheus <path>] [--cache] [--jobs N] "
        "[--timeout-ms N] [--memory-budget-mb N] "
        "<graph-file> <path|crpq|rq|datalog> <query>");
  }
  // Full tracing when any flag needs span data; counters always run.
  if (trace || !stats_json.empty() || !chrome_trace.empty()) {
    obs::SetTraceMode(obs::TraceMode::kFull);
  }
  obs::InstallFlightSignalHandler();

  const std::string query = LoadArg(positional[2]);
  obs::SetFlightQueryLabel(positional[1] + " " + query);

  obs::QueryProfile profile;
  const bool profiling = profile_text || !profile_json.empty();
  if (profiling) profile.Begin("rqeval", positional[1], query);

  // The evaluation always runs under a context (budget 0 = unlimited) so
  // --profile reports the per-subsystem peak-byte breakdown.
  ExecContext ctx(
      timeout_ms > 0 ? Deadline::AfterMillis(timeout_ms)
                     : Deadline::Infinite(),
      /*cancel=*/nullptr,
      memory_budget_mb > 0
          ? static_cast<uint64_t>(memory_budget_mb) * 1024 * 1024
          : 0);
  int code;
  {
    // Scope the context to the evaluation so the stats/trace dumps below
    // never run under an expired deadline.
    ScopedExecContext scoped(&ctx);
    code = RunEval(positional[0], positional[1], query);
  }
  // Distinct exit code for a memory-budget failure (exceeded() reads the
  // shared pot, so trips latched on worker mirrors count too).
  if (code == 2 && ctx.exceeded()) code = 4;

  if (profiling) {
    // End() samples the memory section from the installed context.
    ScopedExecContext sampled(&ctx);
    profile.End();
    if (profile_text) std::fputs(profile.ToText().c_str(), stdout);
    if (!profile_json.empty()) {
      std::ofstream out(profile_json);
      out << profile.ToJson().Dump(2) << '\n';
      if (!out) return Fail("cannot write " + profile_json);
    }
  }
  if (trace) obs::PrintSpanTree(stderr);
  if (!stats_json.empty()) {
    Status status = obs::WriteSnapshotJsonFile(stats_json);
    if (!status.ok()) return Fail(status.ToString());
  }
  if (!chrome_trace.empty()) {
    Status status = obs::WriteChromeTraceFile(chrome_trace);
    if (!status.ok()) return Fail(status.ToString());
  }
  if (!flight_dump.empty()) {
    Status status = obs::WriteFlightDump(flight_dump);
    if (!status.ok()) return Fail(status.ToString());
  }
  if (!prometheus.empty()) {
    Status status = obs::WritePrometheusTextFile(prometheus);
    if (!status.ok()) return Fail(status.ToString());
  }
  return code;
}

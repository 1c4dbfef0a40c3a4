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
//                         (plan notes, counters, distributions, gauge
//                         levels, memory peaks) after the answers
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
//
// Exit code: 0 = answered, 2 = usage/parse/eval/write error, 4 = memory
// budget exceeded.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_obs.h"
#include "crpq/crpq.h"
#include "datalog/eval.h"
#include "graph/graph_db.h"
#include "pathquery/path_query.h"
#include "rq/eval.h"
#include "rq/parser.h"

using namespace rq;  // examples only

namespace {

constexpr int kErrorExit = 2;

int Fail(const std::string& message) {
  std::fprintf(stderr, "rqeval: %s\n", message.c_str());
  return kErrorExit;
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
  cli::ObsFlags flags;
  std::vector<std::string> positional = cli::ParseObsFlags(argc, argv, &flags);
  if (positional.size() != 3) {
    return Fail(
        "usage: rqeval [--trace] [--profile] [--profile-json <path>] "
        "[--stats-json <path>] [--chrome-trace <path>] "
        "[--flight-dump <path>] [--prometheus <path>] [--cache] [--jobs N] "
        "[--timeout-ms N] [--memory-budget-mb N] "
        "<graph-file> <path|crpq|rq|datalog> <query>");
  }
  const std::string& cls = positional[1];
  const std::string query = cli::LoadArg(positional[2]);
  return cli::RunObserved(
      flags, {"rqeval", cls, query, cls + " " + query, kErrorExit},
      [&] { return RunEval(positional[0], cls, query); });
}

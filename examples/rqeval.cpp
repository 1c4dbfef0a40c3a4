// rqeval — evaluate a query of any class over a graph database file,
// through the query front door (query/query.h).
//
//   rqeval [flags] <graph-file> <class> <query>
//     graph-file : edge list, one "src label dst" per line ('#' comments)
//     class      : path | crpq | rq | datalog
//     query      : query text, or @path to read from a file
//     flags      : the common flags of cli_obs.h. --jobs N fans the
//                  multi-source product-BFS of every query that runs on
//                  the kernel (path, crpq atoms, and the crpq, rq and
//                  datalog queries the front door lowers; --profile
//                  prints eval.route) over N workers sharing one
//                  immutable graph snapshot; an expired --timeout-ms
//                  exits 2.
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
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_obs.h"
#include "query/query.h"

using namespace rq;  // examples only

namespace {

constexpr int kErrorExit = 2;

int Fail(const std::string& message) {
  std::fprintf(stderr, "rqeval: %s\n", message.c_str());
  return kErrorExit;
}

// Answers the query through the query front door (query/query.h) and
// prints its rows, one tab-separated line each, then their count.
int RunEval(const std::string& graph_file, const std::string& cls,
            const std::string& text) {
  std::ifstream in(graph_file);
  if (!in) return Fail("cannot open " + graph_file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto graph = GraphDb::FromText(buffer.str());
  if (!graph.ok()) return Fail(graph.status().ToString());
  EvalTarget target(std::make_shared<const GraphDb>(std::move(graph).value()));

  auto query = ParseQuery(cls, text, target.graph->alphabet());
  if (!query.ok()) return Fail(query.status().ToString());
  auto answer = Evaluate(*query, target);
  if (!answer.ok()) return Fail(answer.status().ToString());
  for (size_t i = 0; i < answer->size(); ++i) {
    const Value* row = answer->row(i);
    for (size_t c = 0; c < answer->arity; ++c) {
      std::printf(c == 0 ? "%s" : "\t%s",
                  target.graph->NodeName(static_cast<NodeId>(row[c])).c_str());
    }
    std::printf("\n");
  }
  std::printf("-- %zu tuples\n", answer->size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ObsFlags flags;
  std::vector<std::string> positional = cli::ParseObsFlags(argc, argv, &flags);
  if (positional.size() != 3) {
    return Fail(std::string("usage: rqeval ") + cli::kFlagsUsage +
                " <graph-file> <path|crpq|rq|datalog> <query>");
  }
  const std::string& cls = positional[1];
  const std::string query = cli::LoadArg(positional[2]);
  return cli::RunObserved(
      flags, {"rqeval", cls, query, cls + " " + query, kErrorExit},
      [&] { return RunEval(positional[0], cls, query); });
}

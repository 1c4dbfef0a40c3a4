// rqcheck — command-line containment checker for every query class in the
// paper's ladder.
//
//   rqcheck [--trace] [--profile] [--profile-json <path>]
//           [--stats-json <path>] [--chrome-trace <path>]
//           [--flight-dump <path>] [--prometheus <path>]
//           [--cache] [--jobs N] [--timeout-ms N] [--memory-budget-mb N]
//           <class> <query1> <query2>
//     class  : rpq | 2rpq | cq | ucq | uc2rpq | rq | rq-equiv | datalog
//     queryN : query text, or @path to read the text from a file
//     --trace             print the span tree of the check (plus non-zero
//                         counters/gauges/histograms and any dropped-span
//                         count) to stderr
//     --profile           print an EXPLAIN ANALYZE-style per-query report
//                         (counter deltas, windowed distributions, gauge
//                         levels, batch-worker rows) after the verdict
//     --profile-json <path> write the same report as JSON (schema
//                         "rq-profile/1") to <path>
//     --stats-json <path> write the observability snapshot (counters,
//                         gauges, histograms, spans; schema "rq-obs/2")
//                         to <path>
//     --chrome-trace <path> write the spans as Chrome trace-event JSON
//                         (Perfetto / chrome://tracing; one lane per
//                         batch worker thread)
//     --flight-dump <path> write the flight recorder's ring of completed
//                         queries plus the slow-query log to <path>
//                         ("-" = stderr); the ring also dumps to stderr
//                         from the fatal-signal handler
//     --prometheus <path> write every counter, gauge, and histogram in
//                         Prometheus text exposition format to <path>
//     --cache             enable the content-addressed automata/verdict
//                         cache (docs/CACHING.md); cache.* counters report
//                         hits/misses/evictions
//     --jobs N            worker threads for batched per-disjunct
//                         containment checks (default 1 = serial)
//     --timeout-ms N      wall-clock budget for the whole check; expiry
//                         fails with DeadlineExceeded (exit 3) instead of
//                         hanging, and bumps the deadline.expired counter
//                         (docs/ROBUSTNESS.md)
//     --memory-budget-mb N byte budget for the whole check (common/mem.h):
//                         crossing it fails with ResourceExhausted
//                         (exit 4, not a crash) through the same polling
//                         sites as --timeout-ms, and bumps the
//                         mem.budget_exceeded counter. The check always
//                         runs under an ExecContext, so --profile reports a
//                         per-subsystem peak-byte breakdown either way
//                         (docs/OBSERVABILITY.md "Memory accounting")
//
// Examples:
//   rqcheck 2rpq 'p' 'p p- p'
//   rqcheck cq 'q(x,y) :- e(x,y), e(y,z)' 'q(x,y) :- e(x,y)'
//   rqcheck rq 'q(x,y) := tc[x,y](a(x,y) & b(x,y))' 'q(x,y) := tc[x,y](a(x,y))'
//   rqcheck datalog @prog1.dl @prog2.dl
//
// Exit code: 0 = contained (proved), 1 = refuted, 2 = unknown-up-to-bound,
// 3 = usage/parse error, 4 = memory budget exceeded.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <vector>

#include "cache/automata_cache.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "containment/batch.h"
#include "containment/containment.h"
#include "rq/equivalence.h"
#include "crpq/crpq.h"
#include "obs/chrome_trace.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "pathquery/containment.h"
#include "relational/cq.h"
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

int Report(Certainty certainty, const std::string& method,
           const std::optional<Database>& counterexample) {
  std::printf("verdict: %s (method: %s)\n", CertaintyName(certainty),
              method.c_str());
  if (counterexample.has_value()) {
    std::printf("counterexample database:\n%s",
                counterexample->ToString().c_str());
  }
  switch (certainty) {
    case Certainty::kProved:
      return 0;
    case Certainty::kRefuted:
      return 1;
    case Certainty::kUnknownUpToBound:
      return 2;
  }
  return 3;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "rqcheck: %s\n", message.c_str());
  return 3;
}

int RunCheck(const std::string& cls, const std::string& t1,
             const std::string& t2) {

  if (cls == "rpq" || cls == "2rpq") {
    Alphabet alphabet;
    auto r1 = ParseRegex(t1, &alphabet);
    auto r2 = ParseRegex(t2, &alphabet);
    if (!r1.ok()) return Fail(r1.status().ToString());
    if (!r2.ok()) return Fail(r2.status().ToString());
    PathContainmentResult result =
        CheckPathQueryContainment(**r1, **r2, alphabet);
    if (!result.status.ok()) return Fail(result.status.ToString());
    std::printf("verdict: %s (pipeline: %s)\n",
                result.contained ? "proved" : "refuted",
                result.used_fold_pipeline ? "2rpq-fold" : "lemma1");
    if (!result.contained) {
      std::printf("counterexample word: %s\n",
                  WordToString(alphabet, result.counterexample).c_str());
    }
    return result.contained ? 0 : 1;
  }
  if (cls == "cq" || cls == "ucq") {
    auto q1 = ParseUcq(t1);
    auto q2 = ParseUcq(t2);
    if (!q1.ok()) return Fail(q1.status().ToString());
    if (!q2.ok()) return Fail(q2.status().ToString());
    auto contained = UcqContained(*q1, *q2);
    if (!contained.ok()) return Fail(contained.status().ToString());
    std::printf("verdict: %s (method: %s)\n",
                *contained ? "proved" : "refuted",
                q1->disjuncts.size() == 1 && q2->disjuncts.size() == 1
                    ? "chandra-merlin"
                    : "sagiv-yannakakis");
    return *contained ? 0 : 1;
  }
  if (cls == "uc2rpq") {
    Alphabet alphabet;
    auto q1 = ParseUc2Rpq(t1, &alphabet);
    auto q2 = ParseUc2Rpq(t2, &alphabet);
    if (!q1.ok()) return Fail(q1.status().ToString());
    if (!q2.ok()) return Fail(q2.status().ToString());
    auto result = CheckUc2RpqContainment(*q1, *q2, alphabet);
    if (!result.ok()) return Fail(result.status().ToString());
    std::printf("verdict: %s (method: %s)\n",
                CertaintyName(result->certainty), result->method.c_str());
    if (result->truncated) {
      std::printf(
          "note: expansion set truncated at the budget; verdict covers "
          "only the explored expansions\n");
    }
    if (result->counterexample.has_value()) {
      std::printf("counterexample graph:\n%s",
                  result->counterexample->ToText().c_str());
    }
    return result->certainty == Certainty::kProved    ? 0
           : result->certainty == Certainty::kRefuted ? 1
                                                      : 2;
  }
  if (cls == "rq") {
    auto q1 = ParseRq(t1);
    auto q2 = ParseRq(t2);
    if (!q1.ok()) return Fail(q1.status().ToString());
    if (!q2.ok()) return Fail(q2.status().ToString());
    auto result = CheckRqContainment(*q1, *q2);
    if (!result.ok()) return Fail(result.status().ToString());
    return Report(result->certainty, result->method,
                  result->counterexample);
  }
  if (cls == "rq-equiv") {
    auto q1 = ParseRq(t1);
    auto q2 = ParseRq(t2);
    if (!q1.ok()) return Fail(q1.status().ToString());
    if (!q2.ok()) return Fail(q2.status().ToString());
    auto result = CheckRqEquivalence(*q1, *q2);
    if (!result.ok()) return Fail(result.status().ToString());
    std::printf("verdict: %s (forward: %s/%s, backward: %s/%s)\n",
                EquivalenceVerdictName(result->verdict),
                CertaintyName(result->forward.certainty),
                result->forward.method.c_str(),
                CertaintyName(result->backward.certainty),
                result->backward.method.c_str());
    const auto& refuted =
        result->forward.certainty == Certainty::kRefuted
            ? result->forward
            : result->backward;
    if (refuted.counterexample.has_value()) {
      std::printf("separating database:\n%s",
                  refuted.counterexample->ToString().c_str());
    }
    return result->verdict == EquivalenceVerdict::kEquivalent      ? 0
           : result->verdict == EquivalenceVerdict::kNotEquivalent ? 1
                                                                   : 2;
  }
  if (cls == "datalog") {
    auto q1 = ParseDatalog(t1);
    auto q2 = ParseDatalog(t2);
    if (!q1.ok()) return Fail(q1.status().ToString());
    if (!q2.ok()) return Fail(q2.status().ToString());
    auto result = CheckDatalogContainment(*q1, *q2);
    if (!result.ok()) return Fail(result.status().ToString());
    return Report(result->certainty, result->method,
                  result->counterexample);
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
        "usage: rqcheck [--trace] [--profile] [--profile-json <path>] "
        "[--stats-json <path>] [--chrome-trace <path>] "
        "[--flight-dump <path>] [--prometheus <path>] [--cache] [--jobs N] "
        "[--timeout-ms N] [--memory-budget-mb N] "
        "<rpq|2rpq|cq|ucq|uc2rpq|rq|rq-equiv|datalog> <q1> <q2>");
  }
  // Full tracing when any flag needs span data; counters always run.
  if (trace || !stats_json.empty() || !chrome_trace.empty()) {
    obs::SetTraceMode(obs::TraceMode::kFull);
  }
  obs::InstallFlightSignalHandler();

  const std::string cls = positional[0];
  const std::string q1 = LoadArg(positional[1]);
  const std::string q2 = LoadArg(positional[2]);
  obs::SetFlightQueryLabel(cls + " " + q1 + " <= " + q2);

  obs::QueryProfile profile;
  const bool profiling = profile_text || !profile_json.empty();
  if (profiling) profile.Begin("rqcheck", cls, q1 + "  <=  " + q2);

  // The check always runs under a context (budget 0 = unlimited), so the
  // per-subsystem peak-byte breakdown lands in --profile output and the
  // flight recorder's mem_peak field even without a budget.
  ExecContext ctx(
      timeout_ms > 0 ? Deadline::AfterMillis(timeout_ms)
                     : Deadline::Infinite(),
      /*cancel=*/nullptr,
      memory_budget_mb > 0
          ? static_cast<uint64_t>(memory_budget_mb) * 1024 * 1024
          : 0);
  int code;
  {
    // Scope the context to the check itself so the stats/trace dumps
    // below never run under an expired deadline.
    ScopedExecContext scoped(&ctx);
    code = RunCheck(cls, q1, q2);
  }
  // A check that failed because the byte budget latched gets the distinct
  // resource-exhausted exit code; errors for other reasons keep 3.
  // exceeded() reads the shared pot, so trips latched on batch jobs and
  // worker mirrors count too.
  if (code == 3 && ctx.exceeded()) code = 4;

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

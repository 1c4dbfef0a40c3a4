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
//                         (plan notes, counters, distributions, gauge
//                         levels, memory peaks, batch-worker rows) after
//                         the verdict
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
// 3 = usage/parse/write error, 4 = memory budget exceeded.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli_obs.h"
#include "containment/containment.h"
#include "crpq/crpq.h"
#include "pathquery/containment.h"
#include "relational/cq.h"
#include "rq/equivalence.h"
#include "rq/parser.h"

using namespace rq;  // examples only

namespace {

constexpr int kErrorExit = 3;

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
  return kErrorExit;
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
  cli::ObsFlags flags;
  std::vector<std::string> positional = cli::ParseObsFlags(argc, argv, &flags);
  if (positional.size() != 3) {
    return Fail(
        "usage: rqcheck [--trace] [--profile] [--profile-json <path>] "
        "[--stats-json <path>] [--chrome-trace <path>] "
        "[--flight-dump <path>] [--prometheus <path>] [--cache] [--jobs N] "
        "[--timeout-ms N] [--memory-budget-mb N] "
        "<rpq|2rpq|cq|ucq|uc2rpq|rq|rq-equiv|datalog> <q1> <q2>");
  }
  const std::string cls = positional[0];
  const std::string q1 = cli::LoadArg(positional[1]);
  const std::string q2 = cli::LoadArg(positional[2]);
  return cli::RunObserved(
      flags,
      {"rqcheck", cls, q1 + "  <=  " + q2, cls + " " + q1 + " <= " + q2,
       kErrorExit},
      [&] { return RunCheck(cls, q1, q2); });
}

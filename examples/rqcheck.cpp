// rqcheck — command-line containment checker for every query class in the
// paper's ladder, through the query front door (query/query.h).
//
//   rqcheck [flags] <class> <query1> <query2>
//     class  : rpq | 2rpq | cq | ucq | uc2rpq | rq | rq-equiv | datalog
//     queryN : query text, or @path to read the text from a file
//     flags  : the common flags of cli_obs.h. --jobs N is accepted, but
//              every check runs as one serial procedure; an expired
//              --timeout-ms exits 3.
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
#include <string>
#include <vector>

#include "cli_obs.h"
#include "query/query.h"

using namespace rq;  // examples only

namespace {

constexpr int kErrorExit = 3;

int Fail(const std::string& message) {
  std::fprintf(stderr, "rqcheck: %s\n", message.c_str());
  return kErrorExit;
}

// Decides the pair through the query front door (query/query.h), prints
// the verdict, and returns its exit code.
int RunCheck(const std::string& cls, const std::string& t1,
             const std::string& t2) {
  const bool equivalence = cls == "rq-equiv";
  Result<Verdict> result = equivalence ? CheckEquivalence("rq", t1, t2)
                                       : CheckContainment(cls, t1, t2);
  if (!result.ok()) return Fail(result.status().ToString());
  const Verdict& verdict = *result;
  if (equivalence) {
    const Verdict& forward = verdict.directions[0];
    const Verdict& backward = verdict.directions[1];
    std::printf("verdict: %s (forward: %s/%s, backward: %s/%s)\n",
                EquivalenceName(verdict.certainty),
                CertaintyName(forward.certainty), forward.method.c_str(),
                CertaintyName(backward.certainty), backward.method.c_str());
  } else {
    std::printf("verdict: %s (%s: %s)\n", CertaintyName(verdict.certainty),
                IsPathClass(cls) ? "pipeline" : "method",
                verdict.method.c_str());
  }
  if (verdict.truncated.value_or(false)) {
    std::printf(
        "note: expansion set truncated at the budget; verdict covers "
        "only the explored expansions\n");
  }
  const Counterexample& counterexample = verdict.counterexample;
  if (counterexample.kind == "word") {
    std::printf("counterexample word: %s\n", counterexample.text.c_str());
  } else if (!counterexample.kind.empty()) {
    std::printf("%s %s:\n%s", equivalence ? "separating" : "counterexample",
                counterexample.kind.c_str(), counterexample.text.c_str());
  }
  switch (verdict.certainty) {
    case Certainty::kProved:
      return 0;
    case Certainty::kRefuted:
      return 1;
    case Certainty::kUnknownUpToBound:
      return 2;
  }
  return kErrorExit;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ObsFlags flags;
  std::vector<std::string> positional = cli::ParseObsFlags(argc, argv, &flags);
  if (positional.size() != 3) {
    return Fail(std::string("usage: rqcheck ") + cli::kFlagsUsage +
                " <rpq|2rpq|cq|ucq|uc2rpq|rq|rq-equiv|datalog> <q1> <q2>");
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

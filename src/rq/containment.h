// Containment for Regular Queries (paper §3.4, Theorem 7) and, through the
// GRQ bridge, for Datalog with TC-only recursion (§4.1, Theorem 8).
//
// The exact problem is 2EXPSPACE-complete; as the paper's §4.2 stresses,
// worst-case bounds say little about behavior on real instances. The
// dispatcher below is exact wherever an exact procedure is practical and
// honest about certainty everywhere else:
//
//   1. UC2RPQ dispatch — if both queries lower to UC2RPQs (rq/lower.h),
//      run CheckUc2RpqContainment (crpq/crpq.h): when both sides are
//      unions of chains, i.e. denote 2RPQs, that is the exact PSPACE fold
//      pipeline of Theorem 5. Exact verdicts are final; a bounded one
//      falls through to step 2.
//   2. Exact expansion test — Q1 ⊑ Q2 iff every expansion of Q1, frozen
//      into its canonical database, is answered by Q2 (Q2 is evaluable and
//      monotone, so each individual check is exact). If Q1 is closure-free
//      its expansion set is finite: the verdict is final.
//   3. Bounded expansion search — with closures on the left, expansions are
//      enumerated up to a bound. Any failing expansion is a certified
//      counterexample (final NO). Exhausting the bound yields
//      kUnknownUpToBound, never a claimed YES.
#ifndef RQ_RQ_CONTAINMENT_H_
#define RQ_RQ_CONTAINMENT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"
#include "relational/relation.h"
#include "rq/expand.h"
#include "rq/rq_expr.h"

namespace rq {

enum class Certainty {
  kProved,           // containment holds, exactly decided
  kRefuted,          // containment fails, certificate attached
  kUnknownUpToBound  // no counterexample within the configured bounds
};

const char* CertaintyName(Certainty certainty);

// Maps a certainty onto the flight recorder's verdict codes
// (obs/flight_recorder.h): proved → ok, refuted → refuted,
// unknown-up-to-bound → unknown. Shared by every containment entry point
// that records a flight summary.
int32_t FlightVerdictFromCertainty(Certainty certainty);

struct RqContainmentOptions {
  RqExpandLimits expand;
  // Step 1, the UC2RPQ dispatch; false sends every pair to the expansions.
  bool try_two_rpq_dispatch = true;
};

struct RqContainmentResult {
  Certainty certainty = Certainty::kUnknownUpToBound;
  // Which procedure decided: "uc2rpq:" followed by the UC2RPQ method
  // ("uc2rpq:2rpq-fold", "uc2rpq:expansion-exact", "uc2rpq:expansion"),
  // "expansion-exact", "expansion-bounded" or "structural".
  std::string method;
  // When refuted: a database on which q1 answers `witness_tuple` but q2
  // does not.
  std::optional<Database> counterexample;
  Tuple witness_tuple;
  size_t expansions_checked = 0;

  bool Contained() const { return certainty == Certainty::kProved; }
  bool Refuted() const { return certainty == Certainty::kRefuted; }
};

// Decides (or bounds) q1 ⊑ q2. Head arities must match.
Result<RqContainmentResult> CheckRqContainment(
    const RqQuery& q1, const RqQuery& q2,
    const RqContainmentOptions& options = {});

}  // namespace rq

#endif  // RQ_RQ_CONTAINMENT_H_

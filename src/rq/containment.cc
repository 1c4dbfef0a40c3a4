#include "rq/containment.h"

#include "common/deadline.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "obs/subsystems.h"
#include "obs/trace.h"
#include "rq/eval.h"
#include "rq/lower.h"
#include "rq/structural.h"

namespace rq {

const char* CertaintyName(Certainty certainty) {
  switch (certainty) {
    case Certainty::kProved:
      return "proved";
    case Certainty::kRefuted:
      return "refuted";
    case Certainty::kUnknownUpToBound:
      return "unknown-up-to-bound";
  }
  return "?";
}

int32_t FlightVerdictFromCertainty(Certainty certainty) {
  switch (certainty) {
    case Certainty::kProved:
      return obs::kFlightVerdictOk;
    case Certainty::kRefuted:
      return obs::kFlightVerdictRefuted;
    case Certainty::kUnknownUpToBound:
      return obs::kFlightVerdictUnknown;
  }
  return obs::kFlightVerdictError;
}

namespace {

// Dispatcher body; the public CheckRqContainment wraps it with flight
// recording and per-query profile annotation.
Result<RqContainmentResult> CheckRqContainmentImpl(
    const RqQuery& q1, const RqQuery& q2,
    const RqContainmentOptions& options) {
  RQ_TRACE_SPAN("rq.containment");
  RQ_RETURN_IF_ERROR(q1.Validate());
  RQ_RETURN_IF_ERROR(q2.Validate());
  if (q1.arity() != q2.arity()) {
    return InvalidArgumentError("CheckRqContainment: head arity mismatch");
  }
  RqContainmentResult result;

  // Step 1: UC2RPQ dispatch when both sides lower to unions of
  // conjunctive 2RPQs. The UC2RPQ checker decides a pair of unions of
  // chains by Theorem 5's fold and finite-language instances by their
  // expansions; its bounded verdicts are ignored in favor of the RQ
  // machinery below.
  if (options.try_two_rpq_dispatch) {
    Alphabet alphabet;
    std::optional<Uc2Rpq> u1 = TryLowerToUc2Rpq(q1, &alphabet);
    std::optional<Uc2Rpq> u2 =
        u1.has_value() ? TryLowerToUc2Rpq(q2, &alphabet) : std::nullopt;
    if (u1.has_value() && u2.has_value()) {
      RQ_ASSIGN_OR_RETURN(CrpqContainmentResult crpq,
                          CheckUc2RpqContainment(*u1, *u2, alphabet));
      if (crpq.certainty != Certainty::kUnknownUpToBound) {
        obs::RqCounters::Get().dispatch_uc2rpq.Increment();
        result.method = "uc2rpq:" + crpq.method;
        result.certainty = crpq.certainty;
        if (crpq.counterexample.has_value()) {
          result.counterexample = GraphToDatabase(*crpq.counterexample);
          result.witness_tuple = crpq.witness_tuple;
        }
        return result;
      }
    }
  }

  // Steps 2-3: expansion-based testing. Q2 evaluated on the canonical
  // database of each expansion of Q1 must answer the frozen head.
  RQ_ASSIGN_OR_RETURN(RqExpansions expansions,
                      ExpandRq(q1, options.expand));
  obs::RqCounters& counters = obs::RqCounters::Get();
  counters.dispatch_expansion.Increment();
  result.method =
      expansions.complete ? "expansion-exact" : "expansion-bounded";
  for (const ConjunctiveQuery& cq : expansions.expansions) {
    RQ_RETURN_IF_ERROR(CheckExecContext());
    ++result.expansions_checked;
    counters.expansion_checks.Increment();
    Database canonical = cq.CanonicalDatabase();
    RQ_ASSIGN_OR_RETURN(Relation answers, EvalRqQuery(canonical, q2));
    if (!answers.Contains(cq.FrozenHead())) {
      result.certainty = Certainty::kRefuted;
      result.counterexample = std::move(canonical);
      result.witness_tuple = cq.FrozenHead();
      return result;
    }
  }
  if (expansions.complete) {
    result.certainty = Certainty::kProved;
    return result;
  }
  // No counterexample within the bound and the expansion set is
  // incomplete: try the sound structural proof rules (TC-monotonicity,
  // disjunct selection, congruences) before settling for unknown.
  if (StructurallyContained(q1, q2, options)) {
    counters.dispatch_structural.Increment();
    result.certainty = Certainty::kProved;
    result.method = "structural";
    return result;
  }
  result.certainty = Certainty::kUnknownUpToBound;
  return result;
}

}  // namespace

Result<RqContainmentResult> CheckRqContainment(
    const RqQuery& q1, const RqQuery& q2,
    const RqContainmentOptions& options) {
  obs::FlightTimer timer(obs::QueryKind::kRqContainment);
  Result<RqContainmentResult> result =
      CheckRqContainmentImpl(q1, q2, options);
  if (!result.ok()) {
    timer.Finish(obs::FlightVerdictFromError(result.status()), 0);
    return result;
  }
  timer.Finish(FlightVerdictFromCertainty(result->certainty),
               result->expansions_checked);
  if (obs::QueryProfile* profile = obs::CurrentProfile()) {
    profile->AddNote("rq.method", result->method);
  }
  return result;
}

}  // namespace rq

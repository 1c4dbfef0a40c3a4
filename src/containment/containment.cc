#include "containment/containment.h"

#include "common/deadline.h"
#include "datalog/eval.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "rq/from_datalog.h"

namespace rq {

namespace {

// Dispatcher body; the public CheckDatalogContainment wraps it with flight
// recording and per-query profile annotation.
Result<RqContainmentResult> CheckDatalogContainmentImpl(
    const DatalogProgram& q1, const DatalogProgram& q2,
    const DatalogContainmentOptions& options) {
  RQ_RETURN_IF_ERROR(q1.Validate());
  RQ_RETURN_IF_ERROR(q2.Validate());
  if (q1.goal() == kInvalidPred || q2.goal() == kInvalidPred) {
    return InvalidArgumentError("CheckDatalogContainment: goals required");
  }
  if (q1.PredicateArity(q1.goal()) != q2.PredicateArity(q2.goal())) {
    return InvalidArgumentError(
        "CheckDatalogContainment: goal arity mismatch");
  }

  // Theorem 8 route: both programs in the GRQ fragment reduce to RQ
  // containment.
  if (options.try_grq) {
    Result<RqQuery> rq1 = DatalogToRq(q1);
    Result<RqQuery> rq2 = DatalogToRq(q2);
    if (rq1.ok() && rq2.ok()) {
      RQ_ASSIGN_OR_RETURN(
          RqContainmentResult result,
          CheckRqContainment(*rq1, *rq2, options.rq));
      result.method = "grq:" + result.method;
      return result;
    }
  }

  // Fallback: bounded proof-tree expansions of q1, each checked exactly by
  // evaluating q2 on the expansion's canonical database.
  RQ_ASSIGN_OR_RETURN(DatalogExpansions expansions,
                      ExpandDatalog(q1, options.expand));
  bool complete = !expansions.truncated && !expansions.depth_limited;
  RqContainmentResult result;
  result.method =
      complete ? "datalog-expansion-exact" : "datalog-expansion-bounded";
  for (const ConjunctiveQuery& cq : expansions.expansions) {
    RQ_RETURN_IF_ERROR(CheckExecContext());
    ++result.expansions_checked;
    Database canonical = cq.CanonicalDatabase();
    RQ_ASSIGN_OR_RETURN(
        Relation answers,
        EvalDatalogGoal(q2, canonical, DatalogEvalMode::kSemiNaive));
    if (!answers.Contains(cq.FrozenHead())) {
      result.certainty = Certainty::kRefuted;
      result.counterexample = std::move(canonical);
      result.witness_tuple = cq.FrozenHead();
      return result;
    }
  }
  result.certainty =
      complete ? Certainty::kProved : Certainty::kUnknownUpToBound;
  return result;
}

}  // namespace

Result<RqContainmentResult> CheckDatalogContainment(
    const DatalogProgram& q1, const DatalogProgram& q2,
    const DatalogContainmentOptions& options) {
  obs::FlightTimer timer(obs::QueryKind::kDatalogContainment);
  Result<RqContainmentResult> result =
      CheckDatalogContainmentImpl(q1, q2, options);
  if (!result.ok()) {
    timer.Finish(obs::FlightVerdictFromError(result.status()), 0);
    return result;
  }
  timer.Finish(FlightVerdictFromCertainty(result->certainty),
               result->expansions_checked);
  if (obs::QueryProfile* profile = obs::CurrentProfile()) {
    profile->AddNote("datalog.method", result->method);
  }
  return result;
}

}  // namespace rq

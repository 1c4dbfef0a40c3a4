#include "query/query.h"

#include <utility>

#include "common/deadline.h"
#include "common/scanner.h"
#include "containment/batch.h"
#include "containment/containment.h"
#include "datalog/eval.h"
#include "obs/profile.h"
#include "pathquery/containment.h"
#include "relational/cq.h"
#include "regex/regex.h"
#include "rq/equivalence.h"
#include "rq/eval.h"
#include "rq/from_datalog.h"
#include "rq/lower.h"
#include "rq/parser.h"

namespace rq {

namespace {

Verdict FromRq(const RqContainmentResult& result) {
  Verdict verdict;
  verdict.certainty = result.certainty;
  verdict.method = result.method;
  if (result.counterexample.has_value()) {
    verdict.counterexample = {"database", result.counterexample->ToString()};
  }
  return verdict;
}

// Decides q1 ⊑ q2 for regexes, and q2 ⊑ q1 too when `both`, as one batch
// of jobs under the caller's installed context: its deadline, cancel token
// and byte budget bound both directions, and the shared automata cache
// deduplicates sub-constructions across concurrent checks.
Result<std::vector<Verdict>> CheckPaths(std::string_view q1,
                                        std::string_view q2, bool both) {
  Alphabet alphabet;
  RQ_ASSIGN_OR_RETURN(RegexPtr r1, ParseRegex(q1, &alphabet));
  RQ_ASSIGN_OR_RETURN(RegexPtr r2, ParseRegex(q2, &alphabet));
  std::vector<PathContainmentJob> jobs = {{r1.get(), r2.get()}};
  if (both) jobs.push_back({r2.get(), r1.get()});
  std::vector<Verdict> verdicts;
  for (const PathContainmentResult& result :
       CheckPathContainmentBatch(jobs, alphabet)) {
    RQ_RETURN_IF_ERROR(result.status);
    Verdict& verdict = verdicts.emplace_back();
    verdict.certainty =
        result.contained ? Certainty::kProved : Certainty::kRefuted;
    verdict.method = result.used_fold_pipeline ? "2rpq-fold" : "lemma1";
    if (!result.contained) {
      verdict.counterexample = {"word",
                                WordToString(alphabet, result.counterexample)};
    }
  }
  return verdicts;
}

}  // namespace

bool IsPathClass(std::string_view cls) { return cls == "rpq" || cls == "2rpq"; }

Result<Verdict> CheckContainment(std::string_view cls, std::string_view q1,
                                 std::string_view q2) {
  if (IsPathClass(cls)) {
    RQ_ASSIGN_OR_RETURN(std::vector<Verdict> verdicts,
                        CheckPaths(q1, q2, /*both=*/false));
    return std::move(verdicts[0]);
  }
  if (cls == "cq" || cls == "ucq") {
    RQ_ASSIGN_OR_RETURN(UnionOfConjunctiveQueries u1, ParseUcq(q1));
    RQ_ASSIGN_OR_RETURN(UnionOfConjunctiveQueries u2, ParseUcq(q2));
    RQ_ASSIGN_OR_RETURN(bool contained, UcqContained(u1, u2));
    Verdict verdict;
    verdict.certainty = contained ? Certainty::kProved : Certainty::kRefuted;
    verdict.method = u1.disjuncts.size() == 1 && u2.disjuncts.size() == 1
                         ? "chandra-merlin"
                         : "sagiv-yannakakis";
    return verdict;
  }
  if (cls == "uc2rpq") {
    Alphabet alphabet;
    RQ_ASSIGN_OR_RETURN(Uc2Rpq u1, ParseUc2Rpq(q1, &alphabet));
    RQ_ASSIGN_OR_RETURN(Uc2Rpq u2, ParseUc2Rpq(q2, &alphabet));
    RQ_ASSIGN_OR_RETURN(CrpqContainmentResult result,
                        CheckUc2RpqContainment(u1, u2, alphabet));
    Verdict verdict;
    verdict.certainty = result.certainty;
    verdict.method = result.method;
    verdict.truncated = result.truncated;
    if (result.counterexample.has_value()) {
      verdict.counterexample = {"graph", result.counterexample->ToText()};
    }
    return verdict;
  }
  if (cls == "rq") {
    RQ_ASSIGN_OR_RETURN(RqQuery r1, ParseRq(q1));
    RQ_ASSIGN_OR_RETURN(RqQuery r2, ParseRq(q2));
    RQ_ASSIGN_OR_RETURN(RqContainmentResult result,
                        CheckRqContainment(r1, r2));
    return FromRq(result);
  }
  if (cls == "datalog") {
    RQ_ASSIGN_OR_RETURN(DatalogProgram p1, ParseDatalog(q1));
    RQ_ASSIGN_OR_RETURN(DatalogProgram p2, ParseDatalog(q2));
    RQ_ASSIGN_OR_RETURN(RqContainmentResult result,
                        CheckDatalogContainment(p1, p2));
    return FromRq(result);
  }
  return InvalidArgumentError("unknown containment class '" + Excerpt(cls) +
                              "' (rpq|2rpq|cq|ucq|uc2rpq|rq|datalog)");
}

Result<Verdict> CheckEquivalence(std::string_view cls, std::string_view q1,
                                 std::string_view q2) {
  Verdict verdict;
  if (IsPathClass(cls)) {
    RQ_ASSIGN_OR_RETURN(verdict.directions, CheckPaths(q1, q2, /*both=*/true));
  } else if (cls == "rq") {
    RQ_ASSIGN_OR_RETURN(RqQuery r1, ParseRq(q1));
    RQ_ASSIGN_OR_RETURN(RqQuery r2, ParseRq(q2));
    RQ_ASSIGN_OR_RETURN(RqEquivalenceResult result,
                        CheckRqEquivalence(r1, r2));
    verdict.directions = {FromRq(result.forward), FromRq(result.backward)};
  } else {
    std::string message = "equivalence supports classes rpq|2rpq|rq, got '" +
                          Excerpt(cls) + "'";
    return cls.empty() ? InvalidArgumentError(std::move(message))
                       : UnimplementedError(std::move(message));
  }
  // Equivalent once both directions are proved; not equivalent once either
  // is refuted, which CheckRqEquivalence reports before checking the
  // other.
  verdict.certainty = Certainty::kProved;
  for (const Verdict& direction : verdict.directions) {
    if (direction.certainty == Certainty::kRefuted) {
      verdict.certainty = Certainty::kRefuted;
      verdict.counterexample = direction.counterexample;
      break;
    }
    if (direction.certainty != Certainty::kProved) {
      verdict.certainty = Certainty::kUnknownUpToBound;
    }
  }
  return verdict;
}

const char* EquivalenceName(Certainty certainty) {
  using enum EquivalenceVerdict;
  return EquivalenceVerdictName(certainty == Certainty::kProved ? kEquivalent
                                : certainty == Certainty::kRefuted
                                    ? kNotEquivalent
                                    : kUnknownUpToBound);
}

RelationalImage::RelationalImage(std::shared_ptr<const GraphDb> graph)
    : state_(std::make_shared<State>()) {
  state_->graph = std::move(graph);
}

const Database& RelationalImage::operator*() const {
  RQ_CHECK(state_ != nullptr);
  std::call_once(state_->built, [this] {
    state_->database = GraphToDatabase(*state_->graph);
    state_->database.BuildIndexes();
  });
  return state_->database;
}

EvalTarget::EvalTarget(std::shared_ptr<const GraphDb> graph)
    : EvalTarget(graph, graph->Snapshot()) {}

EvalTarget::EvalTarget(std::shared_ptr<const GraphDb> graph,
                       std::shared_ptr<const GraphSnapshot> snapshot)
    : graph(std::move(graph)),
      snapshot(std::move(snapshot)),
      database(this->graph) {}

Result<ParsedQuery> ParseQuery(std::string_view cls, std::string_view text,
                               const Alphabet& alphabet) {
  if (cls == "path") {
    Alphabet labels = alphabet;
    RQ_ASSIGN_OR_RETURN(PathQuery query, ParsePathQuery(text, &labels));
    return ParsedQuery(std::move(query));
  }
  if (cls == "crpq") {
    Alphabet labels = alphabet;
    RQ_ASSIGN_OR_RETURN(Uc2Rpq query, ParseUc2Rpq(text, &labels));
    return ParsedQuery(std::move(query));
  }
  if (cls == "rq") {
    RQ_ASSIGN_OR_RETURN(RqQuery query, ParseRq(text));
    return ParsedQuery(std::move(query));
  }
  if (cls == "datalog") {
    RQ_ASSIGN_OR_RETURN(DatalogProgram query, ParseDatalog(text));
    return ParsedQuery(std::move(query));
  }
  return InvalidArgumentError("unknown eval class '" + Excerpt(cls) +
                              "' (path|crpq|rq|datalog)");
}

namespace {

// Notes the route an eval took in the query's profile, if it has one.
void NoteRoute(const char* route) {
  if (obs::QueryProfile* profile = obs::CurrentProfile()) {
    profile->AddNote("eval.route", route);
  }
}

// The rows of a kernel answer.
Result<SortedRows> KernelRows(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  // The kernel reports deadline/budget truncation through the installed
  // context, not a Status return: surface it rather than answer with a
  // silently partial set.
  RQ_RETURN_IF_ERROR(CheckExecContext());
  // Product-BFS returns its pairs sorted and duplicate-free: they are the
  // rows as they stand.
  SortedRows rows;
  rows.arity = 2;
  rows.rows = pairs.size();
  rows.values.reserve(2 * pairs.size());
  for (const auto& [x, y] : pairs) {
    rows.values.push_back(x);
    rows.values.push_back(y);
  }
  return rows;
}

Result<SortedRows> EngineRows(const Result<Relation>& answer) {
  if (!answer.ok()) return answer.status();
  return SortRows(*answer);
}

// The nodes with a step over one of `symbols`, ascending.
std::vector<NodeId> NodesWithSteps(const GraphSnapshot& snapshot,
                                   const std::vector<Symbol>& symbols) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < snapshot.num_nodes(); ++v) {
    for (Symbol symbol : symbols) {
      if (!snapshot.Successors(v, symbol).empty()) {
        nodes.push_back(v);
        break;
      }
    }
  }
  return nodes;
}

}  // namespace

Result<SortedRows> Evaluate(const ParsedQuery& query,
                            const EvalTarget& target) {
  const GraphSnapshot& snapshot = *target.snapshot;
  if (const PathQuery* path = std::get_if<PathQuery>(&query)) {
    NoteRoute("kernel");
    return KernelRows(EvalPathQuery(snapshot, *path->regex));
  }
  if (const Uc2Rpq* crpq = std::get_if<Uc2Rpq>(&query)) {
    if (std::optional<RegexPtr> regex = TryLowerUc2Rpq(*crpq)) {
      NoteRoute("kernel");
      return KernelRows(EvalPathQuery(snapshot, **regex));
    }
    NoteRoute("join");
    return EngineRows(EvalUc2Rpq(snapshot, *crpq));
  }
  // RQ and Datalog name graph labels; they intern into a copy of the
  // graph's alphabet, as path and crpq labels do at parse time.
  Alphabet labels = target.graph->alphabet();
  if (const RqQuery* rq = std::get_if<RqQuery>(&query)) {
    if (std::optional<Uc2Rpq> crpq = TryLowerToUc2Rpq(*rq, &labels)) {
      if (std::optional<RegexPtr> regex = TryLowerUc2Rpq(*crpq)) {
        NoteRoute("kernel");
        return KernelRows(EvalPathQuery(snapshot, **regex));
      }
    }
    NoteRoute("rq-algebra");
    return EngineRows(EvalRqQuery(*target.database, *rq));
  }
  const DatalogProgram& program = std::get<DatalogProgram>(query);
  if (std::optional<ChainAutomaton> chain =
          TryLowerLinearChain(program, &labels)) {
    NoteRoute("kernel");
    const std::vector<NodeId> sources =
        NodesWithSteps(snapshot, chain->domain);
    return KernelRows(
        EvalPathQueryNfaFrom(snapshot, KernelNfa(chain->nfa), sources));
  }
  NoteRoute("semi-naive");
  return EngineRows(EvalDatalogGoal(program, *target.database));
}

}  // namespace rq

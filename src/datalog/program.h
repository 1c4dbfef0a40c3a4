// Datalog programs (paper §2.2): Horn rules over predicates, a designated
// goal predicate, the dependence graph, and the structural classifications
// the paper discusses (nonrecursive, monadic, linear).
#ifndef RQ_DATALOG_PROGRAM_H_
#define RQ_DATALOG_PROGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "relational/matcher.h"

namespace rq {

using PredId = uint32_t;

inline constexpr PredId kInvalidPred = 0xffffffffu;

struct DatalogAtom {
  PredId predicate;
  std::vector<VarId> vars;
};

// One Horn rule. Variables are dense ids local to the rule; names optional.
struct DatalogRule {
  DatalogAtom head;
  std::vector<DatalogAtom> body;
  uint32_t num_vars = 0;
  std::vector<std::string> var_names;
};

class DatalogProgram {
 public:
  DatalogProgram() = default;

  // Interns a predicate; fails on arity mismatch with a previous use.
  Result<PredId> InternPredicate(std::string_view name, size_t arity);
  Result<PredId> FindPredicate(std::string_view name) const;

  const std::string& PredicateName(PredId p) const {
    RQ_CHECK(p < names_.size());
    return names_[p];
  }
  size_t PredicateArity(PredId p) const {
    RQ_CHECK(p < arities_.size());
    return arities_[p];
  }
  size_t num_predicates() const { return names_.size(); }

  void AddRule(DatalogRule rule);
  const std::vector<DatalogRule>& rules() const { return rules_; }

  void SetGoal(PredId goal) { goal_ = goal; }
  PredId goal() const { return goal_; }

  // A predicate is intensional (IDB) iff it occurs in some rule head.
  bool IsIdb(PredId p) const;
  std::vector<PredId> IdbPredicates() const;
  std::vector<PredId> EdbPredicates() const;

  // Range restriction, goal validity, body predicates known.
  Status Validate() const;

  // Strongly connected components of the dependence graph, in topological
  // order (dependencies first). Only predicates that occur in the program
  // appear. An SCC is "recursive" if it has >1 predicate or a self-loop.
  struct Scc {
    std::vector<PredId> predicates;
    bool recursive = false;
  };
  std::vector<Scc> DependencySccs() const;

  // A predicate is recursive if it lies in a recursive SCC.
  std::vector<bool> RecursivePredicates() const;

  bool IsRecursive() const;
  // Monadic Datalog: every recursive predicate has arity 1 (§2.3).
  bool IsMonadic() const;
  // Linear: every rule body contains at most one atom from the head's SCC.
  bool IsLinear() const;

  // Rules whose head is `p`.
  std::vector<const DatalogRule*> RulesFor(PredId p) const;

  std::string ToString() const;

 private:
  std::vector<std::string> names_;
  std::vector<size_t> arities_;
  std::unordered_map<std::string, PredId> index_;
  std::vector<DatalogRule> rules_;
  PredId goal_ = kInvalidPred;
};

// Parses a textual program:
//   path(X, Y) :- edge(X, Y).
//   path(X, Z) :- path(X, Y), edge(Y, Z).
//   ?- path.
// One statement per line. Rules end with '.'; '#' or '%' starts a comment
// line; "?- name." sets the goal (optional; the goal can also be set
// programmatically).
Result<DatalogProgram> ParseDatalog(std::string_view text);

std::string RuleToString(const DatalogProgram& program,
                         const DatalogRule& rule);

}  // namespace rq

#endif  // RQ_DATALOG_PROGRAM_H_

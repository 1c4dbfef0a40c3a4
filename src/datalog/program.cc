#include "datalog/program.h"

#include <algorithm>

#include "common/scanner.h"

namespace rq {

Result<PredId> DatalogProgram::InternPredicate(std::string_view name,
                                               size_t arity) {
  auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    if (arities_[it->second] != arity) {
      return InvalidArgumentError(
          "predicate " + Excerpt(name) + " used with arity " +
          std::to_string(arity) + " but declared with arity " +
          std::to_string(arities_[it->second]));
    }
    return it->second;
  }
  PredId id = static_cast<PredId>(names_.size());
  names_.emplace_back(name);
  arities_.push_back(arity);
  index_.emplace(names_.back(), id);
  return id;
}

Result<PredId> DatalogProgram::FindPredicate(std::string_view name) const {
  auto it = index_.find(std::string(name));
  if (it == index_.end()) {
    return NotFoundError("unknown predicate: " + Excerpt(name));
  }
  return it->second;
}

void DatalogProgram::AddRule(DatalogRule rule) {
  rules_.push_back(std::move(rule));
}

bool DatalogProgram::IsIdb(PredId p) const {
  for (const DatalogRule& rule : rules_) {
    if (rule.head.predicate == p) return true;
  }
  return false;
}

std::vector<PredId> DatalogProgram::IdbPredicates() const {
  std::vector<bool> idb(num_predicates(), false);
  for (const DatalogRule& rule : rules_) idb[rule.head.predicate] = true;
  std::vector<PredId> out;
  for (PredId p = 0; p < num_predicates(); ++p) {
    if (idb[p]) out.push_back(p);
  }
  return out;
}

std::vector<PredId> DatalogProgram::EdbPredicates() const {
  std::vector<bool> idb(num_predicates(), false);
  for (const DatalogRule& rule : rules_) idb[rule.head.predicate] = true;
  std::vector<PredId> out;
  for (PredId p = 0; p < num_predicates(); ++p) {
    if (!idb[p]) out.push_back(p);
  }
  return out;
}

Status DatalogProgram::Validate() const {
  for (const DatalogRule& rule : rules_) {
    if (rule.head.predicate >= num_predicates()) {
      return InvalidArgumentError("rule head predicate out of range");
    }
    if (rule.head.vars.size() != arities_[rule.head.predicate]) {
      return InvalidArgumentError("rule head arity mismatch for " +
                                  Excerpt(names_[rule.head.predicate]));
    }
    if (rule.body.empty()) {
      return InvalidArgumentError(
          "rule for " + Excerpt(names_[rule.head.predicate]) +
          " has an empty body (facts belong in the EDB)");
    }
    std::vector<bool> in_body(rule.num_vars, false);
    for (const DatalogAtom& atom : rule.body) {
      if (atom.predicate >= num_predicates()) {
        return InvalidArgumentError("body predicate out of range");
      }
      if (atom.vars.size() != arities_[atom.predicate]) {
        return InvalidArgumentError("body arity mismatch for " +
                                    Excerpt(names_[atom.predicate]));
      }
      for (VarId v : atom.vars) {
        if (v >= rule.num_vars) {
          return InvalidArgumentError("body variable id out of range");
        }
        in_body[v] = true;
      }
    }
    for (VarId v : rule.head.vars) {
      if (v >= rule.num_vars) {
        return InvalidArgumentError("head variable id out of range");
      }
      if (!in_body[v]) {
        return InvalidArgumentError(
            "rule for " + Excerpt(names_[rule.head.predicate]) +
            " is not range restricted (head variable not in body)");
      }
    }
  }
  if (goal_ != kInvalidPred && goal_ >= num_predicates()) {
    return InvalidArgumentError("goal predicate out of range");
  }
  return Status::Ok();
}

std::vector<DatalogProgram::Scc> DatalogProgram::DependencySccs() const {
  // Dependence edges: body predicate -> head predicate ("head depends on
  // body"). Tarjan emits SCCs in reverse topological order of the condensed
  // graph over these edges; we want dependencies first, which is exactly
  // Tarjan's emission order when edges point body -> head... To keep the
  // reasoning simple we build successor lists body->head and reverse the
  // final SCC list as needed.
  const size_t n = num_predicates();
  std::vector<std::vector<PredId>> succ(n);
  for (const DatalogRule& rule : rules_) {
    for (const DatalogAtom& atom : rule.body) {
      succ[atom.predicate].push_back(rule.head.predicate);
    }
  }
  for (auto& s : succ) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }

  // Iterative Tarjan.
  std::vector<uint32_t> indexes(n, 0xffffffffu);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<PredId> stack;
  std::vector<Scc> sccs;
  uint32_t counter = 0;

  struct Frame {
    PredId v;
    size_t child;
  };
  for (PredId root = 0; root < n; ++root) {
    if (indexes[root] != 0xffffffffu) continue;
    std::vector<Frame> frames{{root, 0}};
    indexes[root] = lowlink[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.child < succ[frame.v].size()) {
        PredId w = succ[frame.v][frame.child++];
        if (indexes[w] == 0xffffffffu) {
          indexes[w] = lowlink[w] = counter++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[frame.v] = std::min(lowlink[frame.v], indexes[w]);
        }
      } else {
        PredId v = frame.v;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] =
              std::min(lowlink[frames.back().v], lowlink[v]);
        }
        if (lowlink[v] == indexes[v]) {
          Scc scc;
          for (;;) {
            PredId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.predicates.push_back(w);
            if (w == v) break;
          }
          std::sort(scc.predicates.begin(), scc.predicates.end());
          sccs.push_back(std::move(scc));
        }
      }
    }
  }
  // Tarjan emits an SCC only after all SCCs it can reach; with edges
  // body->head, an SCC is emitted after everything derivable FROM it. We
  // need dependencies (bodies) first, i.e. reverse emission order.
  std::reverse(sccs.begin(), sccs.end());

  // Mark recursive SCCs (size > 1, or a self-dependence).
  std::vector<uint32_t> scc_of(n, 0);
  for (uint32_t i = 0; i < sccs.size(); ++i) {
    for (PredId p : sccs[i].predicates) scc_of[p] = i;
  }
  for (const DatalogRule& rule : rules_) {
    for (const DatalogAtom& atom : rule.body) {
      if (scc_of[atom.predicate] == scc_of[rule.head.predicate]) {
        sccs[scc_of[rule.head.predicate]].recursive = true;
      }
    }
  }
  for (Scc& scc : sccs) {
    if (scc.predicates.size() > 1) scc.recursive = true;
  }
  return sccs;
}

std::vector<bool> DatalogProgram::RecursivePredicates() const {
  std::vector<bool> out(num_predicates(), false);
  for (const Scc& scc : DependencySccs()) {
    if (scc.recursive) {
      for (PredId p : scc.predicates) out[p] = true;
    }
  }
  return out;
}

bool DatalogProgram::IsRecursive() const {
  for (const Scc& scc : DependencySccs()) {
    if (scc.recursive) return true;
  }
  return false;
}

bool DatalogProgram::IsMonadic() const {
  std::vector<bool> recursive = RecursivePredicates();
  for (PredId p = 0; p < num_predicates(); ++p) {
    if (recursive[p] && PredicateArity(p) != 1) return false;
  }
  return true;
}

bool DatalogProgram::IsLinear() const {
  std::vector<DatalogProgram::Scc> sccs = DependencySccs();
  std::vector<uint32_t> scc_of(num_predicates(), 0);
  for (uint32_t i = 0; i < sccs.size(); ++i) {
    for (PredId p : sccs[i].predicates) scc_of[p] = i;
  }
  for (const DatalogRule& rule : rules_) {
    int same_scc = 0;
    for (const DatalogAtom& atom : rule.body) {
      if (scc_of[atom.predicate] == scc_of[rule.head.predicate] &&
          sccs[scc_of[atom.predicate]].recursive) {
        ++same_scc;
      }
    }
    if (same_scc > 1) return false;
  }
  return true;
}

std::vector<const DatalogRule*> DatalogProgram::RulesFor(PredId p) const {
  std::vector<const DatalogRule*> out;
  for (const DatalogRule& rule : rules_) {
    if (rule.head.predicate == p) out.push_back(&rule);
  }
  return out;
}

std::string RuleToString(const DatalogProgram& program,
                         const DatalogRule& rule) {
  auto var_name = [&](VarId v) -> std::string {
    if (v < rule.var_names.size() && !rule.var_names[v].empty()) {
      return rule.var_names[v];
    }
    return "V" + std::to_string(v);
  };
  auto atom_str = [&](const DatalogAtom& atom) {
    std::string out = program.PredicateName(atom.predicate);
    out.push_back('(');
    for (size_t i = 0; i < atom.vars.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += var_name(atom.vars[i]);
    }
    out.push_back(')');
    return out;
  };
  std::string out = atom_str(rule.head) + " :- ";
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (i > 0) out += ", ";
    out += atom_str(rule.body[i]);
  }
  out += ".";
  return out;
}

std::string DatalogProgram::ToString() const {
  std::string out;
  for (const DatalogRule& rule : rules_) {
    out += RuleToString(*this, rule);
    out.push_back('\n');
  }
  if (goal_ != kInvalidPred) {
    out += "?- " + names_[goal_] + ".\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

// One `head :- p(v, ...), ... .` rule on the rule front end. Predicates are
// numbered head first, then the body in order.
Status ReadRule(Scanner& scan, DatalogProgram& program) {
  VarTable vars;
  std::vector<RuleAtom> body;
  RQ_ASSIGN_OR_RETURN(RuleAtom head, ParseRule(scan, vars, [&]() -> Status {
    RQ_ASSIGN_OR_RETURN(RuleAtom atom, ParseAtom(scan, vars));
    body.push_back(std::move(atom));
    return Status::Ok();
  }));
  RQ_RETURN_IF_ERROR(scan.Expect("."));
  DatalogRule rule;
  RQ_ASSIGN_OR_RETURN(rule.head.predicate,
                      program.InternPredicate(head.name, head.vars.size()));
  rule.head.vars = std::move(head.vars);
  for (RuleAtom& atom : body) {
    RQ_ASSIGN_OR_RETURN(PredId pred,
                        program.InternPredicate(atom.name, atom.vars.size()));
    rule.body.push_back({pred, std::move(atom.vars)});
  }
  rule.num_vars = vars.size();
  rule.var_names = vars.TakeNames();
  program.AddRule(std::move(rule));
  return Status::Ok();
}

}  // namespace

Result<DatalogProgram> ParseDatalog(std::string_view text) {
  DatalogProgram program;
  RQ_RETURN_IF_ERROR(
      ForEachStatement(text, "datalog", [&](Scanner& scan) -> Status {
        if (!scan.Consume("?-")) return ReadRule(scan, program);
        RQ_ASSIGN_OR_RETURN(std::string_view name,
                            scan.ExpectIdent("goal name"));
        RQ_RETURN_IF_ERROR(scan.Expect("."));
        RQ_RETURN_IF_ERROR(scan.ExpectEnd());
        RQ_ASSIGN_OR_RETURN(PredId goal, program.FindPredicate(name));
        program.SetGoal(goal);
        return Status::Ok();
      }));
  RQ_RETURN_IF_ERROR(program.Validate());
  return program;
}

}  // namespace rq

#include "rq/from_datalog.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace rq {

namespace {

// Translation context: per-predicate canonical expressions whose free
// variables are exactly the positions 0..arity-1. EDB predicates map to
// nullptr (their atoms are emitted directly).
struct GrqTranslator {
  const DatalogProgram& program;
  std::vector<RqExprPtr> exprs;  // per PredId; nullptr for EDB
  std::vector<bool> is_edb;
  uint32_t next_var;

  explicit GrqTranslator(const DatalogProgram& p)
      : program(p),
        exprs(p.num_predicates()),
        is_edb(p.num_predicates(), true) {
    for (PredId pred : p.IdbPredicates()) is_edb[pred] = false;
    uint32_t max_rule_vars = 0;
    for (const DatalogRule& rule : p.rules()) {
      max_rule_vars = std::max(max_rule_vars, rule.num_vars);
    }
    next_var = 64 + max_rule_vars;
  }

  // Converts one body atom into a conjunct over the rule's variable space.
  Result<RqExprPtr> ConvertAtom(const DatalogAtom& atom) {
    if (is_edb[atom.predicate]) {
      return RqExpr::Atom(program.PredicateName(atom.predicate), atom.vars);
    }
    RqExprPtr stored = exprs[atom.predicate];
    RQ_CHECK(stored != nullptr);  // topological order guarantees this
    // Map position i to the atom's i-th variable. Repeated variables map
    // later positions to fresh stand-ins equated with the first occurrence.
    std::vector<std::pair<VarId, VarId>> mapping;
    std::vector<std::pair<VarId, VarId>> equate;  // (target, stand-in)
    std::vector<VarId> stand_ins;
    for (size_t i = 0; i < atom.vars.size(); ++i) {
      bool repeat = false;
      for (size_t j = 0; j < i; ++j) {
        if (atom.vars[j] == atom.vars[i]) {
          repeat = true;
          break;
        }
      }
      if (!repeat) {
        mapping.push_back({static_cast<VarId>(i), atom.vars[i]});
      } else {
        VarId w = next_var++;
        mapping.push_back({static_cast<VarId>(i), w});
        equate.push_back({atom.vars[i], w});
        stand_ins.push_back(w);
      }
    }
    RqExprPtr out = SubstituteFreeVars(stored, mapping, &next_var);
    for (const auto& [target, stand_in] : equate) {
      out = RqExpr::Eq(target, stand_in, std::move(out));
    }
    if (!stand_ins.empty()) {
      out = RqExpr::Exists(std::move(stand_ins), std::move(out));
    }
    return out;
  }

  // Converts a rule body (a subset of atoms) into an expression whose free
  // variables are exactly `interface` (all other body variables projected).
  Result<RqExprPtr> ConvertBody(const std::vector<const DatalogAtom*>& atoms,
                                const std::vector<VarId>& interface) {
    RQ_CHECK(!atoms.empty());
    std::vector<RqExprPtr> conjuncts;
    conjuncts.reserve(atoms.size());
    for (const DatalogAtom* atom : atoms) {
      RQ_ASSIGN_OR_RETURN(RqExprPtr conjunct, ConvertAtom(*atom));
      conjuncts.push_back(std::move(conjunct));
    }
    RqExprPtr body = RqExpr::And(std::move(conjuncts));
    std::vector<VarId> to_project;
    for (VarId v : body->FreeVars()) {
      if (std::find(interface.begin(), interface.end(), v) ==
          interface.end()) {
        to_project.push_back(v);
      }
    }
    if (!to_project.empty()) {
      body = RqExpr::Exists(std::move(to_project), std::move(body));
    }
    // Every interface variable must be constrained by the body.
    std::vector<VarId> expected = interface;
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    if (body->FreeVars() != expected) {
      return InvalidArgumentError(
          "rule body does not connect the required interface variables");
    }
    return body;
  }

  // Renames an expression whose free variables are `from` (distinct) into
  // positional form 0..from.size()-1.
  RqExprPtr ToPositional(const RqExprPtr& expr,
                         const std::vector<VarId>& from) {
    std::vector<std::pair<VarId, VarId>> mapping;
    for (size_t i = 0; i < from.size(); ++i) {
      mapping.push_back({from[i], static_cast<VarId>(i)});
    }
    return SubstituteFreeVars(expr, mapping, &next_var);
  }

  // Nonrecursive rule. Repeated head variables (e.g. P(x, x) :- B(x)) are
  // expressed with one body copy per occurrence plus Eq selections: the
  // copies bind each head position independently, and the selections force
  // the positions equal — exactly the relation the rule defines.
  Result<RqExprPtr> ConvertRule(const DatalogRule& rule) {
    const std::vector<VarId>& head = rule.head.vars;
    std::vector<const DatalogAtom*> atoms;
    for (const DatalogAtom& atom : rule.body) atoms.push_back(&atom);
    std::vector<VarId> distinct = head;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    RQ_ASSIGN_OR_RETURN(RqExprPtr body, ConvertBody(atoms, distinct));

    // First positional occurrence of each head variable.
    std::vector<std::pair<VarId, VarId>> first_map;
    std::vector<std::pair<size_t, size_t>> equal_positions;  // (first, dup)
    for (size_t i = 0; i < head.size(); ++i) {
      size_t first = i;
      for (size_t j = 0; j < i; ++j) {
        if (head[j] == head[i]) {
          first = j;
          break;
        }
      }
      if (first == i) {
        first_map.push_back({head[i], static_cast<VarId>(i)});
      } else {
        equal_positions.push_back({first, i});
      }
    }
    RqExprPtr expr = SubstituteFreeVars(body, first_map, &next_var);
    for (const auto& [first, dup] : equal_positions) {
      // A copy whose occurrence of the repeated variable binds position
      // `dup` instead; all other head variables keep their first positions.
      std::vector<std::pair<VarId, VarId>> copy_map = first_map;
      for (auto& [var, pos] : copy_map) {
        if (var == head[dup]) pos = static_cast<VarId>(dup);
      }
      RqExprPtr copy = SubstituteFreeVars(body, copy_map, &next_var);
      expr = RqExpr::Eq(static_cast<VarId>(first), static_cast<VarId>(dup),
                        RqExpr::And({std::move(expr), std::move(copy)}));
    }
    return expr;
  }

  Result<RqExprPtr> TranslateNonrecursive(PredId pred) {
    std::vector<RqExprPtr> alternatives;
    for (const DatalogRule* rule : program.RulesFor(pred)) {
      RQ_ASSIGN_OR_RETURN(RqExprPtr alt, ConvertRule(*rule));
      alternatives.push_back(std::move(alt));
    }
    RQ_CHECK(!alternatives.empty());
    return RqExpr::Or(std::move(alternatives));
  }

  Result<RqExprPtr> TranslateRecursive(const DatalogProgram::Scc& scc) {
    if (scc.predicates.size() != 1) {
      return InvalidArgumentError(
          "mutually recursive predicates (SCC of size " +
          std::to_string(scc.predicates.size()) +
          ") are not transitive-closure recursion");
    }
    PredId pred = scc.predicates[0];
    const std::string& name = program.PredicateName(pred);
    if (program.PredicateArity(pred) != 2) {
      return InvalidArgumentError(
          "recursive predicate " + name + " has arity " +
          std::to_string(program.PredicateArity(pred)) +
          "; transitive-closure recursion requires arity 2");
    }

    std::vector<RqExprPtr> bases;
    std::vector<RqExprPtr> rights;
    std::vector<RqExprPtr> lefts;
    bool nonlinear = false;

    for (const DatalogRule* rule : program.RulesFor(pred)) {
      size_t self_atoms = 0;
      for (const DatalogAtom& atom : rule->body) {
        if (atom.predicate == pred) ++self_atoms;
      }
      VarId x = rule->head.vars[0];
      VarId z = rule->head.vars[1];
      if (x == z) {
        return InvalidArgumentError("rule for " + name +
                                    " repeats its head variable");
      }
      if (self_atoms == 0) {
        RQ_ASSIGN_OR_RETURN(RqExprPtr base, ConvertRule(*rule));
        bases.push_back(std::move(base));
        continue;
      }
      if (self_atoms == 1) {
        const DatalogAtom* self = nullptr;
        std::vector<const DatalogAtom*> rest;
        for (const DatalogAtom& atom : rule->body) {
          if (atom.predicate == pred && self == nullptr) {
            self = &atom;
          } else {
            rest.push_back(&atom);
          }
        }
        VarId a = self->vars[0];
        VarId b = self->vars[1];
        if (a == b || rest.empty()) {
          return InvalidArgumentError("rule for " + name +
                                      " is not a transitive-closure step");
        }
        // Does `rest` mention a variable? (for the x/z-untouched checks)
        auto rest_uses = [&](VarId v) {
          for (const DatalogAtom* atom : rest) {
            for (VarId w : atom->vars) {
              if (w == v) return true;
            }
          }
          return false;
        };
        if (a == x && b != x && b != z && !rest_uses(x)) {
          // Right step: P(x,z) :- P(x,b), tail(b..z).
          RQ_ASSIGN_OR_RETURN(RqExprPtr tail, ConvertBody(rest, {b, z}));
          rights.push_back(ToPositional(tail, {b, z}));
          continue;
        }
        if (b == z && a != x && a != z && !rest_uses(z)) {
          // Left step: P(x,z) :- head(x..a), P(a,z).
          RQ_ASSIGN_OR_RETURN(RqExprPtr head, ConvertBody(rest, {x, a}));
          lefts.push_back(ToPositional(head, {x, a}));
          continue;
        }
        return InvalidArgumentError(
            "rule for " + name +
            " uses recursion in a non-transitive-closure shape");
      }
      if (self_atoms == 2) {
        if (rule->body.size() != 2) {
          return InvalidArgumentError(
              "rule for " + name +
              " mixes two recursive atoms with other atoms");
        }
        VarId a0 = rule->body[0].vars[0];
        VarId b0 = rule->body[0].vars[1];
        VarId a1 = rule->body[1].vars[0];
        VarId b1 = rule->body[1].vars[1];
        bool pattern = a0 == x && b1 == z && b0 == a1 && b0 != x &&
                       b0 != z && a0 != b0 && a1 != b1;
        if (!pattern) {
          return InvalidArgumentError(
              "rule for " + name +
              " is not the nonlinear transitive-closure rule");
        }
        nonlinear = true;
        continue;
      }
      return InvalidArgumentError("rule for " + name +
                                  " has more than two recursive atoms");
    }
    if (bases.empty()) {
      return InvalidArgumentError("recursive predicate " + name +
                                  " has no base rule");
    }
    RqExprPtr u = RqExpr::Or(std::move(bases));
    std::vector<RqExprPtr> parts{u};
    RqExprPtr tcl, tcr;
    if (!lefts.empty()) {
      tcl = RqExpr::Closure(0, 1, RqExpr::Or(std::move(lefts)));
      parts.push_back(ComposeBinary(tcl, u, &next_var));
    }
    if (!rights.empty()) {
      tcr = RqExpr::Closure(0, 1, RqExpr::Or(std::move(rights)));
      parts.push_back(ComposeBinary(u, tcr, &next_var));
    }
    if (tcl != nullptr && tcr != nullptr) {
      parts.push_back(
          ComposeBinary(tcl, ComposeBinary(u, tcr, &next_var), &next_var));
    }
    RqExprPtr core = RqExpr::Or(std::move(parts));
    if (nonlinear) core = RqExpr::Closure(0, 1, std::move(core));
    return core;
  }

  Status Run() {
    for (const DatalogProgram::Scc& scc : program.DependencySccs()) {
      if (!scc.recursive) {
        PredId pred = scc.predicates[0];
        if (is_edb[pred]) continue;
        RQ_ASSIGN_OR_RETURN(exprs[pred], TranslateNonrecursive(pred));
        continue;
      }
      RQ_ASSIGN_OR_RETURN(RqExprPtr expr, TranslateRecursive(scc));
      exprs[scc.predicates[0]] = std::move(expr);
    }
    return Status::Ok();
  }
};

}  // namespace

GrqAnalysis AnalyzeGrq(const DatalogProgram& program) {
  GrqAnalysis analysis;
  Status valid = program.Validate();
  if (!valid.ok()) {
    analysis.reason = valid.message();
    return analysis;
  }
  GrqTranslator translator(program);
  Status status = translator.Run();
  analysis.is_grq = status.ok();
  if (!status.ok()) analysis.reason = status.message();
  return analysis;
}

Result<RqQuery> DatalogToRq(const DatalogProgram& program) {
  RQ_RETURN_IF_ERROR(program.Validate());
  if (program.goal() == kInvalidPred) {
    return InvalidArgumentError("DatalogToRq: program has no goal");
  }
  GrqTranslator translator(program);
  RQ_RETURN_IF_ERROR(translator.Run());

  PredId goal = program.goal();
  size_t arity = program.PredicateArity(goal);
  RqQuery query;
  if (translator.is_edb[goal]) {
    std::vector<VarId> vars;
    for (size_t i = 0; i < arity; ++i) vars.push_back(static_cast<VarId>(i));
    query.root = RqExpr::Atom(program.PredicateName(goal), vars);
  } else {
    query.root = translator.exprs[goal];
  }
  for (size_t i = 0; i < arity; ++i) {
    query.head.push_back(static_cast<VarId>(i));
    query.var_names.push_back("x" + std::to_string(i));
  }
  RQ_RETURN_IF_ERROR(query.Validate());
  return query;
}


std::optional<ChainAutomaton> TryLowerLinearChain(
    const DatalogProgram& program, Alphabet* alphabet) {
  if (program.goal() == kInvalidPred || !program.Validate().ok()) {
    return std::nullopt;
  }
  constexpr uint32_t kNoState = 0xffffffffu;
  const size_t num_preds = program.num_predicates();
  std::vector<bool> is_idb(num_preds, false);
  for (PredId p : program.IdbPredicates()) is_idb[p] = true;
  // One state per binary IDB predicate; the one unary IDB predicate is D.
  // EDB predicates name labels, interned first so that the automaton's
  // symbol universe covers them.
  std::vector<uint32_t> state(num_preds, kNoState);
  uint32_t num_states = 0;
  PredId domain = kInvalidPred;
  for (PredId p = 0; p < num_preds; ++p) {
    if (!is_idb[p]) {
      alphabet->InternLabel(program.PredicateName(p));
    } else if (alphabet->FindLabel(program.PredicateName(p)).ok()) {
      return std::nullopt;
    } else if (program.PredicateArity(p) == 2) {
      state[p] = num_states++;
    } else if (program.PredicateArity(p) == 1 && domain == kInvalidPred) {
      domain = p;
    } else {
      return std::nullopt;
    }
  }
  if (state[program.goal()] == kNoState) return std::nullopt;
  auto is_edb_binary = [&](const DatalogAtom& atom) {
    return !is_idb[atom.predicate] && atom.vars.size() == 2;
  };
  auto forward = [&](const DatalogAtom& atom) {
    return ForwardSymbolOf(
        alphabet->InternLabel(program.PredicateName(atom.predicate)));
  };

  ChainAutomaton out;
  out.nfa = Nfa(static_cast<uint32_t>(alphabet->num_symbols()));
  for (uint32_t s = 0; s < num_states; ++s) out.nfa.AddState();
  out.nfa.SetAccepting(state[program.goal()]);
  for (const DatalogRule& rule : program.rules()) {
    const std::vector<VarId>& head = rule.head.vars;
    const std::vector<DatalogAtom>& body = rule.body;
    if (rule.head.predicate == domain) {
      // D(X) :- e(X,Y) or D(Y) :- e(X,Y).
      if (body.size() != 1 || !is_edb_binary(body[0]) ||
          body[0].vars[0] == body[0].vars[1]) {
        return std::nullopt;
      }
      const Symbol e = forward(body[0]);
      out.domain.push_back(head[0] == body[0].vars[0] ? e : InverseSymbol(e));
      continue;
    }
    const uint32_t to = state[rule.head.predicate];
    if (head[0] == head[1]) {
      // P(X,X) :- D(X).
      if (body.size() != 1 || body[0].predicate != domain) {
        return std::nullopt;
      }
      out.nfa.AddInitial(to);
      continue;
    }
    if (body.size() == 1) {
      // P(X,Y) :- Q(X,Y).
      if (state[body[0].predicate] == kNoState || body[0].vars != head) {
        return std::nullopt;
      }
      out.nfa.AddEpsilon(state[body[0].predicate], to);
      continue;
    }
    // P(X,Z) :- Q(X,Y), e(Y,Z) or e(Z,Y), the atoms in either order.
    if (body.size() != 2) return std::nullopt;
    const DatalogAtom* q = &body[0];
    const DatalogAtom* e = &body[1];
    if (state[q->predicate] == kNoState) std::swap(q, e);
    if (state[q->predicate] == kNoState || !is_edb_binary(*e)) {
      return std::nullopt;
    }
    const VarId x = head[0];
    const VarId z = head[1];
    const VarId y = q->vars[1];
    if (q->vars[0] != x || y == x || y == z) return std::nullopt;
    const std::vector<VarId> step{y, z};
    const std::vector<VarId> back{z, y};
    if (e->vars != step && e->vars != back) return std::nullopt;
    const Symbol symbol = forward(*e);
    out.nfa.AddTransition(state[q->predicate],
                          e->vars == step ? symbol : InverseSymbol(symbol),
                          to);
  }
  return out;
}

}  // namespace rq

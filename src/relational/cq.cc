#include "relational/cq.h"

#include <algorithm>
#include <unordered_map>

#include "common/deadline.h"
#include "common/mem.h"
#include "common/scanner.h"
#include "obs/subsystems.h"
#include "obs/trace.h"

namespace rq {

Status ConjunctiveQuery::Validate() const {
  std::vector<bool> in_body(num_vars, false);
  for (const CqAtom& atom : atoms) {
    if (atom.predicate.empty()) {
      return InvalidArgumentError("CQ: empty predicate name");
    }
    for (VarId v : atom.vars) {
      if (v >= num_vars) {
        return InvalidArgumentError("CQ: variable id out of range");
      }
      in_body[v] = true;
    }
  }
  for (VarId v : head) {
    if (v >= num_vars) {
      return InvalidArgumentError("CQ: head variable id out of range");
    }
    if (!in_body[v]) {
      return InvalidArgumentError(
          "CQ: head variable does not occur in the body (not range "
          "restricted)");
    }
  }
  // Consistent arities per predicate within the query.
  std::unordered_map<std::string, size_t> arities;
  for (const CqAtom& atom : atoms) {
    auto [it, inserted] = arities.emplace(atom.predicate, atom.vars.size());
    if (!inserted && it->second != atom.vars.size()) {
      return InvalidArgumentError("CQ: predicate " + atom.predicate +
                                  " used with two arities");
    }
  }
  return Status::Ok();
}

Database ConjunctiveQuery::CanonicalDatabase() const {
  Database db;
  for (const CqAtom& atom : atoms) {
    Relation* rel = db.GetOrCreate(atom.predicate, atom.vars.size()).value();
    Tuple t;
    t.reserve(atom.vars.size());
    for (VarId v : atom.vars) t.push_back(static_cast<Value>(v));
    rel->Insert(t);
  }
  return db;
}

Tuple ConjunctiveQuery::FrozenHead() const {
  Tuple t;
  t.reserve(head.size());
  for (VarId v : head) t.push_back(static_cast<Value>(v));
  return t;
}

namespace {

std::string VarName(const ConjunctiveQuery& q, VarId v) {
  if (v < q.var_names.size() && !q.var_names[v].empty()) {
    return q.var_names[v];
  }
  return "v" + std::to_string(v);
}

}  // namespace

std::string ConjunctiveQuery::ToString() const {
  std::string out = "q(";
  for (size_t i = 0; i < head.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += VarName(*this, head[i]);
  }
  out += ") :- ";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i].predicate;
    out.push_back('(');
    for (size_t j = 0; j < atoms[i].vars.size(); ++j) {
      if (j > 0) out.push_back(',');
      out += VarName(*this, atoms[i].vars[j]);
    }
    out.push_back(')');
  }
  return out;
}

Status UnionOfConjunctiveQueries::Validate() const {
  if (disjuncts.empty()) {
    return InvalidArgumentError("UCQ: no disjuncts");
  }
  size_t arity = disjuncts[0].arity();
  for (const ConjunctiveQuery& q : disjuncts) {
    RQ_RETURN_IF_ERROR(q.Validate());
    if (q.arity() != arity) {
      return InvalidArgumentError("UCQ: disjuncts of different arities");
    }
  }
  return Status::Ok();
}

std::string UnionOfConjunctiveQueries::ToString() const {
  std::string out;
  for (const ConjunctiveQuery& q : disjuncts) {
    out += q.ToString();
    out.push_back('\n');
  }
  return out;
}

Result<Relation> EvalCq(const Database& db, const ConjunctiveQuery& query) {
  RQ_RETURN_IF_ERROR(query.Validate());
  // The answer is charged once, to `rq` (relational intermediates).
  MemScope mem_scope(MemSubsystem::kRq);
  Relation out(query.arity());
  // Any atom over a missing relation makes the query empty.
  std::vector<MatchAtom> atoms;
  atoms.reserve(query.atoms.size());
  for (const CqAtom& atom : query.atoms) {
    const Relation* rel = db.Find(atom.predicate);
    if (rel == nullptr) return out;
    if (rel->arity() != atom.vars.size()) {
      return InvalidArgumentError("EvalCq: arity mismatch on " +
                                  Excerpt(atom.predicate));
    }
    atoms.push_back({rel, atom.vars});
  }
  Tuple head(query.head.size());
  MatchConjunction(atoms, query.num_vars,
                   [&](const std::vector<Value>& binding) {
                     for (size_t i = 0; i < head.size(); ++i) {
                       head[i] = binding[query.head[i]];
                     }
                     out.Insert(head);
                     return true;
                   });
  MemCharge(static_cast<int64_t>(out.size() * RelationRowBytes(out.arity())));
  RQ_RETURN_IF_ERROR(CheckExecContext());
  return out;
}

Result<Relation> EvalUcq(const Database& db,
                         const UnionOfConjunctiveQueries& query) {
  RQ_RETURN_IF_ERROR(query.Validate());
  Relation out(query.disjuncts[0].arity());
  for (const ConjunctiveQuery& q : query.disjuncts) {
    RQ_ASSIGN_OR_RETURN(Relation part, EvalCq(db, q));
    if (out.empty()) {
      out = std::move(part);
    } else {
      out.InsertAll(part);
    }
  }
  return out;
}

Result<bool> CqContained(const ConjunctiveQuery& q1,
                         const ConjunctiveQuery& q2) {
  RQ_TRACE_SPAN("cq.containment");
  RQ_RETURN_IF_ERROR(q1.Validate());
  RQ_RETURN_IF_ERROR(q2.Validate());
  if (q1.arity() != q2.arity()) {
    return InvalidArgumentError("CqContained: arity mismatch");
  }
  obs::CqCounters& counters = obs::CqCounters::Get();
  counters.hom_checks.Increment();
  counters.canonical_evals.Increment();
  Database canonical = q1.CanonicalDatabase();
  RQ_ASSIGN_OR_RETURN(Relation answers, EvalCq(canonical, q2));
  return answers.Contains(q1.FrozenHead());
}

Result<std::optional<std::vector<Value>>> CqContainmentWitness(
    const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  RQ_RETURN_IF_ERROR(q1.Validate());
  RQ_RETURN_IF_ERROR(q2.Validate());
  if (q1.arity() != q2.arity()) {
    return InvalidArgumentError("CqContainmentWitness: arity mismatch");
  }
  Database canonical = q1.CanonicalDatabase();
  // Match q2's body over the canonical database with its head variables
  // pre-constrained to q1's frozen head via an auxiliary single-tuple
  // relation joined on the head variables.
  Relation head_anchor(q1.arity());
  head_anchor.Insert(q1.FrozenHead());
  std::vector<MatchAtom> atoms;
  atoms.push_back({&head_anchor, q2.head});
  for (const CqAtom& atom : q2.atoms) {
    const Relation* rel = canonical.Find(atom.predicate);
    if (rel == nullptr) return std::optional<std::vector<Value>>(std::nullopt);
    if (rel->arity() != atom.vars.size()) {
      return InvalidArgumentError("CqContainmentWitness: arity mismatch on " +
                                  Excerpt(atom.predicate));
    }
    atoms.push_back({rel, atom.vars});
  }
  obs::CqCounters::Get().hom_checks.Increment();
  std::optional<std::vector<Value>> witness;
  MatchConjunction(atoms, q2.num_vars,
                   [&](const std::vector<Value>& binding) {
                     witness = binding;
                     return false;  // first homomorphism suffices
                   });
  RQ_RETURN_IF_ERROR(CheckExecContext());
  return witness;
}

Result<bool> UcqContained(const UnionOfConjunctiveQueries& q1,
                          const UnionOfConjunctiveQueries& q2) {
  RQ_TRACE_SPAN("cq.ucq_containment");
  RQ_RETURN_IF_ERROR(q1.Validate());
  RQ_RETURN_IF_ERROR(q2.Validate());
  if (q1.disjuncts[0].arity() != q2.disjuncts[0].arity()) {
    return InvalidArgumentError("UcqContained: arity mismatch");
  }
  obs::CqCounters& counters = obs::CqCounters::Get();
  for (const ConjunctiveQuery& q : q1.disjuncts) {
    // One canonical database per left disjunct; evaluating the right union
    // over it performs one homomorphism check per right disjunct.
    counters.canonical_evals.Increment();
    counters.hom_checks.Add(q2.disjuncts.size());
    Database canonical = q.CanonicalDatabase();
    RQ_ASSIGN_OR_RETURN(Relation answers, EvalUcq(canonical, q2));
    if (!answers.Contains(q.FrozenHead())) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

// One CQ on the rule front end; its body atoms are `p(v, ...)`.
Result<ConjunctiveQuery> ReadCq(Scanner& scan) {
  ConjunctiveQuery query;
  VarTable vars;
  RQ_ASSIGN_OR_RETURN(RuleAtom head, ParseRule(scan, vars, [&]() -> Status {
    RQ_ASSIGN_OR_RETURN(RuleAtom atom, ParseAtom(scan, vars));
    query.atoms.push_back({std::string(atom.name), std::move(atom.vars)});
    return Status::Ok();
  }));
  query.head = std::move(head.vars);
  query.num_vars = vars.size();
  query.var_names = vars.TakeNames();
  RQ_RETURN_IF_ERROR(query.Validate());
  return query;
}

}  // namespace

Result<ConjunctiveQuery> ParseCq(std::string_view text) {
  Scanner scan(text, "CQ");
  RQ_ASSIGN_OR_RETURN(ConjunctiveQuery query, ReadCq(scan));
  RQ_RETURN_IF_ERROR(scan.ExpectEnd());
  return query;
}

Result<UnionOfConjunctiveQueries> ParseUcq(std::string_view text) {
  UnionOfConjunctiveQueries out;
  RQ_RETURN_IF_ERROR(ForEachStatement(text, "CQ", [&](Scanner& scan) -> Status {
    RQ_ASSIGN_OR_RETURN(ConjunctiveQuery query, ReadCq(scan));
    out.disjuncts.push_back(std::move(query));
    return Status::Ok();
  }));
  RQ_RETURN_IF_ERROR(out.Validate());
  return out;
}

ConjunctiveQuery RandomBinaryCq(size_t num_atoms, size_t num_vars,
                                size_t num_predicates, Rng& rng) {
  RQ_CHECK(num_atoms > 0 && num_vars >= 2 && num_predicates > 0);
  ConjunctiveQuery query;
  query.num_vars = static_cast<uint32_t>(num_vars);
  // Connected pattern: atom i links a variable already used to any variable.
  std::vector<VarId> used = {0};
  for (size_t i = 0; i < num_atoms; ++i) {
    VarId a = used[rng.Below(used.size())];
    VarId b = static_cast<VarId>(rng.Below(num_vars));
    if (rng.Chance(0.5)) std::swap(a, b);
    CqAtom atom;
    atom.predicate = "p" + std::to_string(rng.Below(num_predicates));
    atom.vars = {a, b};
    query.atoms.push_back(std::move(atom));
    used.push_back(a);
    used.push_back(b);
  }
  // Head: two variables that occur in the body.
  query.head = {used[rng.Below(used.size())], used[rng.Below(used.size())]};
  // Drop variables never used from num_vars accounting? Keep simple: ensure
  // all var ids < num_vars appear at least somewhere by clamping ids.
  return query;
}

}  // namespace rq

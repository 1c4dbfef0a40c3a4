#include "rq/eval.h"

#include <algorithm>
#include <map>

#include "common/deadline.h"
#include "common/mem.h"
#include "common/scanner.h"
#include "obs/flight_recorder.h"
#include "obs/subsystems.h"
#include "obs/trace.h"
#include "relational/matcher.h"

namespace rq {

Result<size_t> FindColumn(const std::vector<VarId>& vars, VarId v) {
  auto it = std::lower_bound(vars.begin(), vars.end(), v);
  if (it == vars.end() || *it != v) {
    return InvalidArgumentError(
        "RQ eval: variable v" + std::to_string(v) +
        " is not a column of the subresult (malformed expression)");
  }
  return static_cast<size_t>(it - vars.begin());
}

namespace {

// Charges an operator's result rows, once, to the query's `rq` scope, and
// reports a trip latched by the operator's loops or by this charge.
Status ChargeRows(const Relation& relation) {
  MemCharge(static_cast<int64_t>(relation.size() *
                                 RelationRowBytes(relation.arity())));
  return CheckExecContext();
}

}  // namespace

Relation BinaryTransitiveClosure(const Relation& base) {
  RQ_CHECK(base.arity() == 2);
  MemScope mem_scope(MemSubsystem::kRq);
  // Semi-naive: each round joins the previous round's new pairs with the
  // base. New pairs are appended to `total`, so a round's delta is the row
  // range it appended.
  Relation total(2);
  total.InsertAll(base);
  size_t begin = 0;
  bool stopped = false;
  while (begin < total.size() && !stopped) {
    const size_t end = total.size();
    for (size_t i = begin; i < end; ++i) {
      // No Status channel: on a trip, stop and return the partial closure;
      // Status-returning callers poll the same latched context.
      if (!CheckExecContext().ok()) {
        stopped = true;
        break;
      }
      const Value from = total.row(i)[0];
      const Value mid = total.row(i)[1];
      for (uint32_t row : base.RowsWithValue(0, mid)) {
        total.Insert({from, base.row(row)[1]});
      }
    }
    MemCharge(static_cast<int64_t>((total.size() - end) *
                                   RelationRowBytes(2)));
    begin = end;
  }
  obs::RqCounters::Get().closure_tuples.Add(total.size());
  return total;
}

Result<RqRelation> EvalRqExpr(const Database& db, const RqExpr& e) {
  switch (e.kind()) {
    case RqExpr::Kind::kAtom: {
      RqRelation out;
      out.vars = e.FreeVars();
      out.relation = Relation(out.vars.size());
      const Relation* stored = db.Find(e.predicate());
      if (stored == nullptr) return out;
      if (stored->arity() != e.atom_vars().size()) {
        return InvalidArgumentError("RQ atom " + Excerpt(e.predicate()) +
                                    " arity mismatch with database");
      }
      // Column of each atom position, and whether the position is its
      // variable's first occurrence, resolved once up front.
      const std::vector<VarId>& vars = e.atom_vars();
      std::vector<size_t> col_of_pos;
      std::vector<bool> first;
      col_of_pos.reserve(vars.size());
      for (size_t i = 0; i < vars.size(); ++i) {
        RQ_ASSIGN_OR_RETURN(size_t col, FindColumn(out.vars, vars[i]));
        col_of_pos.push_back(col);
        first.push_back(std::find(vars.begin(), vars.begin() + i, vars[i]) ==
                        vars.begin() + i);
      }
      Tuple projected(out.vars.size());
      for (size_t r = 0; r < stored->size(); ++r) {
        // Repeated variables filter; then project onto sorted free vars.
        Row t = stored->row(r);
        bool ok = true;
        for (size_t i = 0; i < vars.size() && ok; ++i) {
          if (first[i]) {
            projected[col_of_pos[i]] = t[i];
          } else if (projected[col_of_pos[i]] != t[i]) {
            ok = false;
          }
        }
        if (ok) out.relation.Insert(projected);
      }
      RQ_RETURN_IF_ERROR(ChargeRows(out.relation));
      return out;
    }
    case RqExpr::Kind::kAnd: {
      // Natural join via the generic matcher. An atom child joins its
      // stored relation in place (the matcher filters repeated variables
      // and takes any column order); other children are materialized.
      std::vector<RqRelation> parts;
      parts.reserve(e.children().size());
      std::vector<MatchAtom> atoms;
      atoms.reserve(e.children().size());
      uint32_t num_vars = 0;
      bool absent = false;  // an atom over a relation the database lacks
      for (const RqExprPtr& c : e.children()) {
        if (c->kind() == RqExpr::Kind::kAtom) {
          const Relation* stored = db.Find(c->predicate());
          if (stored != nullptr && stored->arity() != c->atom_vars().size()) {
            return InvalidArgumentError("RQ atom " + Excerpt(c->predicate()) +
                                        " arity mismatch with database");
          }
          absent = absent || stored == nullptr;
          for (VarId v : c->atom_vars()) num_vars = std::max(num_vars, v + 1);
          if (stored != nullptr) atoms.push_back({stored, c->atom_vars()});
          continue;
        }
        RQ_ASSIGN_OR_RETURN(RqRelation part, EvalRqExpr(db, *c));
        if (!part.vars.empty()) {
          num_vars = std::max(num_vars, part.vars.back() + 1);
        }
        parts.push_back(std::move(part));
      }
      for (const RqRelation& part : parts) {
        atoms.push_back({&part.relation, part.vars});
      }
      RqRelation out;
      out.vars = e.FreeVars();
      out.relation = Relation(out.vars.size());
      if (absent) return out;
      Tuple projected(out.vars.size());
      MatchConjunction(atoms, num_vars,
                       [&](const std::vector<Value>& binding) {
                         for (size_t i = 0; i < projected.size(); ++i) {
                           projected[i] = binding[out.vars[i]];
                         }
                         out.relation.Insert(projected);
                         return true;
                       });
      RQ_RETURN_IF_ERROR(ChargeRows(out.relation));
      return out;
    }
    case RqExpr::Kind::kOr: {
      RqRelation out;
      out.vars = e.FreeVars();
      out.relation = Relation(out.vars.size());
      for (const RqExprPtr& c : e.children()) {
        RQ_ASSIGN_OR_RETURN(RqRelation part, EvalRqExpr(db, *c));
        // Children share the same free vars, hence the same column order.
        if (out.relation.empty()) {
          out.relation = std::move(part.relation);
        } else {
          out.relation.InsertAll(part.relation);
        }
      }
      RQ_RETURN_IF_ERROR(ChargeRows(out.relation));
      return out;
    }
    case RqExpr::Kind::kExists: {
      RQ_ASSIGN_OR_RETURN(RqRelation child,
                          EvalRqExpr(db, *e.children()[0]));
      RqRelation out;
      out.vars = e.FreeVars();
      out.relation = Relation(out.vars.size());
      std::vector<size_t> keep;
      keep.reserve(out.vars.size());
      for (VarId v : out.vars) {
        RQ_ASSIGN_OR_RETURN(size_t col, FindColumn(child.vars, v));
        keep.push_back(col);
      }
      Tuple projected(keep.size());
      for (size_t r = 0; r < child.relation.size(); ++r) {
        Row t = child.relation.row(r);
        for (size_t i = 0; i < keep.size(); ++i) projected[i] = t[keep[i]];
        out.relation.Insert(projected);
      }
      RQ_RETURN_IF_ERROR(ChargeRows(out.relation));
      return out;
    }
    case RqExpr::Kind::kEq: {
      RQ_ASSIGN_OR_RETURN(RqRelation child,
                          EvalRqExpr(db, *e.children()[0]));
      RQ_ASSIGN_OR_RETURN(size_t ca, FindColumn(child.vars, e.eq_a()));
      RQ_ASSIGN_OR_RETURN(size_t cb, FindColumn(child.vars, e.eq_b()));
      RqRelation out;
      out.vars = child.vars;
      out.relation = Relation(out.vars.size());
      for (size_t r = 0; r < child.relation.size(); ++r) {
        Row t = child.relation.row(r);
        if (t[ca] == t[cb]) out.relation.Insert(t);
      }
      RQ_RETURN_IF_ERROR(ChargeRows(out.relation));
      return out;
    }
    case RqExpr::Kind::kClosure: {
      RQ_ASSIGN_OR_RETURN(RqRelation child,
                          EvalRqExpr(db, *e.children()[0]));
      // Orient columns (from, to) for the closure; remaining columns are
      // parameters, fixed along a chain: group by them and close per group.
      RQ_ASSIGN_OR_RETURN(size_t cf,
                          FindColumn(child.vars, e.closure_from()));
      RQ_ASSIGN_OR_RETURN(size_t ct, FindColumn(child.vars, e.closure_to()));
      std::vector<size_t> param_cols;
      for (size_t col = 0; col < child.vars.size(); ++col) {
        if (col != cf && col != ct) param_cols.push_back(col);
      }
      RqRelation out;
      out.vars = e.FreeVars();
      out.relation = Relation(out.vars.size());
      if (param_cols.empty() && cf < ct) {
        // Already oriented (from, to): close the child's relation as is.
        out.relation = BinaryTransitiveClosure(child.relation);
        RQ_RETURN_IF_ERROR(ChargeRows(out.relation));
        return out;
      }
      std::map<Tuple, Relation> groups;
      Tuple params(param_cols.size());
      for (size_t r = 0; r < child.relation.size(); ++r) {
        Row t = child.relation.row(r);
        for (size_t i = 0; i < param_cols.size(); ++i) {
          params[i] = t[param_cols[i]];
        }
        auto [it, inserted] = groups.try_emplace(params, Relation(2));
        it->second.Insert({t[cf], t[ct]});
      }
      Tuple row(out.vars.size());
      for (const auto& [group, oriented] : groups) {
        Relation closed = BinaryTransitiveClosure(oriented);
        RQ_RETURN_IF_ERROR(CheckExecContext());
        for (size_t i = 0; i < param_cols.size(); ++i) {
          row[param_cols[i]] = group[i];
        }
        for (size_t r = 0; r < closed.size(); ++r) {
          row[cf] = closed.row(r)[0];
          row[ct] = closed.row(r)[1];
          out.relation.Insert(row);
        }
      }
      RQ_RETURN_IF_ERROR(ChargeRows(out.relation));
      return out;
    }
  }
  RQ_CHECK(false);
  return InvalidArgumentError("unreachable");
}

Result<Relation> EvalRqQuery(const Database& db, const RqQuery& query) {
  RQ_TRACE_SPAN("rq.eval");
  obs::FlightTimer timer(obs::QueryKind::kRqEval);
  obs::RqCounters::Get().evals.Increment();
  // Intermediate results are the evaluation's memory; each operator
  // charges its result once.
  MemScope mem_scope(MemSubsystem::kRq);
  RQ_RETURN_IF_ERROR(query.Validate());
  RQ_ASSIGN_OR_RETURN(RqRelation result, EvalRqExpr(db, *query.root));
  Relation out(query.head.size());
  if (query.head == result.vars) {
    out = std::move(result.relation);
  } else {
    std::vector<size_t> cols;
    cols.reserve(query.head.size());
    for (VarId v : query.head) {
      RQ_ASSIGN_OR_RETURN(size_t col, FindColumn(result.vars, v));
      cols.push_back(col);
    }
    Tuple projected(cols.size());
    for (size_t r = 0; r < result.relation.size(); ++r) {
      Row t = result.relation.row(r);
      for (size_t i = 0; i < cols.size(); ++i) projected[i] = t[cols[i]];
      out.Insert(projected);
    }
    RQ_RETURN_IF_ERROR(ChargeRows(out));
  }
  timer.Finish(obs::kFlightVerdictOk, out.size());
  return out;
}

Database GraphToDatabase(const GraphDb& graph) {
  Database db;
  for (uint32_t label = 0; label < graph.alphabet().num_labels(); ++label) {
    db.GetOrCreate(graph.alphabet().LabelName(label), 2).value();
  }
  for (const Edge& e : graph.edges()) {
    Relation* rel =
        db.FindMutable(graph.alphabet().LabelName(e.label));
    rel->Insert({e.src, e.dst});
  }
  return db;
}

}  // namespace rq

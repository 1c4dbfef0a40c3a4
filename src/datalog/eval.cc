#include "datalog/eval.h"

#include <algorithm>

#include "common/deadline.h"
#include "common/mem.h"
#include "common/scanner.h"
#include "obs/flight_recorder.h"
#include "obs/subsystems.h"
#include "obs/trace.h"

namespace rq {

namespace {

// Applies one rule, reading body atom i from `sources[i]` and inserting new
// head tuples into `out` (only tuples absent from `existing`, which may be
// `out` itself). Returns the number of new tuples. The matcher polls the installed ExecContext per
// candidate binding and stops the join on a trip; the caller polls the
// latched verdict right after.
size_t ApplyRule(const DatalogRule& rule,
                 const std::vector<const Relation*>& sources,
                 const Relation& existing, Relation* out,
                 DatalogEvalStats* stats) {
  std::vector<MatchAtom> atoms;
  atoms.reserve(rule.body.size());
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (sources[i] == nullptr || sources[i]->empty()) return 0;
    atoms.push_back({sources[i], rule.body[i].vars});
  }
  size_t added = 0;
  Tuple head(rule.head.vars.size());
  MatchConjunction(atoms, rule.num_vars,
                   [&](const std::vector<Value>& binding) {
                     ++stats->tuples_considered;
                     for (size_t i = 0; i < head.size(); ++i) {
                       head[i] = binding[rule.head.vars[i]];
                     }
                     if ((out == &existing || !existing.Contains(head)) &&
                         out->Insert(head)) {
                       ++added;
                     }
                     return true;
                   });
  ++stats->rule_applications;
  MemCharge(static_cast<int64_t>(added * RelationRowBytes(head.size())));
  return added;
}

// Adds the rows of `fresh` to `rel` and charges the ones it added.
void Flush(const Relation& fresh, Relation* rel) {
  MemCharge(static_cast<int64_t>(rel->InsertAll(fresh) *
                                 RelationRowBytes(rel->arity())));
}

// Fixpoint body; EvalDatalogGoal wraps it with flight recording so
// timeouts and errors record their verdict.
Result<Relation> EvalDatalogGoalImpl(const DatalogProgram& program,
                                     const Database& edb,
                                     DatalogEvalMode mode,
                                     DatalogEvalStats* stats) {
  RQ_TRACE_SPAN_VAR(span, "datalog.eval");
  // Fact stores and per-round delta relations are the fixpoint's memory;
  // ApplyRule charges every rule application's derived tuples and Flush
  // the copies kept in the head relations.
  MemScope mem_scope(MemSubsystem::kDatalog);
  if (program.goal() == kInvalidPred) {
    return InvalidArgumentError("program has no goal predicate");
  }
  RQ_RETURN_IF_ERROR(program.Validate());
  *stats = DatalogEvalStats();

  // The relation each predicate's body atoms read: IDB predicates own
  // theirs in `idb`; EDB predicates are read in place from `edb` (absent
  // ones are null, i.e. empty).
  const size_t num_preds = program.num_predicates();
  std::vector<bool> is_idb(num_preds, false);
  for (PredId p : program.IdbPredicates()) {
    if (edb.Find(program.PredicateName(p)) != nullptr) {
      return InvalidArgumentError("IDB predicate " +
                                  Excerpt(program.PredicateName(p)) +
                                  " also present in the EDB");
    }
    is_idb[p] = true;
  }
  std::vector<Relation> idb;
  idb.reserve(num_preds);
  std::vector<const Relation*> rel_of(num_preds, nullptr);
  for (PredId p = 0; p < num_preds; ++p) {
    idb.emplace_back(is_idb[p] ? program.PredicateArity(p) : 0);
    if (is_idb[p]) {
      rel_of[p] = &idb[p];  // stable: `idb` never reallocates
      continue;
    }
    const Relation* rel = edb.Find(program.PredicateName(p));
    if (rel != nullptr && rel->arity() != program.PredicateArity(p)) {
      return InvalidArgumentError(
          "relation " + Excerpt(program.PredicateName(p)) + " has arity " +
          std::to_string(rel->arity()) + ", requested " +
          std::to_string(program.PredicateArity(p)));
    }
    rel_of[p] = rel;
  }

  std::vector<DatalogProgram::Scc> sccs = program.DependencySccs();
  std::vector<uint32_t> scc_of(program.num_predicates(), 0);
  for (uint32_t i = 0; i < sccs.size(); ++i) {
    for (PredId p : sccs[i].predicates) scc_of[p] = i;
  }

  for (uint32_t scc_index = 0; scc_index < sccs.size(); ++scc_index) {
    RQ_RETURN_IF_ERROR(CheckExecContext());
    const DatalogProgram::Scc& scc = sccs[scc_index];
    // Rules contributing to this SCC.
    std::vector<const DatalogRule*> rules;
    for (const DatalogRule& rule : program.rules()) {
      if (scc_of[rule.head.predicate] == scc_index) rules.push_back(&rule);
    }
    if (rules.empty()) continue;

    // Dense index of the SCC's predicates, shared by both recursive modes
    // (per-round fresh/delta relations are stored per SCC predicate).
    std::vector<PredId> scc_preds = scc.predicates;
    auto scc_pred_index = [&](PredId p) -> int {
      for (size_t i = 0; i < scc_preds.size(); ++i) {
        if (scc_preds[i] == p) return static_cast<int>(i);
      }
      return -1;
    };

    if (!scc.recursive) {
      // One pass: all body atoms refer to earlier SCCs.
      for (const DatalogRule* rule : rules) {
        std::vector<const Relation*> sources;
        for (const DatalogAtom& atom : rule->body) {
          sources.push_back(rel_of[atom.predicate]);
        }
        // No body atom reads the head, so derivations land in it directly.
        Relation* head_rel = &idb[rule->head.predicate];
        stats->tuples_derived +=
            ApplyRule(*rule, sources, *head_rel, head_rel, stats);
        RQ_RETURN_IF_ERROR(CheckExecContext());
      }
      ++stats->rounds;
      continue;
    }

    if (mode == DatalogEvalMode::kNaive) {
      // Re-run every rule over the relations as they stood at the start of
      // the round (snapshot semantics), inserting only after every rule ran.
      // This makes a "round" mean the same thing in both modes — see the
      // round-counting contract on DatalogEvalStats in eval.h.
      for (;;) {
        RQ_RETURN_IF_ERROR(CheckExecContext());
        ++stats->rounds;
        std::vector<Relation> fresh;
        for (PredId p : scc_preds) {
          fresh.emplace_back(program.PredicateArity(p));
        }
        size_t added = 0;
        for (const DatalogRule* rule : rules) {
          std::vector<const Relation*> sources;
          for (const DatalogAtom& atom : rule->body) {
            sources.push_back(rel_of[atom.predicate]);
          }
          int hd = scc_pred_index(rule->head.predicate);
          added += ApplyRule(*rule, sources, idb[rule->head.predicate],
                             &fresh[hd], stats);
          RQ_RETURN_IF_ERROR(CheckExecContext());
        }
        stats->tuples_derived += added;
        if (added == 0) break;
        for (size_t i = 0; i < scc_preds.size(); ++i) {
          Flush(fresh[i], &idb[scc_preds[i]]);
        }
      }
      continue;
    }

    // Semi-naive. Deltas per SCC predicate, seeded by one full pass (SCC
    // relations start empty, so only exit rules fire).
    std::vector<Relation> delta;
    for (PredId p : scc_preds) {
      delta.emplace_back(program.PredicateArity(p));
    }
    ++stats->rounds;
    size_t seed_added = 0;
    for (const DatalogRule* rule : rules) {
      std::vector<const Relation*> sources;
      for (const DatalogAtom& atom : rule->body) {
        sources.push_back(rel_of[atom.predicate]);
      }
      int di = scc_pred_index(rule->head.predicate);
      seed_added += ApplyRule(*rule, sources, idb[rule->head.predicate],
                              &delta[di], stats);
      RQ_RETURN_IF_ERROR(CheckExecContext());
    }
    stats->tuples_derived += seed_added;
    for (size_t i = 0; i < scc_preds.size(); ++i) {
      Flush(delta[i], &idb[scc_preds[i]]);
    }
    // An empty seed delta already confirms the fixpoint: every delta-bound
    // rule application below would join against an empty relation. Skipping
    // the loop keeps the round count identical to naive mode.
    if (seed_added == 0) continue;

    for (;;) {
      RQ_RETURN_IF_ERROR(CheckExecContext());
      ++stats->rounds;
      std::vector<Relation> next_delta;
      for (PredId p : scc_preds) {
        next_delta.emplace_back(program.PredicateArity(p));
      }
      size_t added = 0;
      for (const DatalogRule* rule : rules) {
        // One application per occurrence of an SCC predicate in the body,
        // with that occurrence bound to the delta.
        for (size_t i = 0; i < rule->body.size(); ++i) {
          int di = scc_pred_index(rule->body[i].predicate);
          if (di < 0) continue;
          std::vector<const Relation*> sources;
          for (size_t j = 0; j < rule->body.size(); ++j) {
            if (j == i) {
              sources.push_back(&delta[di]);
            } else {
              sources.push_back(rel_of[rule->body[j].predicate]);
            }
          }
          int hd = scc_pred_index(rule->head.predicate);
          added += ApplyRule(*rule, sources, idb[rule->head.predicate],
                             &next_delta[hd], stats);
          RQ_RETURN_IF_ERROR(CheckExecContext());
        }
      }
      stats->tuples_derived += added;
      if (added == 0) break;
      for (size_t i = 0; i < scc_preds.size(); ++i) {
        Flush(next_delta[i], &idb[scc_preds[i]]);
      }
      delta = std::move(next_delta);
    }
  }

  // Flush this evaluation into the shared observability registry (the
  // datalog.* vocabulary; the legacy stats struct doubles as the local
  // accumulator so hot loops never touch shared state).
  obs::DatalogCounters& counters = obs::DatalogCounters::Get();
  counters.evals.Increment();
  counters.rounds.Add(stats->rounds);
  counters.rule_applications.Add(stats->rule_applications);
  counters.tuples_considered.Add(stats->tuples_considered);
  counters.tuples_derived.Add(stats->tuples_derived);
  counters.rounds_per_eval.Record(stats->rounds);
  span.AddAttr("rounds", stats->rounds);
  span.AddAttr("tuples_considered", stats->tuples_considered);
  // The goal's relation leaves by move; an EDB goal answers with a copy of
  // its stored relation.
  PredId goal = program.goal();
  if (is_idb[goal]) return std::move(idb[goal]);
  if (rel_of[goal] != nullptr) return *rel_of[goal];
  return Relation(program.PredicateArity(goal));
}

}  // namespace

Result<Relation> EvalDatalogGoal(const DatalogProgram& program,
                                 const Database& edb, DatalogEvalMode mode,
                                 DatalogEvalStats* stats) {
  obs::FlightTimer timer(obs::QueryKind::kDatalogEval);
  DatalogEvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Result<Relation> result = EvalDatalogGoalImpl(program, edb, mode, stats);
  timer.Finish(result.ok() ? obs::kFlightVerdictOk
                           : obs::FlightVerdictFromError(result.status()),
               stats->rounds);
  return result;
}

}  // namespace rq

#include "crpq/crpq.h"

#include <algorithm>
#include <unordered_map>

#include "automata/words.h"
#include "common/deadline.h"
#include "common/mem.h"
#include "common/scanner.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "pathquery/containment.h"
#include "pathquery/path_query.h"

namespace rq {

Status Crpq::Validate() const {
  if (atoms.empty()) return InvalidArgumentError("C2RPQ: no atoms");
  if (head.empty()) return InvalidArgumentError("C2RPQ: empty head");
  std::vector<bool> in_body(num_vars, false);
  for (const CrpqAtom& atom : atoms) {
    if (atom.regex == nullptr) {
      return InvalidArgumentError("C2RPQ: null regex");
    }
    if (atom.from >= num_vars || atom.to >= num_vars) {
      return InvalidArgumentError("C2RPQ: variable id out of range");
    }
    in_body[atom.from] = true;
    in_body[atom.to] = true;
  }
  for (VarId v : head) {
    if (v >= num_vars || !in_body[v]) {
      return InvalidArgumentError(
          "C2RPQ: head variable does not occur in the body");
    }
  }
  return Status::Ok();
}

namespace {

std::string CrpqVarName(const Crpq& q, VarId v) {
  if (v < q.var_names.size() && !q.var_names[v].empty()) {
    return q.var_names[v];
  }
  return "v" + std::to_string(v);
}

}  // namespace

std::string Crpq::ToString(const Alphabet& alphabet) const {
  std::string out = "q(";
  for (size_t i = 0; i < head.size(); ++i) {
    if (i > 0) out += ", ";
    out += CrpqVarName(*this, head[i]);
  }
  out += ") :- ";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "(" + atoms[i].regex->ToString(alphabet) + ")(" +
           CrpqVarName(*this, atoms[i].from) + ", " +
           CrpqVarName(*this, atoms[i].to) + ")";
  }
  return out;
}

Status Uc2Rpq::Validate() const {
  if (disjuncts.empty()) return InvalidArgumentError("UC2RPQ: no disjuncts");
  for (const Crpq& q : disjuncts) {
    RQ_RETURN_IF_ERROR(q.Validate());
    if (q.head.size() != disjuncts[0].head.size()) {
      return InvalidArgumentError("UC2RPQ: disjunct arity mismatch");
    }
  }
  return Status::Ok();
}

std::string Uc2Rpq::ToString(const Alphabet& alphabet) const {
  std::string out;
  for (const Crpq& q : disjuncts) {
    out += q.ToString(alphabet);
    out.push_back('\n');
  }
  return out;
}

namespace {

// One C2RPQ on the rule front end; its body atoms are `(regex)(u, v)`, the
// atom's parenthesis one nesting level around the regex.
Result<Crpq> ReadCrpq(Scanner& scan, Alphabet* alphabet) {
  Crpq query;
  VarTable vars;
  RQ_ASSIGN_OR_RETURN(RuleAtom head, ParseRule(scan, vars, [&]() -> Status {
    RQ_RETURN_IF_ERROR(scan.Expect("("));
    RQ_RETURN_IF_ERROR(scan.Enter());
    RQ_ASSIGN_OR_RETURN(RegexPtr regex, ParseRegex(scan, alphabet));
    RQ_RETURN_IF_ERROR(scan.Expect(")"));
    scan.Leave();
    RQ_ASSIGN_OR_RETURN(std::vector<VarId> ends, ParseVarList(scan, vars));
    if (ends.size() != 2) {
      return scan.Error("atoms take exactly two variables");
    }
    query.atoms.push_back({std::move(regex), ends[0], ends[1]});
    return Status::Ok();
  }));
  query.head = std::move(head.vars);
  query.num_vars = vars.size();
  query.var_names = vars.TakeNames();
  RQ_RETURN_IF_ERROR(query.Validate());
  return query;
}

}  // namespace

Result<Crpq> ParseCrpq(std::string_view text, Alphabet* alphabet) {
  Scanner scan(text, "C2RPQ");
  RQ_ASSIGN_OR_RETURN(Crpq query, ReadCrpq(scan, alphabet));
  RQ_RETURN_IF_ERROR(scan.ExpectEnd());
  return query;
}

Result<Uc2Rpq> ParseUc2Rpq(std::string_view text, Alphabet* alphabet) {
  Uc2Rpq out;
  RQ_RETURN_IF_ERROR(
      ForEachStatement(text, "C2RPQ", [&](Scanner& scan) -> Status {
        RQ_ASSIGN_OR_RETURN(Crpq query, ReadCrpq(scan, alphabet));
        out.disjuncts.push_back(std::move(query));
        return Status::Ok();
      }));
  RQ_RETURN_IF_ERROR(out.Validate());
  return out;
}

Result<Relation> EvalCrpq(const GraphSnapshot& snapshot, const Crpq& query,
                          const PathEvalOptions& options) {
  RQ_RETURN_IF_ERROR(query.Validate());
  // Atom relations and the join's answer are charged to `graph`, once
  // each, as they are built.
  MemScope mem_scope(MemSubsystem::kGraph);
  // Instantiate each distinct 2RPQ as a binary relation (phase one), then
  // join (phase two). Every atom runs over the same shared snapshot.
  std::unordered_map<const Regex*, Relation> cache;
  for (const CrpqAtom& atom : query.atoms) {
    RQ_RETURN_IF_ERROR(CheckExecContext());
    if (cache.contains(atom.regex.get())) continue;
    std::vector<std::pair<NodeId, NodeId>> pairs =
        EvalPathQuery(snapshot, *atom.regex, options);
    // The product BFS stops early on a trip and returns no pairs; the poll
    // right after it reports the trip instead of joining an empty
    // relation.
    RQ_RETURN_IF_ERROR(CheckExecContext());
    Relation rel(2);
    rel.Reserve(pairs.size());
    for (const auto& [x, y] : pairs) rel.Insert({x, y});
    MemCharge(static_cast<int64_t>(rel.size() * RelationRowBytes(2)));
    cache.emplace(atom.regex.get(), std::move(rel));
  }
  std::vector<MatchAtom> atoms;
  atoms.reserve(query.atoms.size());
  for (const CrpqAtom& atom : query.atoms) {
    atoms.push_back({&cache.at(atom.regex.get()), {atom.from, atom.to}});
  }
  Relation out(query.head.size());
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

Result<Relation> EvalCrpq(const GraphDb& db, const Crpq& query,
                          const PathEvalOptions& options) {
  return EvalCrpq(*db.Snapshot(), query, options);
}

Result<Relation> EvalUc2Rpq(const GraphSnapshot& snapshot,
                            const Uc2Rpq& query,
                            const PathEvalOptions& options) {
  obs::FlightTimer timer(obs::QueryKind::kUc2RpqEval);
  RQ_RETURN_IF_ERROR(query.Validate());
  Relation out(query.disjuncts[0].head.size());
  for (const Crpq& q : query.disjuncts) {
    RQ_ASSIGN_OR_RETURN(Relation part, EvalCrpq(snapshot, q, options));
    if (out.empty()) {
      out = std::move(part);
    } else {
      out.InsertAll(part);
    }
  }
  timer.Finish(obs::kFlightVerdictOk, out.size());
  return out;
}

Result<Relation> EvalUc2Rpq(const GraphDb& db, const Uc2Rpq& query,
                            const PathEvalOptions& options) {
  return EvalUc2Rpq(*db.Snapshot(), query, options);
}

namespace {

// One disjunct's chain from head[0] to head[1] as a concatenation, or
// null when the disjunct is not a simple chain.
RegexPtr LowerChain(const Crpq& query) {
  if (query.head.size() != 2 || query.head[0] == query.head[1]) {
    return nullptr;
  }
  std::vector<uint32_t> uses(query.num_vars, 0);
  for (const CrpqAtom& atom : query.atoms) {
    if (atom.from == atom.to) return nullptr;
    ++uses[atom.from];
    ++uses[atom.to];
  }
  for (VarId v = 0; v < query.num_vars; ++v) {
    const bool end = v == query.head[0] || v == query.head[1];
    if (uses[v] != 0 && uses[v] != (end ? 1u : 2u)) return nullptr;
  }
  // Every variable on the walk has one atom left to leave by; returning
  // to a visited variable finds none.
  std::vector<bool> used(query.atoms.size(), false);
  std::vector<RegexPtr> pieces;
  for (VarId at = query.head[0]; at != query.head[1];) {
    size_t i = 0;
    for (; i < query.atoms.size(); ++i) {
      const CrpqAtom& atom = query.atoms[i];
      if (!used[i] && (atom.from == at || atom.to == at)) break;
    }
    if (i == query.atoms.size()) return nullptr;
    used[i] = true;
    const CrpqAtom& atom = query.atoms[i];
    const bool forward = atom.from == at;
    pieces.push_back(forward ? atom.regex : atom.regex->InverseExpression());
    at = forward ? atom.to : atom.from;
  }
  // Atoms off the walk form cycles of middle variables.
  if (pieces.size() != query.atoms.size()) return nullptr;
  return Regex::Concat(std::move(pieces));
}

}  // namespace

std::optional<RegexPtr> TryLowerUc2Rpq(const Uc2Rpq& query) {
  if (!query.Validate().ok()) return std::nullopt;
  std::vector<RegexPtr> chains;
  for (const Crpq& disjunct : query.disjuncts) {
    RegexPtr chain = LowerChain(disjunct);
    if (chain == nullptr) return std::nullopt;
    chains.push_back(std::move(chain));
  }
  return Regex::Union(std::move(chains));
}

namespace {

// Union-find over query variables (empty-word atoms merge endpoints).
class VarUnionFind {
 public:
  explicit VarUnionFind(uint32_t n) : parent_(n) {
    for (uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Merge(uint32_t a, uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<uint32_t> parent_;
};

// Builds the canonical graph of one expansion: per atom, a concrete word.
struct CanonicalExpansion {
  GraphDb graph;
  std::vector<NodeId> node_of_var;
};

CanonicalExpansion BuildCanonical(const Crpq& query,
                                  const std::vector<std::vector<Symbol>>&
                                      words,
                                  const Alphabet& alphabet) {
  CanonicalExpansion out;
  for (uint32_t label = 0; label < alphabet.num_labels(); ++label) {
    out.graph.alphabet().InternLabel(alphabet.LabelName(label));
  }
  VarUnionFind uf(query.num_vars);
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    if (words[i].empty()) uf.Merge(query.atoms[i].from, query.atoms[i].to);
  }
  std::vector<NodeId> node(query.num_vars, 0);
  std::vector<bool> created(query.num_vars, false);
  auto node_of = [&](VarId v) {
    uint32_t root = uf.Find(v);
    if (!created[root]) {
      node[root] = out.graph.AddNode();
      created[root] = true;
    }
    return node[root];
  };
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    const std::vector<Symbol>& word = words[i];
    if (word.empty()) continue;
    NodeId prev = node_of(query.atoms[i].from);
    for (size_t j = 0; j < word.size(); ++j) {
      NodeId next = (j + 1 == word.size()) ? node_of(query.atoms[i].to)
                                           : out.graph.AddNode();
      uint32_t label = SymbolLabel(word[j]);
      if (IsInverseSymbol(word[j])) {
        out.graph.AddEdge(next, label, prev);
      } else {
        out.graph.AddEdge(prev, label, next);
      }
      prev = next;
    }
  }
  out.node_of_var.resize(query.num_vars);
  for (VarId v = 0; v < query.num_vars; ++v) {
    out.node_of_var[v] = node_of(v);
  }
  return out;
}

// Dispatcher body; the public CheckUc2RpqContainment wraps it with flight
// recording and per-query profile annotation.
Result<CrpqContainmentResult> CheckUc2RpqContainmentImpl(
    const Uc2Rpq& q1, const Uc2Rpq& q2, const Alphabet& alphabet,
    const CrpqContainmentOptions& options) {
  RQ_RETURN_IF_ERROR(q1.Validate());
  RQ_RETURN_IF_ERROR(q2.Validate());
  if (q1.disjuncts[0].head.size() != q2.disjuncts[0].head.size()) {
    return InvalidArgumentError(
        "CheckUc2RpqContainment: head arity mismatch");
  }
  CrpqContainmentResult result;

  // Both sides unions of chains: each denotes one 2RPQ (TryLowerUc2Rpq),
  // and Theorem 5's fold decides the pair exactly.
  std::optional<RegexPtr> r1 = TryLowerUc2Rpq(q1);
  std::optional<RegexPtr> r2 = r1 ? TryLowerUc2Rpq(q2) : std::nullopt;
  if (r1 && r2) {
    PathContainmentResult path =
        CheckPathQueryContainment(**r1, **r2, alphabet);
    RQ_RETURN_IF_ERROR(path.status);
    result.method = "2rpq-fold";
    if (path.contained) {
      result.certainty = Certainty::kProved;
      return result;
    }
    result.certainty = Certainty::kRefuted;
    SemipathWitness witness =
        BuildSemipathWitness(alphabet, path.counterexample);
    result.witness_x = witness.start;
    result.witness_y = witness.end;
    result.witness_tuple = {witness.start, witness.end};
    result.counterexample = std::move(witness.db);
    return result;
  }

  // Expansion test.
  bool complete = true;
  bool truncated = false;
  const uint32_t k =
      (std::max(static_cast<uint32_t>(alphabet.num_symbols()), 2u) + 1) &
      ~1u;
  for (const Crpq& disjunct : q1.disjuncts) {
    // Enumerate candidate words per atom.
    std::vector<std::vector<std::vector<Symbol>>> words(
        disjunct.atoms.size());
    bool disjunct_empty = false;
    for (size_t i = 0; i < disjunct.atoms.size(); ++i) {
      RQ_RETURN_IF_ERROR(CheckExecContext());
      Nfa nfa = disjunct.atoms[i]
                    .regex->ToNfa(std::max(
                        k, disjunct.atoms[i].regex->MinNumSymbols()))
                    .WithoutEpsilons()
                    .Trimmed();
      bool finite = IsFiniteLanguage(nfa);
      size_t max_len = finite
                           ? std::max<size_t>(options.max_word_length,
                                              nfa.num_states() + 1)
                           : options.max_word_length;
      words[i] =
          EnumerateAcceptedWords(nfa, max_len, options.max_expansions + 1);
      if (words[i].size() > options.max_expansions) {
        words[i].resize(options.max_expansions);
        complete = false;
        truncated = true;
      }
      if (!finite) complete = false;
      if (words[i].empty()) {
        if (finite) {
          // Empty language: the disjunct is unsatisfiable, trivially
          // contained.
          disjunct_empty = true;
        } else {
          complete = false;  // words exist beyond the bound
          disjunct_empty = true;  // nothing to test within the bound
        }
        break;
      }
    }
    if (disjunct_empty) continue;

    // Cartesian product over atom word choices (odometer).
    std::vector<size_t> idx(disjunct.atoms.size(), 0);
    for (;;) {
      RQ_RETURN_IF_ERROR(CheckExecContext());
      if (result.expansions_checked >= options.max_expansions) {
        complete = false;
        truncated = true;
        break;
      }
      ++result.expansions_checked;
      std::vector<std::vector<Symbol>> choice;
      choice.reserve(idx.size());
      for (size_t i = 0; i < idx.size(); ++i) {
        choice.push_back(words[i][idx[i]]);
      }
      CanonicalExpansion canonical =
          BuildCanonical(disjunct, choice, alphabet);
      // Canonical graphs are tiny; evaluating them serially avoids paying
      // a worker-pool spin-up per expansion when a global --jobs is set.
      RQ_ASSIGN_OR_RETURN(
          Relation answers,
          EvalUc2Rpq(canonical.graph, q2, PathEvalOptions{.jobs = 1}));
      Tuple head_tuple;
      for (VarId v : disjunct.head) {
        head_tuple.push_back(canonical.node_of_var[v]);
      }
      if (!answers.Contains(head_tuple)) {
        result.certainty = Certainty::kRefuted;
        result.method = "expansion";
        result.truncated = truncated;
        result.witness_tuple = head_tuple;
        result.witness_x = head_tuple.empty()
                               ? 0
                               : static_cast<NodeId>(head_tuple[0]);
        result.witness_y = head_tuple.size() > 1
                               ? static_cast<NodeId>(head_tuple[1])
                               : result.witness_x;
        result.counterexample = std::move(canonical.graph);
        return result;
      }
      // Advance the odometer.
      size_t pos = 0;
      while (pos < idx.size()) {
        if (++idx[pos] < words[pos].size()) break;
        idx[pos] = 0;
        ++pos;
      }
      if (pos == idx.size()) break;
    }
  }
  result.method = complete ? "expansion-exact" : "expansion-bounded";
  result.certainty =
      complete ? Certainty::kProved : Certainty::kUnknownUpToBound;
  result.truncated = truncated;
  return result;
}

}  // namespace

Result<CrpqContainmentResult> CheckUc2RpqContainment(
    const Uc2Rpq& q1, const Uc2Rpq& q2, const Alphabet& alphabet,
    const CrpqContainmentOptions& options) {
  obs::FlightTimer timer(obs::QueryKind::kUc2RpqContainment);
  Result<CrpqContainmentResult> result =
      CheckUc2RpqContainmentImpl(q1, q2, alphabet, options);
  if (!result.ok()) {
    timer.Finish(obs::FlightVerdictFromError(result.status()), 0);
    return result;
  }
  timer.Finish(FlightVerdictFromCertainty(result->certainty),
               result->expansions_checked);
  if (obs::QueryProfile* profile = obs::CurrentProfile()) {
    profile->AddNote("uc2rpq.method",
                     result->truncated ? result->method + " (truncated)"
                                       : result->method);
  }
  return result;
}

}  // namespace rq

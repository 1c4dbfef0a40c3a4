#include "pathquery/witness.h"

#include <algorithm>

#include "automata/nfa.h"
#include "common/bitset.h"
#include "graph/snapshot.h"
#include "pathquery/path_query.h"

namespace rq {

std::optional<std::vector<SemipathStep>> FindWitnessSemipath(
    const GraphDb& db, const Regex& regex, NodeId x, NodeId y) {
  Nfa nfa = KernelNfa(regex, db.alphabet().num_symbols());

  // Same product BFS as the evaluators (pathquery/path_query.cc), run over
  // an immutable CSR snapshot, but tracking per-visit parents so the
  // shortest accepting semipath can be reconstructed. The visits vector
  // doubles as the BFS queue (indices only ever grow), and the bitset
  // keyed node * |Q| + state deduplicates product states.
  const GraphSnapshotPtr snapshot = db.Snapshot();
  const size_t num_states = nfa.num_states();
  const size_t num_nodes = snapshot->num_nodes();
  if (num_states == 0 || x >= num_nodes) return std::nullopt;

  struct Visit {
    uint32_t parent;  // index into visits, or UINT32_MAX
    NodeId node;
    uint32_t state;
    Symbol via;  // kInvalidSymbol at roots
  };
  std::vector<Visit> visits;
  Bitset seen(num_nodes * num_states);
  auto push = [&](NodeId node, uint32_t state, uint32_t parent, Symbol via) {
    size_t key = static_cast<size_t>(node) * num_states + state;
    if (seen.Test(key)) return;
    seen.Set(key);
    visits.push_back({parent, node, state, via});
  };
  for (uint32_t s : nfa.initial()) {
    push(x, s, 0xffffffffu, kInvalidSymbol);
  }
  for (uint32_t idx = 0; idx < visits.size(); ++idx) {
    Visit visit = visits[idx];
    if (visit.node == y && nfa.IsAccepting(visit.state)) {
      std::vector<SemipathStep> path;
      for (uint32_t i = idx; visits[i].parent != 0xffffffffu;
           i = visits[i].parent) {
        path.push_back({visits[visits[i].parent].node, visits[i].via,
                        visits[i].node});
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (const NfaTransition& t : nfa.TransitionsFrom(visit.state)) {
      for (NodeId next : snapshot->Successors(visit.node, t.symbol)) {
        push(next, t.to, idx, t.symbol);
      }
    }
  }
  return std::nullopt;
}

std::string SemipathToString(const GraphDb& db,
                             const std::vector<SemipathStep>& path) {
  if (path.empty()) return "(empty semipath)";
  std::string out = db.NodeName(path.front().from);
  for (const SemipathStep& step : path) {
    const std::string label =
        db.alphabet().LabelName(SymbolLabel(step.symbol));
    if (IsInverseSymbol(step.symbol)) {
      out += " <-" + label + "- ";
    } else {
      out += " -" + label + "-> ";
    }
    out += db.NodeName(step.to);
  }
  return out;
}

}  // namespace rq

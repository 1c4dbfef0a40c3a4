// Edge-labeled directed graph databases (paper §3.1).
//
// A graph database is a finite directed graph whose edges carry labels from
// a finite alphabet Sigma; an edge r(x, y) states that relation r holds
// between objects x and y. Nodes are dense uint32 ids with optional names;
// labels live in an Alphabet shared with the queries, so query symbols and
// edge labels agree by construction. Both directions are indexed: a
// traversal step over an inverse symbol r- walks r-edges backward, which is
// what 2RPQ semipath semantics require.
//
// Thread-safety contract (docs/EVALUATION.md has the long form):
//   * GraphDb is a plain container: writes (AddNode/AddEdge/...) require
//     external synchronization, like a std::vector. No const method
//     mutates hidden state — the lazily-rebuilt adjacency index that used
//     to make concurrent const readers race is gone.
//   * Once mutation stops, any number of threads may read concurrently.
//   * Evaluation hot paths do not touch GraphDb at all: they run over an
//     immutable GraphSnapshot (graph/snapshot.h) obtained from
//     Snapshot(). The snapshot is a frozen CSR copy — it stays valid and
//     safely shareable across threads for its whole lifetime, no matter
//     what is done to the GraphDb afterwards.
//   * Aliasing contract (load-bearing for the live-mutation serving path,
//     docs/SERVING.md "Updates"): a GraphSnapshot shares NO storage with
//     the GraphDb it was built from — construction copies every edge into
//     the snapshot's own offset/target arrays. AddEdge / AddNode /
//     AddNamedNode after Snapshot() therefore never invalidate, resize
//     under, or otherwise touch memory a live snapshot reads; a writer may
//     keep mutating and re-snapshotting (serialized among writers) while
//     readers iterate older snapshots concurrently. What remains UNSAFE is
//     only the build itself: Snapshot() reads the edge vector, so it must
//     not run concurrently with a write to the same GraphDb.
//     tests/graph/snapshot_concurrency_test.cc pins this down under tsan.
//   * Published copies share the node table. Freeze() returns a copy
//     whose node names and name index are the source's own table; from
//     then on neither graph writes that table: the source's next named
//     node copies it first. So a writer may keep adding nodes while
//     readers call NodeName/FindNode on a frozen copy. Ordinary copies
//     share nothing, and a moved-from GraphDb is an empty graph.
#ifndef RQ_GRAPH_GRAPH_DB_H_
#define RQ_GRAPH_GRAPH_DB_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "common/status.h"
#include "common/strings.h"

namespace rq {

using NodeId = uint32_t;

class GraphSnapshot;

struct Edge {
  NodeId src;
  uint32_t label;
  NodeId dst;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.label == b.label && a.dst == b.dst;
  }
};

class GraphDb {
 public:
  GraphDb() = default;
  GraphDb(const GraphDb& other);
  GraphDb(GraphDb&& other) noexcept;
  GraphDb& operator=(GraphDb other) noexcept;

  // A copy to publish: edges and alphabet are copied, the node table is
  // shared (the aliasing contract above), so this costs O(edges + labels)
  // whatever the number of nodes.
  GraphDb Freeze();

  // The label alphabet. Queries over this database should parse their
  // regexes against this same alphabet.
  Alphabet& alphabet() { return alphabet_; }
  const Alphabet& alphabet() const { return alphabet_; }

  // Adds an anonymous node.
  NodeId AddNode() { return static_cast<NodeId>(num_nodes_++); }
  // Adds (or finds) a named node.
  NodeId AddNamedNode(std::string_view name);
  // Ensures nodes 0..count-1 exist.
  void EnsureNodes(size_t count) { num_nodes_ = std::max(num_nodes_, count); }

  // Node name, or "n<id>" for anonymous nodes.
  std::string NodeName(NodeId node) const;
  Result<NodeId> FindNode(std::string_view name) const;

  void AddEdge(NodeId src, uint32_t label, NodeId dst);
  void AddEdge(NodeId src, std::string_view label, NodeId dst) {
    AddEdge(src, alphabet_.InternLabel(label), dst);
  }

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }

  // Freezes the current edge set into an immutable CSR snapshot
  // (graph/snapshot.h) — the representation every evaluation hot path
  // runs on. Built eagerly, each call; hold the handle across an
  // evaluation (or batch of them) rather than re-snapshotting per query.
  // Safe to call from concurrent readers; not concurrently with writes.
  std::shared_ptr<const GraphSnapshot> Snapshot() const;

  // Nodes reachable from `node` in one step over `symbol` (forward edges
  // for forward symbols, backward edges for inverse symbols), sorted and
  // deduplicated.
  //
  // Convenience for tests and one-off probes: every call is an O(edges)
  // scan with no hidden index (so it is safe under concurrent const
  // readers and the result, returned by value, never dangles). Hot paths
  // must use Snapshot()->Successors(), which is O(1) per step.
  std::vector<NodeId> Successors(NodeId node, Symbol symbol) const;

  // All node pairs (x, y) connected by one `symbol` step, sorted.
  // O(edges) scan; prefer Snapshot()->SymbolPairs() in hot paths.
  std::vector<std::pair<NodeId, NodeId>> SymbolPairs(Symbol symbol) const;

  // Serialization: one "src label dst" line per edge, node names preserved.
  std::string ToText() const;
  static Result<GraphDb> FromText(std::string_view text);

 private:
  struct NodeTable {
    // Names of nodes 0..names.size()-1; an empty name, or a node past the
    // end, is anonymous.
    std::vector<std::string> names;
    StringMap<NodeId> index;  // transparent: string_view lookups
  };

  // The table to add a name to: a fresh one, or a private copy of one
  // that Freeze() shared.
  NodeTable& MutableNodes();
  void Swap(GraphDb& other) noexcept;

  Alphabet alphabet_;
  size_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::shared_ptr<NodeTable> nodes_;  // null until the first named node
  bool nodes_shared_ = false;  // nodes_ is read by a frozen copy
};

}  // namespace rq

#endif  // RQ_GRAPH_GRAPH_DB_H_

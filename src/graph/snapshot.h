// Immutable CSR snapshots of a graph database.
//
// GraphSnapshot freezes a GraphDb's adjacency structure into per-symbol
// compressed-sparse-row arrays: one offsets/targets pair covering every
// (symbol, node) bucket, forward and inverse symbols alike, each bucket
// sorted and deduplicated. The snapshot owns its arrays and never mutates
// after construction, which makes it safe by construction where the old
// lazily-rebuilt index raced:
//
//   * Any number of threads may call any const method concurrently, with
//     no locks — the product-BFS evaluation hot paths (pathquery/,
//     crpq/) fan sources across worker threads over one shared snapshot.
//   * Successors() returns a std::span into the snapshot's own arrays;
//     it stays valid for the snapshot's lifetime regardless of what
//     happens to the originating GraphDb (AddEdge on the GraphDb is
//     invisible to existing snapshots — take a new snapshot to see it).
//
// Build cost is O(nodes * symbols + edges) time and one counting sort; a
// snapshot is a value you take once per evaluation (or batch of
// evaluations), not per step. Obtain one with GraphDb::Snapshot(), which
// returns a shared_ptr handle that is cheap to copy across threads.
// A snapshot of a graph that only grew since an earlier snapshot can
// instead extend that one: one pass over the rows that copies untouched
// runs of buckets wholesale and merges the new edges into the buckets they
// touch, O(nodes * symbols + edges) copying but no sort of the old edges.
// The live-mutation store republishes every update batch this way.
#ifndef RQ_GRAPH_SNAPSHOT_H_
#define RQ_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph_db.h"

namespace rq {

class GraphSnapshot {
 public:
  // Builds the CSR arrays from the database's current edge set. Prefer
  // GraphDb::Snapshot(), which wraps the result in a shared handle.
  // Must not run concurrently with mutation of `db` (GraphDb writes are
  // externally synchronized); may run concurrently with other readers.
  explicit GraphSnapshot(const GraphDb& db);
  // The snapshot of `db` built from `base`, a snapshot of an earlier state
  // of the same graph: `db` holds base's edges as the prefix of edges(),
  // and at least base's nodes and labels. The result equals
  // GraphSnapshot(db) bucket for bucket; it shares no storage with `base`.
  GraphSnapshot(const GraphSnapshot& base, const GraphDb& db);
  ~GraphSnapshot();

  // The CSR arrays carry a durable mem.graph_bytes charge for the
  // snapshot's lifetime (common/mem.h); copying would double-release it.
  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  // Bytes held by the CSR arrays (the durable charge above).
  size_t ApproxBytes() const { return mem_bytes_; }

  size_t num_nodes() const { return num_nodes_; }
  // Symbols indexed at snapshot time (2 * labels interned back then).
  // Symbols interned afterwards simply have no edges here: Successors()
  // bounds-checks and returns an empty span for them.
  size_t num_symbols() const { return num_symbols_; }
  size_t num_edges() const { return num_edges_; }

  // Nodes reachable from `node` in one step over `symbol` (forward edges
  // for forward symbols, backward edges for inverse symbols), sorted and
  // deduplicated. Out-of-range node or symbol yields an empty span. The
  // span is valid for the lifetime of this snapshot.
  std::span<const NodeId> Successors(NodeId node, Symbol symbol) const {
    if (node >= num_nodes_ || symbol >= num_symbols_) return {};
    size_t row = static_cast<size_t>(symbol) * num_nodes_ + node;
    return {targets_.data() + offsets_[row],
            offsets_[row + 1] - offsets_[row]};
  }

  size_t OutDegree(NodeId node, Symbol symbol) const {
    return Successors(node, symbol).size();
  }

  // All node pairs (x, y) connected by one `symbol` step, sorted and
  // deduplicated. Served straight from the CSR rows — O(answer), not the
  // O(edges) rescan GraphDb::SymbolPairs pays.
  std::vector<std::pair<NodeId, NodeId>> SymbolPairs(Symbol symbol) const;

 private:
  // Records the durable charge and the build in graph.snapshots.
  void Charge();

  size_t num_nodes_ = 0;
  size_t num_symbols_ = 0;
  size_t num_edges_ = 0;
  // Bucket for (symbol, node) is targets_[offsets_[symbol * num_nodes +
  // node] .. offsets_[symbol * num_nodes + node + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<NodeId> targets_;
  size_t mem_bytes_ = 0;
};

// The shared handle GraphDb::Snapshot() returns: copy it freely across
// threads; the arrays live until the last handle drops.
using GraphSnapshotPtr = std::shared_ptr<const GraphSnapshot>;

}  // namespace rq

#endif  // RQ_GRAPH_SNAPSHOT_H_

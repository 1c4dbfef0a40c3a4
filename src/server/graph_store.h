// Versioned graph store for the live-mutation serving path
// (docs/SERVING.md "Updates").
//
// The store owns the master GraphDb behind a writer mutex and publishes
// immutable GraphViews: a frozen copy of the graph, its CSR snapshot
// (graph/snapshot.h), a handle to its relational image (query/query.h
// RelationalImage), and one sorted image per incrementally maintained
// label closure (relational/incremental.h) — all behind one monotonically
// increasing epoch. Consistency model:
//
//   * Readers never block on writers: Acquire() is a shared_ptr copy under
//     a dedicated view mutex held for nanoseconds; the republish happens
//     off to the side under the writer mutex, then swaps in.
//   * A request pins its view at admission time and evaluates against it
//     for its whole lifetime — mutations that land mid-request are
//     invisible to it (the epoch in the response says which version
//     answered).
//   * Writers republish once per update BATCH, not per edge. A batch
//     costs its ops and closure deltas, one merge per live label whose
//     closure grew (the previous sorted image plus the batch's new pairs,
//     sorted on their own), and the republish, timed in graph.rebuild_ns:
//     a frozen copy of the graph that shares the master's node table
//     (GraphDb::Freeze; the master copies the table before its next named
//     node), and the previous epoch's CSR snapshot extended by the batch's
//     edges. Only Load() builds a snapshot from scratch. Labels whose
//     closure did not grow keep their image. The relational image is not
//     built here: the first rq/datalog eval of an epoch builds it, once.
//   * Every cached artifact derived from graph contents is keyed by the
//     epoch (EvalCacheKey), so a mutation makes stale entries unreachable
//     instead of requiring invalidation; automata-only entries
//     (docs/CACHING.md) stay epoch-free because no graph byte enters
//     their keys. Cached answers are stored sorted (SortedRows,
//     relational/relation.h), so a hit renders a prefix without copying or
//     sorting. A path answer leaves product-BFS sorted and is stored as
//     is; other answers are sorted once.
#ifndef RQ_SERVER_GRAPH_STORE_H_
#define RQ_SERVER_GRAPH_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/lru.h"
#include "common/status.h"
#include "graph/graph_db.h"
#include "graph/snapshot.h"
#include "query/query.h"
#include "relational/incremental.h"
#include "relational/relation.h"
#include "server/protocol.h"

namespace rq {
namespace server {

// One published graph version: the eval target (query/query.h) of one
// epoch, plus the closures maintained at that epoch. Copy freely across
// threads; every component is shared and immutable once published, except
// the relational image, which is built once on first use and shared by
// every GraphView of the epoch, including SeedClosure's same-epoch
// republish.
struct GraphView : EvalTarget {
  uint64_t epoch = 0;
  // label id -> sorted image of that label's maintained transitive
  // closure; absent labels are not (currently) maintained.
  std::shared_ptr<
      const std::unordered_map<uint32_t, std::shared_ptr<const SortedRows>>>
      closures;

  bool has_graph() const { return graph != nullptr; }
  // The sorted image of `label`'s maintained closure, or null (fall back
  // to product-BFS).
  const SortedRows* Closure(uint32_t label) const {
    if (closures == nullptr) return nullptr;
    auto it = closures->find(label);
    return it == closures->end() ? nullptr : it->second.get();
  }
};

struct GraphStoreOptions {
  // Per-insert bound on the incremental delta product (sources × targets);
  // a blown bound demotes that label's closure to from-scratch evaluation
  // (incr.fallbacks). 0 = unbounded.
  size_t incr_delta_budget = 1u << 20;
  // Byte budget of the epoch-keyed eval answer cache; 0 disables it.
  size_t eval_cache_bytes = 8u << 20;
};

class GraphStore {
 public:
  explicit GraphStore(GraphStoreOptions options = {});

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  // Seeds the master graph from a copy of `graph` and publishes epoch 1.
  // Call before serving traffic; not synchronized against Apply().
  void Load(const GraphDb& graph);

  // The current published view (cheap; never blocks on a writer rebuild).
  GraphView Acquire() const;

  uint64_t epoch() const;

  struct UpdateResult {
    uint64_t epoch = 0;       // epoch the batch published
    size_t nodes_added = 0;
    size_t edges_added = 0;
    size_t closure_pairs = 0;  // pairs derived incrementally for the batch
  };

  // Applies one update batch under the writer mutex and publishes the next
  // epoch. Ops are validated up front (nothing applied on a malformed op);
  // a deadline/memory trip mid-batch publishes the prefix applied so far
  // and returns the error (the epoch in later responses tells the client
  // what landed). Live label closures are maintained per inserted edge and
  // re-imaged once per batch; a blown delta budget demotes the label
  // (incr.fallbacks) instead of failing the batch.
  Result<UpdateResult> Apply(const std::vector<UpdateOp>& ops);

  // Promotes `label` to incrementally maintained, using a closure computed
  // from `view` (base = that label's edge relation in the view), and sorts
  // its first image. Dropped silently when the store has moved past
  // view.epoch — a stale seed must not overwrite a newer closure.
  // Republishes the view's closure map in place (same epoch: the graph
  // itself is unchanged, and the relational image handle is shared).
  void SeedClosure(const GraphView& view, uint32_t label, Relation base,
                   Relation closure);

  // Epoch-keyed eval answer cache (kind "eval": cache.eval_hits / _misses /
  // ... counters), charged 8 B per value. StoreEval takes an answer that
  // is already sorted and returns the stored rows. Lookups miss and stores
  // pass the rows through uncached when the cache is disabled.
  std::shared_ptr<const SortedRows> LookupEval(std::string_view key);
  std::shared_ptr<const SortedRows> StoreEval(std::string key,
                                              SortedRows answer);

  // epoch || class || '\0' || query — binds every cached answer to the
  // graph version that produced it.
  static std::string EvalCacheKey(uint64_t epoch, std::string_view cls,
                                  std::string_view query);

 private:
  using ClosureMap =
      std::unordered_map<uint32_t, std::shared_ptr<const SortedRows>>;

  // Brings closure_images_ up to the maintained closures after a batch:
  // merges each grown label's new pairs into a fresh image and drops the
  // images of demoted labels. Caller holds writer_mu_.
  void RefreshImagesLocked();

  // Builds and swaps in the published view at `epoch_` from the current
  // master state: its snapshot extends `base`, a snapshot of an earlier
  // master state, or is built from scratch when `base` is null. Caller
  // holds writer_mu_.
  void PublishLocked(const GraphSnapshot* base);

  GraphStoreOptions options_;

  std::mutex writer_mu_;  // serializes Load/Apply/SeedClosure
  GraphDb master_;
  PerLabelClosure closures_;
  // One sorted image per live label, exactly the maintained closure's
  // pairs; what PublishLocked hands to new views. An image covers the
  // first size() rows of the closure's insertion-ordered Relation, which
  // only grows while the label stays live.
  ClosureMap closure_images_;
  uint64_t epoch_ = 0;

  mutable std::mutex view_mu_;  // guards only the view_ pointer swap
  std::shared_ptr<const GraphView> view_;

  std::optional<cache::LruByteCache<SortedRows>> eval_cache_;
};

}  // namespace server
}  // namespace rq

#endif  // RQ_SERVER_GRAPH_STORE_H_

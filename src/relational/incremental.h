// Incremental maintenance of binary transitive closures under edge
// insertions.
//
// Recursion-as-transitive-closure is the paper's central restriction
// (§3.4/§4.1); maintaining TC incrementally is the corresponding systems
// concern. On inserting (x, y), the new closure pairs are exactly
// (pred*(x) ∪ {x}) × (succ*(y) ∪ {y}) minus what is already present —
// computable from the old closure alone, no recomputation of the fixpoint.
// bench_incremental measures the payoff against recomputation;
// server/graph_store.h uses the per-label generalization to keep
// closure-shaped (`a+`) eval answers warm across live mutations
// (docs/SERVING.md "Updates").
//
// That delta product is worst-case O(V^2) for a single insert (think the
// edge completing a long chain into a cycle), so AddEdge obeys the same
// resource contract as every other long-running loop here: it polls
// CheckExecContext() (deadline + memory budget, common/deadline.h) and
// charges its working set and retained pairs under MemScope /
// MemSubsystem::kIncr (common/mem.h), at RelationRowBytes(2) per stored
// pair (relational/relation.h): the durable mem.incr_bytes charge covers
// base plus closure. Callers may additionally bound the product itself
// with max_delta_product; a blown bound comes back as over_budget = true
// rather than an error, leaving the caller to fall back to a from-scratch
// evaluation.
#ifndef RQ_RELATIONAL_INCREMENTAL_H_
#define RQ_RELATIONAL_INCREMENTAL_H_

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "relational/relation.h"

namespace rq {

// What one AddEdge did to the closure.
struct ClosureDelta {
  size_t pairs_added = 0;
  // True when the sources × targets delta product exceeded the caller's
  // max_delta_product bound. The base edge was still recorded but the
  // closure was NOT extended — it is now the closure of the base minus
  // this edge, and the caller must rebuild or stop trusting it.
  bool over_budget = false;
};

class IncrementalClosure {
 public:
  IncrementalClosure() : base_(2), closure_(2) {}

  // The closure carries a durable mem.incr_bytes charge; copying would
  // double-release it. Moves transfer the charge.
  IncrementalClosure(const IncrementalClosure&) = delete;
  IncrementalClosure& operator=(const IncrementalClosure&) = delete;
  IncrementalClosure(IncrementalClosure&& other) noexcept;
  IncrementalClosure& operator=(IncrementalClosure&& other) noexcept;
  ~IncrementalClosure();

  // Inserts a base edge and extends the closure with the delta product.
  // max_delta_product == 0 means unbounded. Returns kDeadlineExceeded /
  // kResourceExhausted / kCancelled when the installed ExecContext trips
  // mid-product — the closure is then PARTIAL (some delta pairs inserted,
  // some not) and must not be trusted as a transitive closure anymore.
  Result<ClosureDelta> AddEdge(Value x, Value y,
                               size_t max_delta_product = 0);

  // Replaces the contents with a precomputed base/closure image (the lazy
  // seeding path: compute the closure from scratch once, maintain it from
  // deltas afterwards).
  void Seed(Relation base, Relation closure);

  // True if (x, y) is in the current closure.
  bool Reaches(Value x, Value y) const { return closure_.Contains({x, y}); }

  const Relation& base() const { return base_; }
  const Relation& closure() const { return closure_; }
  // Retained bytes currently charged durably under mem.incr_bytes.
  size_t ApproxBytes() const { return mem_bytes_; }

 private:
  void ReleaseCharge();
  void SettleCharge();  // re-derives mem_bytes_ from the relation sizes

  Relation base_;
  Relation closure_;
  size_t mem_bytes_ = 0;
};

// Per-label generalization: one IncrementalClosure per edge label, with
// explicit liveness. A label starts untracked; Seed() promotes it to live
// (closure maintained from deltas); a blown delta budget or a resource
// trip mid-product demotes it (the stale closure is dropped, the demotion
// is counted in incr.fallbacks, and readers must fall back to from-scratch
// evaluation until the label is re-seeded).
class PerLabelClosure {
 public:
  // max_delta_product bounds every AddEdge's sources × targets product;
  // 0 = unbounded.
  explicit PerLabelClosure(size_t max_delta_product = 0)
      : max_delta_product_(max_delta_product) {}

  // Routes one labeled edge insert. Untracked and demoted labels return 0.
  // Live labels return the closure pairs added (counted in
  // incr.pairs_added); over-budget demotes and returns 0; a non-OK Status
  // (deadline/memory/cancel) demotes and propagates.
  Result<size_t> AddEdge(uint32_t label, Value x, Value y);

  // Promotes `label` to live with a from-scratch image (replacing any
  // previous state). `base` is the label's edge relation, `closure` its
  // transitive closure.
  void Seed(uint32_t label, Relation base, Relation closure);

  bool live(uint32_t label) const;
  // The maintained closure, or null unless live.
  const Relation* closure(uint32_t label) const;
  size_t num_live() const;
  size_t max_delta_product() const { return max_delta_product_; }

 private:
  struct Entry {
    IncrementalClosure inc;
    bool live = false;
  };

  void Demote(Entry* entry);

  std::unordered_map<uint32_t, Entry> labels_;
  size_t max_delta_product_;
};

}  // namespace rq

#endif  // RQ_RELATIONAL_INCREMENTAL_H_

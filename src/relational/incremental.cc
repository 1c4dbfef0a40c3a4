#include "relational/incremental.h"

#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/mem.h"
#include "obs/subsystems.h"

namespace rq {

IncrementalClosure::IncrementalClosure(IncrementalClosure&& other) noexcept
    : base_(std::move(other.base_)),
      closure_(std::move(other.closure_)),
      mem_bytes_(other.mem_bytes_) {
  other.base_ = Relation(2);
  other.closure_ = Relation(2);
  other.mem_bytes_ = 0;
}

IncrementalClosure& IncrementalClosure::operator=(
    IncrementalClosure&& other) noexcept {
  if (this == &other) return *this;
  ReleaseCharge();
  base_ = std::move(other.base_);
  closure_ = std::move(other.closure_);
  mem_bytes_ = other.mem_bytes_;
  other.base_ = Relation(2);
  other.closure_ = Relation(2);
  other.mem_bytes_ = 0;
  return *this;
}

IncrementalClosure::~IncrementalClosure() { ReleaseCharge(); }

void IncrementalClosure::ReleaseCharge() {
  if (mem_bytes_ != 0) {
    MemReleaseDurable(MemSubsystem::kIncr, static_cast<int64_t>(mem_bytes_));
    mem_bytes_ = 0;
  }
}

void IncrementalClosure::SettleCharge() {
  size_t now = (base_.size() + closure_.size()) * RelationRowBytes(2);
  if (now != mem_bytes_) {
    MemChargeDurable(MemSubsystem::kIncr, static_cast<int64_t>(now) -
                                              static_cast<int64_t>(mem_bytes_));
    mem_bytes_ = now;
  }
}

void IncrementalClosure::Seed(Relation base, Relation closure) {
  base_ = std::move(base);
  closure_ = std::move(closure);
  SettleCharge();
}

Result<ClosureDelta> IncrementalClosure::AddEdge(Value x, Value y,
                                                 size_t max_delta_product) {
  base_.Insert({x, y});
  if (closure_.Contains({x, y})) {
    // x already reaches y, so every pair the product below would produce is
    // already derivable through the old closure.
    SettleCharge();
    return ClosureDelta{};
  }
  // The working vectors and the product loop run under an attribution
  // scope: the transient bytes count against the calling request's budget
  // and flow back out when the scope ends; the retained closure pairs are
  // settled into the durable mem.incr_bytes charge below.
  MemScope scope(MemSubsystem::kIncr);

  // Sources: everything reaching x, plus x itself.
  std::vector<Value> sources{x};
  for (uint32_t row : closure_.RowsWithValue(1, x)) {
    sources.push_back(closure_.row(row)[0]);
  }
  // Targets: everything reachable from y, plus y itself.
  std::vector<Value> targets{y};
  for (uint32_t row : closure_.RowsWithValue(0, y)) {
    targets.push_back(closure_.row(row)[1]);
  }
  MemCharge(static_cast<int64_t>((sources.size() + targets.size()) *
                                 sizeof(Value)));
  if (Status s = CheckExecContext(); !s.ok()) {
    // Nothing inserted into the closure yet; it is still exact for the old
    // base, but the new edge is unaccounted — same contract as a trip
    // mid-product: stop trusting it.
    return s;
  }
  if (max_delta_product > 0 &&
      sources.size() * targets.size() > max_delta_product) {
    ClosureDelta delta;
    delta.over_budget = true;
    SettleCharge();
    return delta;
  }
  ClosureDelta delta;
  for (Value a : sources) {
    size_t added = 0;
    for (Value b : targets) {
      // Deadline + memory budget poll on the product loop: worst case this
      // is O(V^2) inserts for one edge (common/deadline.h amortizes the
      // clock reads, so per-pair polling is cheap).
      if (Status s = CheckExecContext(); !s.ok()) {
        SettleCharge();
        return s;
      }
      if (closure_.Insert({a, b})) ++added;
    }
    // One charge per source row of the product: the pairs it added.
    delta.pairs_added += added;
    MemCharge(static_cast<int64_t>(added * RelationRowBytes(2)));
  }
  SettleCharge();
  return delta;
}

Result<size_t> PerLabelClosure::AddEdge(uint32_t label, Value x, Value y) {
  auto it = labels_.find(label);
  if (it == labels_.end() || !it->second.live) return size_t{0};
  Entry& entry = it->second;
  Result<ClosureDelta> delta = entry.inc.AddEdge(x, y, max_delta_product_);
  if (!delta.ok()) {
    Demote(&entry);
    return delta.status();
  }
  if (delta->over_budget) {
    Demote(&entry);
    return size_t{0};
  }
  obs::IncrCounters::Get().pairs_added.Add(delta->pairs_added);
  return delta->pairs_added;
}

void PerLabelClosure::Seed(uint32_t label, Relation base, Relation closure) {
  Entry& entry = labels_[label];
  entry.inc.Seed(std::move(base), std::move(closure));
  entry.live = true;
  obs::IncrCounters::Get().seeds.Increment();
}

void PerLabelClosure::Demote(Entry* entry) {
  // Drop the stale image (and its durable charge) rather than keeping a
  // relation nobody may read; a later Seed() revives the label.
  entry->inc = IncrementalClosure();
  entry->live = false;
  obs::IncrCounters::Get().fallbacks.Increment();
}

bool PerLabelClosure::live(uint32_t label) const {
  auto it = labels_.find(label);
  return it != labels_.end() && it->second.live;
}

const Relation* PerLabelClosure::closure(uint32_t label) const {
  auto it = labels_.find(label);
  if (it == labels_.end() || !it->second.live) return nullptr;
  return &it->second.inc.closure();
}

size_t PerLabelClosure::num_live() const {
  size_t n = 0;
  for (const auto& [label, entry] : labels_) {
    if (entry.live) ++n;
  }
  return n;
}

}  // namespace rq

#include "graph/snapshot.h"

#include <algorithm>
#include <iterator>
#include <ranges>
#include <tuple>

#include "common/mem.h"
#include "obs/subsystems.h"

namespace rq {

GraphSnapshot::GraphSnapshot(const GraphDb& db)
    : num_nodes_(db.num_nodes()),
      num_symbols_(db.alphabet().num_symbols()),
      num_edges_(db.num_edges()) {
  const size_t rows = num_nodes_ * num_symbols_;
  // Every edge lands in exactly two buckets (forward + inverse), so the
  // pre-dedup target count is 2 * edges; uint32 offsets cap the snapshot
  // at ~2B adjacency entries, far beyond in-memory graph sizes here.
  RQ_CHECK(db.num_edges() * 2 <= 0xffffffffull);
  offsets_.assign(rows + 1, 0);

  // Counting sort: bucket sizes, prefix-sum into offsets, then fill.
  for (const Edge& e : db.edges()) {
    ++offsets_[static_cast<size_t>(ForwardSymbolOf(e.label)) * num_nodes_ +
               e.src + 1];
    ++offsets_[static_cast<size_t>(InverseSymbolOf(e.label)) * num_nodes_ +
               e.dst + 1];
  }
  for (size_t row = 0; row < rows; ++row) offsets_[row + 1] += offsets_[row];
  targets_.resize(offsets_[rows]);
  std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : db.edges()) {
    targets_[fill[static_cast<size_t>(ForwardSymbolOf(e.label)) * num_nodes_ +
                  e.src]++] = e.dst;
    targets_[fill[static_cast<size_t>(InverseSymbolOf(e.label)) * num_nodes_ +
                  e.dst]++] = e.src;
  }

  // Sort each bucket and compact out duplicate parallel edges in place.
  // Rows are processed in offset order, so the write cursor never passes
  // a row still waiting to be read.
  uint32_t write = 0;
  for (size_t row = 0; row < rows; ++row) {
    uint32_t begin = offsets_[row];
    uint32_t end = offsets_[row + 1];
    std::sort(targets_.begin() + begin, targets_.begin() + end);
    offsets_[row] = write;
    for (uint32_t i = begin; i < end; ++i) {
      if (i > begin && targets_[i] == targets_[i - 1]) continue;
      targets_[write++] = targets_[i];
    }
  }
  offsets_[rows] = write;
  targets_.resize(write);
  targets_.shrink_to_fit();
  Charge();
}

GraphSnapshot::GraphSnapshot(const GraphSnapshot& base, const GraphDb& db)
    : num_nodes_(db.num_nodes()),
      num_symbols_(db.alphabet().num_symbols()),
      num_edges_(db.num_edges()) {
  RQ_CHECK(num_nodes_ >= base.num_nodes_ &&
           num_symbols_ >= base.num_symbols_ &&
           num_edges_ >= base.num_edges_);
  RQ_CHECK(num_edges_ * 2 <= 0xffffffffull);

  // The new edges' bucket entries (symbol, node, target) in row order,
  // less the ones base already holds, so targets_ is sized exactly.
  using Entry = std::tuple<Symbol, NodeId, NodeId>;
  std::vector<Entry> added;
  added.reserve(2 * (num_edges_ - base.num_edges_));
  for (size_t i = base.num_edges_; i < num_edges_; ++i) {
    const Edge& e = db.edges()[i];
    added.emplace_back(ForwardSymbolOf(e.label), e.src, e.dst);
    added.emplace_back(InverseSymbolOf(e.label), e.dst, e.src);
  }
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());
  std::erase_if(added, [&base](const Entry& entry) {
    auto [symbol, node, target] = entry;
    std::span<const NodeId> bucket = base.Successors(node, symbol);
    return std::binary_search(bucket.begin(), bucket.end(), target);
  });

  offsets_.resize(num_nodes_ * num_symbols_ + 1);
  targets_.reserve(base.targets_.size() + added.size());
  // Buckets [from, to) of `symbol` that no new edge touches: the ones base
  // has are copied in one block with shifted offsets, the rest are empty.
  auto copy_untouched = [&](Symbol symbol, NodeId from, NodeId to) {
    uint32_t* out = offsets_.data() + static_cast<size_t>(symbol) * num_nodes_;
    if (symbol < base.num_symbols_ && from < base.num_nodes_) {
      NodeId end = std::min<NodeId>(to, base.num_nodes_);
      const uint32_t* in = base.offsets_.data() +
                           static_cast<size_t>(symbol) * base.num_nodes_;
      const uint32_t shift =
          static_cast<uint32_t>(targets_.size()) - in[from];
      for (NodeId node = from; node < end; ++node) {
        out[node] = in[node] + shift;
      }
      targets_.insert(targets_.end(), base.targets_.begin() + in[from],
                      base.targets_.begin() + in[end]);
      from = end;
    }
    std::fill(out + from, out + to, static_cast<uint32_t>(targets_.size()));
  };
  auto next = added.begin();
  for (Symbol symbol = 0; symbol < num_symbols_; ++symbol) {
    NodeId node = 0;
    while (next != added.end() && std::get<0>(*next) == symbol) {
      const NodeId touched = std::get<1>(*next);
      copy_untouched(symbol, node, touched);
      auto last = next;
      while (last != added.end() && std::get<0>(*last) == symbol &&
             std::get<1>(*last) == touched) {
        ++last;
      }
      // Both sides are sorted and disjoint, so the merge is the bucket.
      offsets_[static_cast<size_t>(symbol) * num_nodes_ + touched] =
          static_cast<uint32_t>(targets_.size());
      std::ranges::merge(base.Successors(touched, symbol),
                         std::ranges::subrange(next, last) |
                             std::views::elements<2>,
                         std::back_inserter(targets_));
      next = last;
      node = touched + 1;
    }
    copy_untouched(symbol, node, static_cast<NodeId>(num_nodes_));
  }
  offsets_.back() = static_cast<uint32_t>(targets_.size());
  Charge();
}

void GraphSnapshot::Charge() {
  // Snapshots outlive any single query (shared handles), so their CSR
  // arrays are a durable mem.graph_bytes charge, released on destruction.
  mem_bytes_ = offsets_.capacity() * sizeof(uint32_t) +
               targets_.capacity() * sizeof(NodeId) + sizeof(*this);
  MemChargeDurable(MemSubsystem::kGraph, static_cast<int64_t>(mem_bytes_));
  obs::GraphEvalCounters::Get().snapshots.Increment();
}

GraphSnapshot::~GraphSnapshot() {
  MemReleaseDurable(MemSubsystem::kGraph, static_cast<int64_t>(mem_bytes_));
}

std::vector<std::pair<NodeId, NodeId>> GraphSnapshot::SymbolPairs(
    Symbol symbol) const {
  std::vector<std::pair<NodeId, NodeId>> out;
  if (symbol >= num_symbols_) return out;
  const size_t base = static_cast<size_t>(symbol) * num_nodes_;
  out.reserve(offsets_[base + num_nodes_] - offsets_[base]);
  for (NodeId x = 0; x < num_nodes_; ++x) {
    for (uint32_t i = offsets_[base + x]; i < offsets_[base + x + 1]; ++i) {
      out.emplace_back(x, targets_[i]);
    }
  }
  return out;  // already sorted: outer loop ascending, buckets sorted
}

}  // namespace rq

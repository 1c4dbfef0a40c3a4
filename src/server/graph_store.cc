#include "server/graph_store.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>
#include <utility>

#include "cache/key.h"
#include "common/deadline.h"
#include "obs/subsystems.h"
#include "rq/eval.h"

namespace rq {
namespace server {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool RowLess(const Value* a, const Value* b, size_t arity) {
  return std::lexicographical_compare(a, a + arity, b, b + arity);
}

// Flattens `tuples` first so the sort compares contiguous rows, then
// gathers them in order.
SortedRows SortTuples(std::span<const Tuple> tuples, size_t arity) {
  std::vector<Value> flat;
  flat.reserve(tuples.size() * arity);
  for (const Tuple& tuple : tuples) {
    flat.insert(flat.end(), tuple.begin(), tuple.end());
  }
  std::vector<uint32_t> order(tuples.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return RowLess(flat.data() + a * arity, flat.data() + b * arity, arity);
  });
  SortedRows out;
  out.arity = arity;
  out.rows = tuples.size();
  out.values.reserve(flat.size());
  for (uint32_t i : order) {
    const Value* row = flat.data() + i * arity;
    out.values.insert(out.values.end(), row, row + arity);
  }
  return out;
}

// `image` plus the pairs `closure` gained past image.size(): the new pairs
// are sorted on their own and merged in, linear in the image. A Relation
// holds no duplicates, so neither does the merge.
SortedRows MergeGrowth(const SortedRows& image, const Relation& closure) {
  SortedRows added =
      SortTuples(std::span(closure.tuples()).subspan(image.size()),
                 image.arity);
  SortedRows out;
  out.arity = image.arity;
  out.rows = image.rows + added.rows;
  out.values.reserve(image.values.size() + added.values.size());
  size_t i = 0;
  size_t j = 0;
  while (i < image.rows || j < added.rows) {
    bool from_image =
        j == added.rows ||
        (i < image.rows && RowLess(image.row(i), added.row(j), image.arity));
    const Value* row = from_image ? image.row(i++) : added.row(j++);
    out.values.insert(out.values.end(), row, row + image.arity);
  }
  return out;
}

}  // namespace

SortedRows SortRows(const Relation& relation) {
  return SortTuples(relation.tuples(), relation.arity());
}

RelationalImage::RelationalImage(std::shared_ptr<const GraphDb> graph)
    : state_(std::make_shared<State>()) {
  state_->graph = std::move(graph);
}

const Database& RelationalImage::operator*() const {
  RQ_CHECK(state_ != nullptr);
  std::call_once(state_->built, [this] {
    state_->database = GraphToDatabase(*state_->graph);
  });
  return state_->database;
}

GraphStore::GraphStore(GraphStoreOptions options)
    : options_(options), closures_(options.incr_delta_budget) {
  // Epoch 0: no graph yet. Evals against this view report "no graph"
  // until a Load() or the first update batch publishes epoch 1.
  view_ = std::make_shared<const GraphView>();
  if (options_.eval_cache_bytes > 0) {
    eval_cache_.emplace("eval", options_.eval_cache_bytes);
  }
}

void GraphStore::Load(const GraphDb& graph) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  master_ = graph;
  ++epoch_;
  PublishLocked();
}

GraphView GraphStore::Acquire() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return *view_;
}

uint64_t GraphStore::epoch() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_->epoch;
}

void GraphStore::PublishLocked() {
  uint64_t start_ns = NowNanos();
  auto view = std::make_shared<GraphView>();
  view->epoch = epoch_;
  // The published graph is a frozen COPY of the master: later Apply()
  // batches mutate the master freely while admitted requests keep reading
  // this version (the aliasing contract in graph/graph_db.h makes the
  // snapshot safe even against the master itself, but the relational image
  // and NodeName rendering need a stable GraphDb too).
  auto frozen = std::make_shared<const GraphDb>(master_);
  view->graph = frozen;
  view->snapshot = frozen->Snapshot();
  view->database = RelationalImage(frozen);
  view->closures = std::make_shared<const ClosureMap>(closure_images_);
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    view_ = std::move(view);
  }
  auto& counters = obs::GraphEvalCounters::Get();
  counters.epoch.Set(static_cast<int64_t>(epoch_));
  counters.rebuild_ns.Record(NowNanos() - start_ns);
}

Result<GraphStore::UpdateResult> GraphStore::Apply(
    const std::vector<UpdateOp>& ops) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  UpdateResult result;
  if (ops.empty()) {
    result.epoch = epoch_;
    return result;
  }
  auto& counters = obs::GraphEvalCounters::Get();
  size_t nodes_before = master_.num_nodes();
  Status failure = Status::Ok();
  size_t applied = 0;
  for (const UpdateOp& op : ops) {
    if (Status s = CheckExecContext(); !s.ok()) {
      failure = s;
      break;
    }
    switch (op.kind) {
      case UpdateOp::Kind::kAddNode:
        if (op.name.empty()) {
          master_.AddNode();
        } else {
          master_.AddNamedNode(op.name);
        }
        break;
      case UpdateOp::Kind::kAddEdge: {
        NodeId src = master_.AddNamedNode(op.src);
        NodeId dst = master_.AddNamedNode(op.dst);
        uint32_t label = master_.alphabet().InternLabel(op.label);
        master_.AddEdge(src, label, dst);
        ++result.edges_added;
        // Maintain the label's closure from the delta. Over-budget demotes
        // the label inside PerLabelClosure (counted in incr.fallbacks) and
        // is not a batch failure; a resource trip aborts the batch — the
        // prefix applied so far still publishes below, so the master and
        // the served view never diverge silently.
        Result<size_t> pairs = closures_.AddEdge(label, src, dst);
        if (!pairs.ok()) {
          failure = pairs.status();
        } else {
          result.closure_pairs += *pairs;
        }
        break;
      }
    }
    if (!failure.ok()) break;
    ++applied;
  }
  RefreshImagesLocked();
  if (applied > 0 || failure.ok()) {
    ++epoch_;
    counters.mutations.Add(applied);
    PublishLocked();
  }
  result.epoch = epoch_;
  result.nodes_added = master_.num_nodes() - nodes_before;
  if (!failure.ok()) return failure;
  return result;
}

void GraphStore::RefreshImagesLocked() {
  for (auto it = closure_images_.begin(); it != closure_images_.end();) {
    const Relation* maintained = closures_.closure(it->first);
    if (maintained == nullptr) {  // demoted by this batch
      it = closure_images_.erase(it);
      continue;
    }
    if (maintained->size() != it->second->size()) {
      it->second =
          std::make_shared<const SortedRows>(MergeGrowth(*it->second,
                                                         *maintained));
      obs::IncrCounters::Get().images.Increment();
    }
    ++it;
  }
}

void GraphStore::SeedClosure(const GraphView& view, uint32_t label,
                             Relation base, Relation closure) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // A seed computed from an older epoch may be missing edges that landed
  // since; accepting it would serve stale answers forever. Drop it — the
  // next closure-shaped eval against the current epoch will re-seed.
  if (view.epoch != epoch_ || epoch_ == 0) return;
  closures_.Seed(label, std::move(base), std::move(closure));
  closure_images_[label] =
      std::make_shared<const SortedRows>(SortRows(*closures_.closure(label)));
  obs::IncrCounters::Get().images.Increment();
  // Republish the closure map at the SAME epoch: the graph is unchanged,
  // so requests already pinned to this epoch may keep their view, and new
  // admissions pick up the maintained closure without a version bump.
  auto current = [&] {
    std::lock_guard<std::mutex> view_lock(view_mu_);
    return view_;
  }();
  auto updated = std::make_shared<GraphView>(*current);
  updated->closures = std::make_shared<const ClosureMap>(closure_images_);
  std::lock_guard<std::mutex> view_lock(view_mu_);
  view_ = std::move(updated);
}

std::shared_ptr<const SortedRows> GraphStore::LookupEval(
    std::string_view key) {
  if (!eval_cache_.has_value()) return nullptr;
  return eval_cache_->Get(key);
}

std::shared_ptr<const SortedRows> GraphStore::StoreEval(
    std::string key, const Relation& answer) {
  SortedRows rows = SortRows(answer);
  if (!eval_cache_.has_value()) {
    return std::make_shared<const SortedRows>(std::move(rows));
  }
  size_t bytes = rows.values.size() * sizeof(Value);
  return eval_cache_->Put(std::move(key), std::move(rows), bytes);
}

std::string GraphStore::EvalCacheKey(uint64_t epoch, std::string_view cls,
                                     std::string_view query) {
  std::string key;
  cache::AppendU64(epoch, &key);
  key.append(cls);
  key.push_back('\0');
  key.append(query);
  return key;
}

}  // namespace server
}  // namespace rq

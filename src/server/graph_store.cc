#include "server/graph_store.h"

#include <utility>

#include "cache/key.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "obs/subsystems.h"

namespace rq {
namespace server {

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
  PublishLocked(/*base=*/nullptr);
}

GraphView GraphStore::Acquire() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return *view_;
}

uint64_t GraphStore::epoch() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_->epoch;
}

void GraphStore::PublishLocked(const GraphSnapshot* base) {
  uint64_t start_ns = SteadyNowNs();
  auto view = std::make_shared<GraphView>();
  view->epoch = epoch_;
  // The published graph is a frozen COPY of the master: later Apply()
  // batches mutate the master freely while admitted requests keep reading
  // this version (the aliasing contract in graph/graph_db.h makes the
  // snapshot safe even against the master itself, but the relational image
  // and NodeName rendering need a stable GraphDb too). The copy shares the
  // master's node table, and the snapshot extends `base` by the edges
  // appended since.
  auto graph = std::make_shared<const GraphDb>(master_.Freeze());
  GraphSnapshotPtr snapshot =
      base == nullptr ? graph->Snapshot()
                      : std::make_shared<const GraphSnapshot>(*base, *graph);
  EvalTarget& target = *view;
  target = EvalTarget(std::move(graph), std::move(snapshot));
  view->closures = std::make_shared<const ClosureMap>(closure_images_);
  std::shared_ptr<const GraphView> replaced;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    replaced = std::exchange(view_, std::move(view));
  }
  // Unless a request still pins it, this frees the replaced view's graph,
  // snapshot, closure images and relational image: outside view_mu_, so
  // Acquire() never waits on it.
  replaced.reset();
  auto& counters = obs::GraphEvalCounters::Get();
  counters.epoch.Set(static_cast<int64_t>(epoch_));
  counters.rebuild_ns.Record(SteadyNowNs() - start_ns);
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
    // view_ changes only under writer_mu_, which this thread holds. Its
    // snapshot is the master's at the last publish (or null before the
    // first), and the master has only grown since.
    PublishLocked(view_->snapshot.get());
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
      // The rows the closure gained past the image are sorted on their own
      // and merged in, linear in the image. A Relation holds no
      // duplicates, so neither does the merge.
      it->second = std::make_shared<const SortedRows>(MergeRows(
          *it->second, SortRows(*maintained, it->second->size())));
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

std::shared_ptr<const SortedRows> GraphStore::StoreEval(std::string key,
                                                       SortedRows answer) {
  if (!eval_cache_.has_value()) {
    return std::make_shared<const SortedRows>(std::move(answer));
  }
  size_t bytes = answer.values.size() * sizeof(Value);
  return eval_cache_->Put(std::move(key), std::move(answer), bytes);
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

// Tests of the update-batch republish (docs/SERVING.md "What a batch
// costs"): every published view's CSR snapshot, extended from the previous
// epoch's by the batch's edges, equals a from-scratch snapshot of the
// view's graph, and the durable mem.graph_bytes charge follows the live
// snapshots. Published graphs share the master's node table, so a pinned
// view keeps its node names while the master grows; ordinary GraphDb
// copies share nothing, and a moved-from GraphDb is a usable empty graph.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ranges>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/mem.h"
#include "common/rng.h"
#include "graph/graph_db.h"
#include "graph/snapshot.h"
#include "gtest/gtest.h"
#include "obs/mem_stats.h"
#include "server/graph_store.h"

namespace rq {
namespace server {
namespace {

int64_t LiveGraphBytes() {
  return obs::MemStats::Get()
      .subsystem_bytes[static_cast<size_t>(MemSubsystem::kGraph)]
      ->value();
}

UpdateOp NodeOp(std::string name) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kAddNode;
  op.name = std::move(name);
  return op;
}

UpdateOp EdgeOp(std::string src, std::string label, std::string dst) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kAddEdge;
  op.src = std::move(src);
  op.label = std::move(label);
  op.dst = std::move(dst);
  return op;
}

// `published` equals a from-scratch snapshot of `graph`, bucket by bucket.
void ExpectSameSnapshot(const GraphSnapshot& published, const GraphDb& graph,
                        const std::string& context) {
  GraphSnapshotPtr scratch = graph.Snapshot();
  ASSERT_EQ(published.num_nodes(), scratch->num_nodes()) << context;
  ASSERT_EQ(published.num_symbols(), scratch->num_symbols()) << context;
  ASSERT_EQ(published.num_edges(), scratch->num_edges()) << context;
  for (Symbol symbol = 0; symbol < scratch->num_symbols(); ++symbol) {
    for (NodeId node = 0; node < scratch->num_nodes(); ++node) {
      ASSERT_TRUE(std::ranges::equal(published.Successors(node, symbol),
                                     scratch->Successors(node, symbol)))
          << context << ": bucket (" << graph.alphabet().SymbolName(symbol)
          << ", " << graph.NodeName(node) << ")";
    }
  }
}

// A random graph over named people "p<i>" and labels l0, l1.
GraphDb RandomPeople(Rng* rng, int people, int edges) {
  GraphDb graph;
  for (int i = 0; i < people; ++i) {
    graph.AddNamedNode("p" + std::to_string(i));
  }
  for (int i = 0; i < edges; ++i) {
    graph.AddEdge(static_cast<NodeId>(rng->Below(people)),
                  "l" + std::to_string(rng->Below(2)),
                  static_cast<NodeId>(rng->Below(people)));
  }
  return graph;
}

// One random batch: edges among known names (self-loops and repeats of the
// batch's own edges included), edges to fresh names, named and anonymous
// nodes, and now and then a label the graph has not seen.
std::vector<UpdateOp> RandomBatch(Rng* rng, std::vector<std::string>* names,
                                  int* labels, int* fresh, size_t size) {
  auto name = [&] {
    if (rng->Chance(0.15)) {
      names->push_back("f" + std::to_string((*fresh)++));
      return names->back();
    }
    return (*names)[rng->Below(names->size())];
  };
  std::vector<UpdateOp> ops;
  while (ops.size() < size) {
    const uint64_t kind = rng->Below(10);
    if (kind == 0) {
      ops.push_back(NodeOp(rng->Chance(0.5) ? "" : name()));
    } else if (kind == 1 && !ops.empty()) {
      ops.push_back(ops[rng->Below(ops.size())]);  // a duplicate op
    } else {
      if (rng->Chance(0.05)) ++*labels;
      std::string label = "l" + std::to_string(rng->Below(*labels));
      std::string src = name();
      std::string dst = rng->Chance(0.1) ? src : name();
      ops.push_back(EdgeOp(std::move(src), std::move(label), std::move(dst)));
    }
  }
  return ops;
}

// Applies `ops` under a deadline that expires part-way through: the
// context reads the clock on its first poll, while the deadline is still
// ahead, and then only once per ExecContext::kStride polls, and the store
// polls once per op. Returns Apply's status.
Status ApplyUntilDeadline(GraphStore* store, const std::vector<UpdateOp>& ops) {
  for (int64_t ms = 20;; ms *= 2) {
    ExecContext ctx(Deadline::AfterMillis(ms));
    ScopedExecContext scoped(&ctx);
    if (!CheckExecContext().ok()) continue;  // descheduled: a longer one
    std::this_thread::sleep_for(std::chrono::milliseconds(ms + 5));
    return store->Apply(ops).status();
  }
}

TEST(RepublishPropertyTest, ExtendedSnapshotEqualsScratchBuild) {
  const int64_t graph_bytes_before = LiveGraphBytes();
  {
    GraphStore store;
    std::vector<GraphView> pinned;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed);
      std::vector<std::string> names;
      int labels = 2;
      int fresh = 0;
      for (int batch = 0; batch < 80; ++batch) {
        const std::string context =
            "seed " + std::to_string(seed) + " batch " + std::to_string(batch);
        const uint64_t epoch = store.epoch();
        if (batch == 0) {
          // A Load of an unrelated graph, the second one from seed 2 on:
          // its snapshot must be built from scratch.
          const int people = 20 + static_cast<int>(rng.Below(20));
          store.Load(RandomPeople(&rng, people, 200));
          names.clear();
          for (int i = 0; i < people; ++i) {
            names.push_back("p" + std::to_string(i));
          }
        } else if (batch % 15 == 0) {
          std::vector<UpdateOp> ops =
              RandomBatch(&rng, &names, &labels, &fresh, 2 * ExecContext::kStride);
          Status status = ApplyUntilDeadline(&store, ops);
          EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << context;
          // The applied prefix still published.
          EXPECT_EQ(store.epoch(), epoch + 1) << context;
        } else {
          const size_t size = rng.Chance(0.1) ? 0 : 1 + rng.Below(12);
          std::vector<UpdateOp> ops =
              RandomBatch(&rng, &names, &labels, &fresh, size);
          ASSERT_TRUE(store.Apply(ops).ok()) << context;
          EXPECT_EQ(store.epoch(), size == 0 ? epoch : epoch + 1) << context;
        }
        GraphView view = store.Acquire();
        ASSERT_TRUE(view.has_graph()) << context;
        ExpectSameSnapshot(*view.snapshot, *view.graph, context);
        if (HasFatalFailure()) return;

        // The durable charge is the live snapshots': the current view's
        // and the ones pinned views still hold.
        pinned.push_back(view);
        if (pinned.size() > 3) pinned.erase(pinned.begin());
        std::set<const GraphSnapshot*> live;
        for (const GraphView& held : pinned) live.insert(held.snapshot.get());
        int64_t live_bytes = 0;
        for (const GraphSnapshot* snapshot : live) {
          live_bytes += static_cast<int64_t>(snapshot->ApproxBytes());
        }
        EXPECT_EQ(LiveGraphBytes() - graph_bytes_before, live_bytes)
            << context;
      }
    }
    // Once the old views drop, only the current snapshot is charged.
    pinned.clear();
    GraphView current = store.Acquire();
    EXPECT_EQ(LiveGraphBytes() - graph_bytes_before,
              static_cast<int64_t>(current.snapshot->ApproxBytes()));
  }
  EXPECT_EQ(LiveGraphBytes(), graph_bytes_before);
}

TEST(RepublishPropertyTest, UpdatesOnAnEmptyStoreBuildThenExtend) {
  GraphStore store;
  ASSERT_TRUE(store.Apply({NodeOp(""), EdgeOp("a", "knows", "b")}).ok());
  GraphView first = store.Acquire();
  ExpectSameSnapshot(*first.snapshot, *first.graph, "first batch");
  ASSERT_TRUE(store.Apply({EdgeOp("b", "likes", "c"),
                           EdgeOp("a", "knows", "b")}).ok());
  GraphView second = store.Acquire();
  ExpectSameSnapshot(*second.snapshot, *second.graph, "second batch");
  // Nodes: the anonymous n0, then a, b, c; labels knows, likes.
  EXPECT_EQ(second.graph->num_nodes(), 4u);
  EXPECT_TRUE(std::ranges::equal(
      second.snapshot->Successors(1, ForwardSymbolOf(0)),
      std::vector<NodeId>{2}));
  EXPECT_TRUE(std::ranges::equal(
      second.snapshot->Successors(3, InverseSymbolOf(1)),
      std::vector<NodeId>{2}));
  EXPECT_TRUE(second.snapshot->Successors(0, InverseSymbolOf(0)).empty());
}

// --- The node table a published view shares with the master --------------

TEST(NodeTableSharingTest, PinnedViewKeepsItsNodeNames) {
  auto graph = GraphDb::FromText("a knows b\nb knows c\n");
  ASSERT_TRUE(graph.ok());
  GraphStore store;
  store.Load(*graph);
  GraphView pinned = store.Acquire();

  for (int batch = 0; batch < 4; ++batch) {
    const std::string id = std::to_string(batch);
    ASSERT_TRUE(store.Apply({NodeOp("x" + id), NodeOp(""),
                             EdgeOp("c", "knows", "y" + id)})
                    .ok());
  }
  EXPECT_EQ(pinned.graph->num_nodes(), 3u);
  EXPECT_EQ(pinned.graph->NodeName(2), "c");
  EXPECT_EQ(pinned.graph->FindNode("b").value(), 1u);
  EXPECT_FALSE(pinned.graph->FindNode("x0").ok());
  EXPECT_FALSE(pinned.graph->FindNode("y3").ok());

  GraphView now = store.Acquire();
  EXPECT_EQ(now.graph->num_nodes(), 3u + 4 * 3);
  EXPECT_EQ(now.graph->NodeName(3), "x0");
  EXPECT_EQ(now.graph->NodeName(4), "n4");  // anonymous
  EXPECT_EQ(now.graph->FindNode("y3").value(), 14u);
  EXPECT_EQ(now.graph->NodeName(0), "a");
}

TEST(NodeTableSharingTest, FrozenCopySharesNamesButNotLaterNodes) {
  GraphDb master;
  master.AddNamedNode("a");
  GraphDb frozen = master.Freeze();
  EXPECT_EQ(frozen.FindNode("a").value(), 0u);
  master.AddNamedNode("b");
  master.AddNode();
  EXPECT_EQ(master.num_nodes(), 3u);
  EXPECT_EQ(master.FindNode("b").value(), 1u);
  EXPECT_EQ(frozen.num_nodes(), 1u);
  EXPECT_FALSE(frozen.FindNode("b").ok());
  // A frozen copy that is written to takes its own table too.
  EXPECT_EQ(frozen.AddNamedNode("c"), 1u);
  EXPECT_FALSE(master.FindNode("c").ok());
  EXPECT_EQ(master.NodeName(1), "b");
}

TEST(NodeTableSharingTest, OrdinaryCopyIsIndependentOfItsSource) {
  GraphDb source;
  NodeId a = source.AddNamedNode("a");
  source.AddEdge(a, "knows", source.AddNamedNode("b"));
  GraphDb copy = source;
  GraphDb assigned;
  assigned.AddNamedNode("z");
  assigned = source;
  source.AddNamedNode("only-source");
  copy.AddNamedNode("only-copy");
  copy.AddEdge(a, "likes", a);

  EXPECT_FALSE(source.FindNode("only-copy").ok());
  EXPECT_FALSE(copy.FindNode("only-source").ok());
  EXPECT_FALSE(assigned.FindNode("only-source").ok());
  EXPECT_FALSE(assigned.FindNode("z").ok());
  EXPECT_EQ(source.num_edges(), 1u);
  EXPECT_EQ(source.alphabet().num_labels(), 1u);
  EXPECT_EQ(copy.num_edges(), 2u);
  EXPECT_EQ(copy.NodeName(2), "only-copy");
  EXPECT_EQ(source.NodeName(2), "only-source");
  EXPECT_EQ(assigned.num_nodes(), 2u);

  // A copy of a frozen graph owns its table as well.
  GraphDb frozen = source.Freeze();
  GraphDb thawed = frozen;
  thawed.AddNamedNode("thawed");
  EXPECT_FALSE(frozen.FindNode("thawed").ok());
  EXPECT_FALSE(source.FindNode("thawed").ok());
}

TEST(NodeTableSharingTest, MovedFromGraphIsAUsableEmptyGraph) {
  auto parsed = GraphDb::FromText("a knows b\n");
  ASSERT_TRUE(parsed.ok());
  GraphDb source = std::move(parsed).value();
  GraphDb moved = std::move(source);
  EXPECT_EQ(moved.num_nodes(), 2u);
  EXPECT_EQ(moved.FindNode("b").value(), 1u);

  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the test.
  EXPECT_EQ(source.num_nodes(), 0u);
  EXPECT_EQ(source.num_edges(), 0u);
  EXPECT_EQ(source.alphabet().num_labels(), 0u);
  EXPECT_FALSE(source.FindNode("a").ok());
  NodeId x = source.AddNamedNode("x");
  source.AddEdge(x, "likes", x);
  EXPECT_EQ(source.NodeName(x), "x");
  EXPECT_EQ(source.Snapshot()->num_edges(), 1u);

  GraphDb target = std::move(source);  // move out again, then assign
  source = moved;
  EXPECT_EQ(source.FindNode("b").value(), 1u);
  moved = std::move(target);
  EXPECT_EQ(moved.FindNode("x").value(), 0u);
  EXPECT_EQ(target.num_nodes(), 0u);
  target.AddNode();
  EXPECT_EQ(target.NodeName(0), "n0");
  // NOLINTEND(bugprone-use-after-move)
}

}  // namespace
}  // namespace server
}  // namespace rq

#include "graph/snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_db.h"

namespace rq {
namespace {

std::vector<NodeId> ToVec(std::span<const NodeId> s) {
  return std::vector<NodeId>(s.begin(), s.end());
}

TEST(GraphSnapshotTest, ForwardAndInverseBuckets) {
  GraphDb db;
  db.EnsureNodes(4);
  db.AddEdge(0, "r", 1);
  db.AddEdge(0, "r", 2);
  db.AddEdge(2, "r", 1);
  db.AddEdge(1, "s", 3);
  GraphSnapshotPtr snap = db.Snapshot();

  const Symbol r = ForwardSymbolOf(0);
  const Symbol r_inv = InverseSymbolOf(0);
  const Symbol s = ForwardSymbolOf(1);
  EXPECT_EQ(snap->num_nodes(), 4u);
  EXPECT_EQ(snap->num_symbols(), 4u);
  EXPECT_EQ(snap->num_edges(), 4u);
  EXPECT_EQ(ToVec(snap->Successors(0, r)), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(ToVec(snap->Successors(1, r_inv)), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(ToVec(snap->Successors(1, s)), (std::vector<NodeId>{3}));
  EXPECT_EQ(ToVec(snap->Successors(3, InverseSymbolOf(1))),
            (std::vector<NodeId>{1}));
  EXPECT_TRUE(snap->Successors(3, r).empty());
  EXPECT_EQ(snap->OutDegree(0, r), 2u);
}

TEST(GraphSnapshotTest, DuplicateEdgesDeduplicate) {
  GraphDb db;
  db.EnsureNodes(2);
  db.AddEdge(0, "r", 1);
  db.AddEdge(0, "r", 1);
  db.AddEdge(0, "r", 1);
  GraphSnapshotPtr snap = db.Snapshot();
  EXPECT_EQ(ToVec(snap->Successors(0, ForwardSymbolOf(0))),
            (std::vector<NodeId>{1}));
  EXPECT_EQ(ToVec(snap->Successors(1, InverseSymbolOf(0))),
            (std::vector<NodeId>{0}));
}

TEST(GraphSnapshotTest, OutOfRangeNodeOrSymbolIsEmpty) {
  GraphDb db;
  db.EnsureNodes(2);
  db.AddEdge(0, "r", 1);
  GraphSnapshotPtr snap = db.Snapshot();
  EXPECT_TRUE(snap->Successors(99, ForwardSymbolOf(0)).empty());
  // A label interned after the snapshot (or any out-of-range symbol) has
  // no edges in the frozen arrays: empty, not UB.
  EXPECT_TRUE(snap->Successors(0, ForwardSymbolOf(7)).empty());
}

TEST(GraphSnapshotTest, SnapshotIsImmutableUnderLaterWrites) {
  GraphDb db;
  db.EnsureNodes(3);
  db.AddEdge(0, "r", 1);
  GraphSnapshotPtr before = db.Snapshot();
  std::span<const NodeId> succ = before->Successors(0, ForwardSymbolOf(0));

  db.AddEdge(0, "r", 2);
  db.AddEdge(1, "r", 2);
  GraphSnapshotPtr after = db.Snapshot();

  // The old snapshot (and spans into it) still reflect the old graph.
  EXPECT_EQ(ToVec(succ), (std::vector<NodeId>{1}));
  EXPECT_EQ(ToVec(before->Successors(0, ForwardSymbolOf(0))),
            (std::vector<NodeId>{1}));
  EXPECT_EQ(ToVec(after->Successors(0, ForwardSymbolOf(0))),
            (std::vector<NodeId>{1, 2}));
}

TEST(GraphSnapshotTest, SpanOutlivesOriginatingGraphDb) {
  GraphSnapshotPtr snap;
  {
    GraphDb db;
    db.EnsureNodes(2);
    db.AddEdge(0, "r", 1);
    snap = db.Snapshot();
  }  // db destroyed; the snapshot owns its arrays.
  EXPECT_EQ(ToVec(snap->Successors(0, ForwardSymbolOf(0))),
            (std::vector<NodeId>{1}));
}

TEST(GraphSnapshotTest, SymbolPairsMatchesGraphDbScan) {
  GraphDb db = RandomGraph(40, 200, {"a", "b", "c"}, /*seed=*/7);
  GraphSnapshotPtr snap = db.Snapshot();
  for (uint32_t label = 0; label < db.alphabet().num_labels(); ++label) {
    for (Symbol sym : {ForwardSymbolOf(label), InverseSymbolOf(label)}) {
      EXPECT_EQ(snap->SymbolPairs(sym), db.SymbolPairs(sym))
          << "symbol " << sym;
    }
  }
}

TEST(GraphSnapshotTest, SuccessorsMatchesGraphDbScanOnRandomGraph) {
  GraphDb db = RandomGraph(30, 150, {"a", "b"}, /*seed=*/11);
  GraphSnapshotPtr snap = db.Snapshot();
  for (NodeId n = 0; n < db.num_nodes(); ++n) {
    for (Symbol sym = 0; sym < db.alphabet().num_symbols(); ++sym) {
      EXPECT_EQ(ToVec(snap->Successors(n, sym)), db.Successors(n, sym))
          << "node " << n << " symbol " << sym;
    }
  }
}

TEST(GraphSnapshotTest, EmptyGraph) {
  GraphDb db;
  GraphSnapshotPtr snap = db.Snapshot();
  EXPECT_EQ(snap->num_nodes(), 0u);
  EXPECT_EQ(snap->num_edges(), 0u);
  EXPECT_TRUE(snap->Successors(0, 0).empty());
}

// A chain of extensions, each by a few edges that may bring new nodes and
// labels, parallel and duplicate edges and self-loops, equals the
// from-scratch build of the same graph at every step.
TEST(GraphSnapshotTest, ExtensionEqualsScratchBuild) {
  GraphDb db = RandomGraph(12, 30, {"a", "b"}, /*seed=*/3);
  GraphSnapshotPtr snap = db.Snapshot();
  Rng rng(5);
  for (int round = 0; round < 40; ++round) {
    if (rng.Chance(0.3)) db.EnsureNodes(db.num_nodes() + rng.Below(3));
    if (rng.Chance(0.1)) db.alphabet().InternLabel("l" + std::to_string(round));
    const size_t edges = rng.Below(6);
    for (size_t i = 0; i < edges; ++i) {
      const NodeId src = static_cast<NodeId>(rng.Below(db.num_nodes()));
      const NodeId dst =
          rng.Chance(0.2) ? src : static_cast<NodeId>(rng.Below(db.num_nodes()));
      const uint32_t label =
          static_cast<uint32_t>(rng.Below(db.alphabet().num_labels()));
      db.AddEdge(src, label, dst);
      if (rng.Chance(0.2)) db.AddEdge(src, label, dst);
    }
    snap = std::make_shared<const GraphSnapshot>(*snap, db);
    GraphSnapshotPtr scratch = db.Snapshot();
    ASSERT_EQ(snap->num_nodes(), scratch->num_nodes());
    ASSERT_EQ(snap->num_symbols(), scratch->num_symbols());
    ASSERT_EQ(snap->num_edges(), scratch->num_edges());
    EXPECT_EQ(snap->ApproxBytes(), scratch->ApproxBytes()) << "round " << round;
    for (Symbol sym = 0; sym < scratch->num_symbols(); ++sym) {
      for (NodeId n = 0; n < scratch->num_nodes(); ++n) {
        ASSERT_EQ(ToVec(snap->Successors(n, sym)),
                  ToVec(scratch->Successors(n, sym)))
            << "round " << round << " node " << n << " symbol " << sym;
      }
    }
  }
}

TEST(GraphDbTest, FindNodeHeterogeneousLookup) {
  GraphDb db;
  NodeId alice = db.AddNamedNode("alice");
  // string_view lookup without constructing a std::string at the call
  // site; also via const char* and std::string.
  std::string_view sv = "alice";
  EXPECT_EQ(db.FindNode(sv).value(), alice);
  EXPECT_EQ(db.FindNode("alice").value(), alice);
  EXPECT_EQ(db.FindNode(std::string("alice")).value(), alice);
  EXPECT_FALSE(db.FindNode("bob").ok());
  // AddNamedNode finds the existing entry through the same transparent map.
  EXPECT_EQ(db.AddNamedNode(sv), alice);
}

}  // namespace
}  // namespace rq

// Differential property test for incremental closure maintenance (ctest
// label `property`): on seeded random interleaved edge-insert streams, the
// incrementally maintained transitive closure — both the raw
// IncrementalClosure and the per-label generalization the live-mutation
// serving path uses (relational/incremental.h, server/graph_store.h) —
// must agree exactly with a from-scratch semi-naive fixpoint
// (BinaryTransitiveClosure) after EVERY insert. A second sweep drives the
// budget-capped path: random tiny delta budgets force demotions
// mid-stream, and a re-seed from the from-scratch closure must restore
// exact agreement — the lifecycle the server's update batches exercise.
// A third drives a GraphStore itself through random batches and checks
// every published closure image, merged batch by batch from the pairs
// each batch added, against the from-scratch closure.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "common/rng.h"
#include "graph/graph_db.h"
#include "relational/incremental.h"
#include "relational/relation.h"
#include "rq/eval.h"
#include "server/graph_store.h"

namespace rq {
namespace {

constexpr int kRounds = 12;
constexpr uint32_t kLabels = 4;

TEST(IncrementalDifferentialTest, ClosureMatchesSemiNaiveAfterEveryInsert) {
  Rng rng(0xC105E);
  for (int round = 0; round < kRounds; ++round) {
    size_t nodes = 6 + rng.Below(12);
    size_t edges = 25 + rng.Below(60);
    IncrementalClosure inc;
    Relation base(2);
    for (size_t i = 0; i < edges; ++i) {
      Value x = rng.Below(nodes);
      Value y = rng.Below(nodes);
      base.Insert({x, y});
      auto delta = inc.AddEdge(x, y);
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      ASSERT_FALSE(delta->over_budget);
      ASSERT_EQ(inc.closure().SortedTuples(),
                BinaryTransitiveClosure(base).SortedTuples())
          << "round " << round << ", insert " << i << " (" << x << " -> "
          << y << ")";
    }
  }
}

TEST(IncrementalDifferentialTest, PerLabelClosuresMatchUnderInterleaving) {
  Rng rng(0xFACADE);
  for (int round = 0; round < kRounds; ++round) {
    size_t nodes = 6 + rng.Below(10);
    size_t edges = 30 + rng.Below(50);
    PerLabelClosure per_label;
    std::vector<Relation> bases;
    for (uint32_t l = 0; l < kLabels; ++l) {
      bases.emplace_back(2);
      per_label.Seed(l, Relation(2), Relation(2));
    }
    for (size_t i = 0; i < edges; ++i) {
      uint32_t label = static_cast<uint32_t>(rng.Below(kLabels));
      Value x = rng.Below(nodes);
      Value y = rng.Below(nodes);
      bases[label].Insert({x, y});
      auto added = per_label.AddEdge(label, x, y);
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      for (uint32_t l = 0; l < kLabels; ++l) {
        const Relation* closure = per_label.closure(l);
        ASSERT_NE(closure, nullptr) << "label " << l << " lost liveness";
        ASSERT_EQ(closure->SortedTuples(),
                  BinaryTransitiveClosure(bases[l]).SortedTuples())
            << "label " << l << ", round " << round << ", insert " << i;
      }
    }
  }
}

TEST(IncrementalDifferentialTest, DemotionAndReseedCycleStaysExact) {
  Rng rng(0x5EED);
  for (int round = 0; round < kRounds; ++round) {
    size_t nodes = 8 + rng.Below(8);
    size_t edges = 40 + rng.Below(40);
    // A tiny random budget makes demotions likely but not certain.
    PerLabelClosure per_label(/*max_delta_product=*/1 + rng.Below(6));
    Relation base(2);
    per_label.Seed(0, Relation(2), Relation(2));
    size_t demotions = 0;
    for (size_t i = 0; i < edges; ++i) {
      Value x = rng.Below(nodes);
      Value y = rng.Below(nodes);
      base.Insert({x, y});
      auto added = per_label.AddEdge(0, x, y);
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      if (!per_label.live(0)) {
        // Blown budget: the serving path falls back to a from-scratch
        // evaluation and re-seeds from it (GraphStore::SeedClosure).
        ++demotions;
        Relation reseed_base = base;
        per_label.Seed(0, std::move(reseed_base),
                       BinaryTransitiveClosure(base));
      }
      const Relation* closure = per_label.closure(0);
      ASSERT_NE(closure, nullptr);
      ASSERT_EQ(closure->SortedTuples(),
                BinaryTransitiveClosure(base).SortedTuples())
          << "round " << round << ", insert " << i << " after " << demotions
          << " demotions";
    }
  }
}

// The edges of `label` in `graph`, as a binary relation.
Relation LabelEdges(const GraphDb& graph, uint32_t label) {
  Relation edges(2);
  for (const Edge& e : graph.edges()) {
    if (e.label == label) edges.Insert({e.src, e.dst});
  }
  return edges;
}

void SeedFromView(server::GraphStore* store, const server::GraphView& view,
                  uint32_t label) {
  Relation base = LabelEdges(*view.graph, label);
  Relation closure = BinaryTransitiveClosure(base);
  store->SeedClosure(view, label, std::move(base), std::move(closure));
}

std::vector<Tuple> ImageRows(const SortedRows& image) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < image.size(); ++i) {
    rows.emplace_back(image.row(i), image.row(i) + image.arity);
  }
  return rows;
}

TEST(IncrementalDifferentialTest, StoreImagesMatchSemiNaiveAfterEveryBatch) {
  Rng rng(0x1A6E5);
  const char* kLabelNames[] = {"a", "b"};
  size_t reseeds = 0;
  size_t stale_seeds = 0;
  size_t checked = 0;
  for (int round = 0; round < kRounds; ++round) {
    server::GraphStoreOptions options;
    // Odd rounds run under a tiny delta budget: labels demote mid-stream
    // and the test re-seeds them, as a later `a+` eval would.
    if (round % 2 == 1) options.incr_delta_budget = 1 + rng.Below(8);
    server::GraphStore store(options);
    size_t nodes = 6 + rng.Below(10);
    auto node = [&] { return "n" + std::to_string(rng.Below(nodes)); };
    auto graph = GraphDb::FromText("n0 a n1\nn1 b n2\n");
    ASSERT_TRUE(graph.ok());
    store.Load(*graph);
    std::vector<uint32_t> labels;
    for (const char* name : kLabelNames) {
      server::GraphView view = store.Acquire();
      labels.push_back(view.graph->alphabet().FindLabel(name).value());
      SeedFromView(&store, view, labels.back());
    }
    size_t batches = 6 + rng.Below(10);
    for (size_t batch = 0; batch < batches; ++batch) {
      server::GraphView before = store.Acquire();
      std::vector<server::UpdateOp> ops(1 + rng.Below(8));
      for (server::UpdateOp& op : ops) {
        op.kind = server::UpdateOp::Kind::kAddEdge;
        op.src = node();
        op.label = kLabelNames[rng.Below(2)];
        op.dst = node();
      }
      auto applied = store.Apply(ops);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      if (rng.Below(3) == 0) {
        // A seed computed against the previous epoch lands late, carrying
        // that epoch's closure: it must be dropped.
        ++stale_seeds;
        SeedFromView(&store, before, labels[rng.Below(labels.size())]);
      }
      // A demoted label has no image; re-seed it half of the time, so some
      // batches also land on labels that are not live.
      server::GraphView view = store.Acquire();
      for (uint32_t label : labels) {
        if (view.Closure(label) == nullptr && rng.Below(2) == 0) {
          ++reseeds;
          SeedFromView(&store, view, label);
        }
      }
      view = store.Acquire();
      for (uint32_t label : labels) {
        const SortedRows* image = view.Closure(label);
        if (image == nullptr) continue;
        ++checked;
        ASSERT_EQ(image->arity, 2u);
        ASSERT_EQ(image->values.size(), 2 * image->size());
        std::vector<Tuple> rows = ImageRows(*image);
        ASSERT_EQ(std::adjacent_find(rows.begin(), rows.end(),
                                     [](const Tuple& x, const Tuple& y) {
                                       return !(x < y);
                                     }),
                  rows.end())
            << "label " << label << " image has duplicate or unsorted rows";
        ASSERT_EQ(rows,
                  BinaryTransitiveClosure(LabelEdges(*view.graph, label))
                      .SortedTuples())
            << "label " << label << ", round " << round << ", batch "
            << batch;
      }
    }
  }
  EXPECT_GT(reseeds, 0u);
  EXPECT_GT(stale_seeds, 0u);
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace rq

#include "relational/incremental.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "obs/counters.h"
#include "rq/eval.h"

namespace rq {
namespace {

// Unwraps AddEdge in tests that exercise the happy path (no deadline, no
// budget): the call must succeed and stay within budget.
size_t MustAdd(IncrementalClosure& inc, Value x, Value y) {
  auto delta = inc.AddEdge(x, y);
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_FALSE(delta->over_budget);
  return delta->pairs_added;
}

TEST(IncrementalClosureTest, ChainGrowsQuadratically) {
  IncrementalClosure inc;
  EXPECT_EQ(MustAdd(inc, 0, 1), 1u);
  EXPECT_EQ(MustAdd(inc, 1, 2), 2u);  // (1,2), (0,2)
  EXPECT_EQ(MustAdd(inc, 2, 3), 3u);  // (2,3), (1,3), (0,3)
  EXPECT_EQ(inc.closure().size(), 6u);
  EXPECT_TRUE(inc.Reaches(0, 3));
  EXPECT_FALSE(inc.Reaches(3, 0));
}

TEST(IncrementalClosureTest, CycleClosesCompletely) {
  IncrementalClosure inc;
  MustAdd(inc, 0, 1);
  MustAdd(inc, 1, 2);
  MustAdd(inc, 2, 0);
  EXPECT_EQ(inc.closure().size(), 9u);
  EXPECT_TRUE(inc.Reaches(0, 0));
  EXPECT_TRUE(inc.Reaches(2, 1));
}

TEST(IncrementalClosureTest, RedundantEdgeAddsNothing) {
  IncrementalClosure inc;
  MustAdd(inc, 0, 1);
  MustAdd(inc, 1, 2);
  EXPECT_EQ(MustAdd(inc, 0, 2), 0u);  // already reachable
  EXPECT_EQ(MustAdd(inc, 0, 1), 0u);  // duplicate
  EXPECT_EQ(inc.closure().size(), 3u);
}

TEST(IncrementalClosureTest, SelfLoop) {
  IncrementalClosure inc;
  EXPECT_EQ(MustAdd(inc, 5, 5), 1u);
  EXPECT_TRUE(inc.Reaches(5, 5));
  MustAdd(inc, 5, 6);
  EXPECT_TRUE(inc.Reaches(5, 6));
  EXPECT_FALSE(inc.Reaches(6, 5));
}

TEST(IncrementalClosureTest, MatchesRecomputationOnRandomStreams) {
  Rng rng(13579);
  for (int round = 0; round < 15; ++round) {
    IncrementalClosure inc;
    Relation base(2);
    size_t edges = 20 + rng.Below(30);
    for (size_t i = 0; i < edges; ++i) {
      Value x = rng.Below(10);
      Value y = rng.Below(10);
      MustAdd(inc, x, y);
      base.Insert({x, y});
      // Spot-check after every few insertions.
      if (i % 5 == 4) {
        Relation recomputed = BinaryTransitiveClosure(base);
        ASSERT_EQ(inc.closure().SortedTuples(),
                  recomputed.SortedTuples())
            << "after " << (i + 1) << " edges, seed round " << round;
      }
    }
    Relation recomputed = BinaryTransitiveClosure(base);
    EXPECT_EQ(inc.closure().SortedTuples(), recomputed.SortedTuples());
  }
}

TEST(IncrementalClosureTest, SeedThenMaintainMatchesFromScratch) {
  Relation base(2);
  base.Insert({0, 1});
  base.Insert({1, 2});
  IncrementalClosure inc;
  inc.Seed(base, BinaryTransitiveClosure(base));
  EXPECT_EQ(inc.closure().size(), 3u);
  EXPECT_EQ(MustAdd(inc, 2, 3), 3u);  // (2,3), (1,3), (0,3)
  Relation full = base;
  full.Insert({2, 3});
  EXPECT_EQ(inc.closure().SortedTuples(),
            BinaryTransitiveClosure(full).SortedTuples());
}

TEST(IncrementalClosureTest, MoveTransfersStateAndCharge) {
  IncrementalClosure inc;
  MustAdd(inc, 0, 1);
  MustAdd(inc, 1, 2);
  size_t bytes = inc.ApproxBytes();
  EXPECT_GT(bytes, 0u);
  IncrementalClosure moved = std::move(inc);
  EXPECT_EQ(moved.ApproxBytes(), bytes);
  EXPECT_TRUE(moved.Reaches(0, 2));
  EXPECT_EQ(inc.ApproxBytes(), 0u);  // NOLINT(bugprone-use-after-move)
}

// Regression for the serving-path bug (ISSUE 10 satellite 1): AddEdge used
// to run the sources × targets product with no deadline polling, so the
// edge completing a large bipartite hub stalled the caller for the whole
// O(V^2) product. With an expired deadline installed, the call must unwind
// with kDeadlineExceeded instead.
TEST(IncrementalClosureTest, ExpiredDeadlineStopsLargeDeltaProduct) {
  IncrementalClosure inc;
  // Star: many predecessors of 0, many successors of 1. The (0, 1) insert
  // then has a delta product of ~kFan^2 pairs.
  constexpr Value kFan = 200;
  for (Value i = 0; i < kFan; ++i) {
    MustAdd(inc, 2 + i, 0);
    MustAdd(inc, 1, 2 + kFan + i);
  }
  ExecContext ctx(Deadline::AfterNanos(-1));
  ScopedExecContext installed(&ctx);
  auto delta = inc.AddEdge(0, 1);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(IncrementalClosureTest, MemoryBudgetStopsLargeDeltaProduct) {
  IncrementalClosure inc;
  constexpr Value kFan = 200;
  for (Value i = 0; i < kFan; ++i) {
    MustAdd(inc, 2 + i, 0);
    MustAdd(inc, 1, 2 + kFan + i);
  }
  ExecContext ctx(Deadline::Infinite(), /*cancel=*/nullptr,
                  /*budget_bytes=*/1024);
  ScopedExecContext installed(&ctx);
  auto delta = inc.AddEdge(0, 1);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kResourceExhausted);
}

TEST(IncrementalClosureTest, OverBudgetLeavesClosureUntouched) {
  IncrementalClosure inc;
  MustAdd(inc, 0, 1);
  MustAdd(inc, 1, 2);
  MustAdd(inc, 3, 4);
  size_t before = inc.closure().size();
  // (2, 3) bridges {0,1,2} × {3,4}: delta product 3 × 2 = 6 > 1.
  auto delta = inc.AddEdge(2, 3, /*max_delta_product=*/1);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_TRUE(delta->over_budget);
  EXPECT_EQ(delta->pairs_added, 0u);
  // Base recorded the edge; the closure was not extended.
  EXPECT_TRUE(inc.base().Contains({2, 3}));
  EXPECT_EQ(inc.closure().size(), before);
}

TEST(IncrementalClosureTest, BudgetLargeEnoughStillCompletes) {
  IncrementalClosure inc;
  MustAdd(inc, 0, 1);
  auto delta = inc.AddEdge(1, 2, /*max_delta_product=*/64);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(delta->over_budget);
  EXPECT_EQ(delta->pairs_added, 2u);
}

TEST(PerLabelClosureTest, UntrackedLabelIsIgnored) {
  PerLabelClosure per_label;
  auto added = per_label.AddEdge(0, 1, 2);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 0u);
  EXPECT_FALSE(per_label.live(0));
  EXPECT_EQ(per_label.closure(0), nullptr);
  EXPECT_EQ(per_label.num_live(), 0u);
}

TEST(PerLabelClosureTest, SeededLabelMaintainsClosure) {
  PerLabelClosure per_label;
  Relation base(2);
  base.Insert({0, 1});
  per_label.Seed(7, base, BinaryTransitiveClosure(base));
  ASSERT_TRUE(per_label.live(7));

  auto added = per_label.AddEdge(7, 1, 2);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 2u);  // (1,2), (0,2)
  const Relation* closure = per_label.closure(7);
  ASSERT_NE(closure, nullptr);
  EXPECT_TRUE(closure->Contains({0, 2}));
  // Other labels remain untracked.
  EXPECT_FALSE(per_label.live(8));
}

TEST(PerLabelClosureTest, OverBudgetDemotesLabel) {
  obs::CounterDelta counters;
  PerLabelClosure per_label(/*max_delta_product=*/1);
  Relation base(2);
  base.Insert({0, 1});
  base.Insert({1, 2});
  base.Insert({3, 4});
  per_label.Seed(3, base, BinaryTransitiveClosure(base));
  ASSERT_TRUE(per_label.live(3));

  // Bridging edge blows the product bound: label demoted, no error.
  auto added = per_label.AddEdge(3, 2, 3);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 0u);
  EXPECT_FALSE(per_label.live(3));
  EXPECT_EQ(per_label.closure(3), nullptr);
  EXPECT_GE(counters.Delta("incr.fallbacks"), 1u);

  // Demoted labels swallow further inserts until re-seeded.
  auto again = per_label.AddEdge(3, 5, 6);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);

  // Re-seeding promotes the label back to live.
  Relation full = base;
  full.Insert({2, 3});
  full.Insert({5, 6});
  per_label.Seed(3, full, BinaryTransitiveClosure(full));
  EXPECT_TRUE(per_label.live(3));
}

TEST(PerLabelClosureTest, ResourceTripDemotesAndPropagates) {
  PerLabelClosure per_label;
  Relation base(2);
  constexpr Value kFan = 200;
  for (Value i = 0; i < kFan; ++i) {
    base.Insert({2 + i, 0});
    base.Insert({1, 2 + kFan + i});
  }
  per_label.Seed(0, base, BinaryTransitiveClosure(base));
  ASSERT_TRUE(per_label.live(0));

  ExecContext ctx(Deadline::AfterNanos(-1));
  ScopedExecContext installed(&ctx);
  auto added = per_label.AddEdge(0, 0, 1);
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(per_label.live(0));
}

// Property differential test (ISSUE 10 satellite 4): random interleaved
// per-label edge inserts; after every insert the maintained closures must
// agree exactly with a from-scratch semi-naive TC over the label's base
// edges — both for the raw IncrementalClosure and for the per-label
// generalization the serving path uses.
TEST(PerLabelClosureTest, DifferentialAgainstSemiNaiveRecomputation) {
  Rng rng(246813579);
  constexpr uint32_t kLabels = 3;
  for (int round = 0; round < 8; ++round) {
    PerLabelClosure per_label;
    std::vector<Relation> bases;
    for (uint32_t l = 0; l < kLabels; ++l) {
      bases.emplace_back(2);
      per_label.Seed(l, Relation(2), Relation(2));
    }
    size_t edges = 30 + rng.Below(40);
    for (size_t i = 0; i < edges; ++i) {
      uint32_t label = static_cast<uint32_t>(rng.Below(kLabels));
      Value x = rng.Below(12);
      Value y = rng.Below(12);
      bases[label].Insert({x, y});
      auto added = per_label.AddEdge(label, x, y);
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      for (uint32_t l = 0; l < kLabels; ++l) {
        ASSERT_TRUE(per_label.live(l));
        const Relation* closure = per_label.closure(l);
        ASSERT_NE(closure, nullptr);
        ASSERT_EQ(closure->SortedTuples(),
                  BinaryTransitiveClosure(bases[l]).SortedTuples())
            << "label " << l << " after " << (i + 1) << " edges, round "
            << round;
      }
    }
  }
}

TEST(PerLabelClosureTest, PairsAddedCounterTracksLiveMaintenance) {
  obs::CounterDelta counters;
  PerLabelClosure per_label;
  per_label.Seed(0, Relation(2), Relation(2));
  auto a = per_label.AddEdge(0, 0, 1);
  auto b = per_label.AddEdge(0, 1, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a + *b, 3u);
  EXPECT_EQ(counters.Delta("incr.pairs_added"), 3u);
}

}  // namespace
}  // namespace rq

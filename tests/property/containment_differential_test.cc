// Differential property test over the containment engines (ctest label
// `property`): on seeded random NFA pairs, the on-the-fly, antichain, and
// explicit-complement checkers must agree on every verdict, every
// counterexample must separate the languages, and the cached checker on
// parallel workers must reproduce the uncached serial verdicts exactly.
#include <gtest/gtest.h>

#include <vector>

#include "automata/containment.h"
#include "automata/nfa.h"
#include "cache/automata_cache.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace rq {
namespace {

constexpr uint32_t kNumSymbols = 2;
constexpr int kNumPairs = 200;

Nfa RandomNfa(Rng& rng) {
  uint32_t num_states = 2 + static_cast<uint32_t>(rng.Below(4));
  Nfa nfa(kNumSymbols);
  for (uint32_t s = 0; s < num_states; ++s) nfa.AddState();
  nfa.AddInitial(static_cast<uint32_t>(rng.Below(num_states)));
  // ~1.5 transitions per state keeps both verdicts common: denser automata
  // are almost always universal, sparser ones almost always empty.
  uint32_t num_transitions = num_states + static_cast<uint32_t>(
                                              rng.Below(num_states + 1));
  for (uint32_t t = 0; t < num_transitions; ++t) {
    nfa.AddTransition(static_cast<uint32_t>(rng.Below(num_states)),
                      static_cast<Symbol>(rng.Below(kNumSymbols)),
                      static_cast<uint32_t>(rng.Below(num_states)));
  }
  if (rng.Below(4) == 0) {
    nfa.AddEpsilon(static_cast<uint32_t>(rng.Below(num_states)),
                   static_cast<uint32_t>(rng.Below(num_states)));
  }
  for (uint32_t s = 0; s < num_states; ++s) {
    if (rng.Below(3) == 0) nfa.SetAccepting(s);
  }
  return nfa;
}

struct Fixture {
  std::vector<Nfa> as;
  std::vector<Nfa> bs;
  std::vector<LanguageContainmentResult> baseline;
};

// Built once: the uncached, serial, on-the-fly verdicts are ground truth
// for every other engine configuration below.
const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    cache::AutomataCache::Global().SetEnabled(false);
    Rng rng(20260806);
    for (int i = 0; i < kNumPairs; ++i) {
      f->as.push_back(RandomNfa(rng));
      f->bs.push_back(RandomNfa(rng));
      f->baseline.push_back(
          CheckLanguageContainment(f->as.back(), f->bs.back()));
    }
    return f;
  }();
  return *fixture;
}

TEST(ContainmentDifferentialTest, EnginesAgreeOnRandomPairs) {
  const Fixture& f = SharedFixture();
  int contained = 0;
  for (int i = 0; i < kNumPairs; ++i) {
    const LanguageContainmentResult& otf = f.baseline[i];
    LanguageContainmentResult anti =
        CheckLanguageContainmentAntichain(f.as[i], f.bs[i]);
    LanguageContainmentResult expl =
        CheckLanguageContainmentExplicit(f.as[i], f.bs[i]);
    EXPECT_EQ(otf.contained, anti.contained) << "pair " << i;
    EXPECT_EQ(otf.contained, expl.contained) << "pair " << i;
    if (otf.contained) ++contained;
  }
  // The distribution must exercise both verdicts, or the test is vacuous.
  EXPECT_GT(contained, 10);
  EXPECT_LT(contained, kNumPairs - 10);
}

TEST(ContainmentDifferentialTest, CounterexamplesSeparateTheLanguages) {
  const Fixture& f = SharedFixture();
  int refuted = 0;
  for (int i = 0; i < kNumPairs; ++i) {
    const LanguageContainmentResult& otf = f.baseline[i];
    if (otf.contained) continue;
    ++refuted;
    EXPECT_TRUE(f.as[i].Accepts(otf.counterexample)) << "pair " << i;
    EXPECT_FALSE(f.bs[i].Accepts(otf.counterexample)) << "pair " << i;
    LanguageContainmentResult anti =
        CheckLanguageContainmentAntichain(f.as[i], f.bs[i]);
    EXPECT_TRUE(f.as[i].Accepts(anti.counterexample)) << "pair " << i;
    EXPECT_FALSE(f.bs[i].Accepts(anti.counterexample)) << "pair " << i;
  }
  EXPECT_GT(refuted, 10);
}

// The cached checker on four ParallelFor workers against the uncached
// serial baseline.
TEST(ContainmentDifferentialTest, CachedAndBatchedPathsMatchBaseline) {
  const Fixture& f = SharedFixture();
  cache::AutomataCache& ac = cache::AutomataCache::Global();
  ac.Clear();
  ac.SetEnabled(true);
  // Two rounds: the second one answers from the verdict cache.
  for (int round = 0; round < 2; ++round) {
    std::vector<LanguageContainmentResult> batched(kNumPairs);
    ParallelFor(kNumPairs, 4, [&](size_t i) {
      batched[i] = CheckLanguageContainment(f.as[i], f.bs[i]);
    });
    for (int i = 0; i < kNumPairs; ++i) {
      EXPECT_EQ(batched[i].contained, f.baseline[i].contained)
          << "round " << round << " pair " << i;
      if (!batched[i].contained) {
        EXPECT_TRUE(f.as[i].Accepts(batched[i].counterexample));
        EXPECT_FALSE(f.bs[i].Accepts(batched[i].counterexample));
      }
    }
  }
  ac.SetEnabled(false);
  ac.Clear();
}

}  // namespace
}  // namespace rq

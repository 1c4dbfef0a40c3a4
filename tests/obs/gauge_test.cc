#include "obs/gauge.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/counters.h"

namespace rq {
namespace obs {
namespace {

TEST(GaugeTest, SetTracksLevelAndPeak) {
  Gauge* g = GetGauge("test.gauge_set");
  g->Reset();
  g->Set(10);
  g->Set(50);
  g->Set(20);
  EXPECT_EQ(g->value(), 20);
  EXPECT_EQ(g->peak(), 50);
}

TEST(GaugeTest, AddSubTracksHighWaterMark) {
  Gauge* g = GetGauge("test.gauge_addsub");
  g->Reset();
  g->Add(3);
  g->Add(4);   // level 7 — the high-water mark
  g->Sub(5);
  g->Add(1);   // level 3
  EXPECT_EQ(g->value(), 3);
  EXPECT_EQ(g->peak(), 7);
}

TEST(GaugeTest, PeakIgnoresNegativeLevels) {
  Gauge* g = GetGauge("test.gauge_negative");
  g->Reset();
  g->Sub(5);
  EXPECT_EQ(g->value(), -5);
  EXPECT_EQ(g->peak(), 0);
  g->Add(7);
  EXPECT_EQ(g->value(), 2);
  EXPECT_EQ(g->peak(), 2);
}

TEST(GaugeTest, ResetZeroesLevelAndPeak) {
  Gauge* g = GetGauge("test.gauge_reset");
  g->Set(99);
  g->Reset();
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(g->peak(), 0);
}

TEST(GaugeTest, RegistryInternsAndSnapshots) {
  Gauge* g = GetGauge("test.gauge_registry");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g, GetGauge("test.gauge_registry"));
  EXPECT_EQ(g->name(), "test.gauge_registry");
  g->Reset();
  g->Set(8);
  g->Set(2);

  bool found = false;
  std::vector<GaugeSample> snapshot = Registry::Global().Snapshot().gauges;
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].name, snapshot[i].name);  // name-sorted
  }
  for (const GaugeSample& s : snapshot) {
    if (s.name != "test.gauge_registry") continue;
    found = true;
    EXPECT_EQ(s.value, 2);
    EXPECT_EQ(s.peak, 8);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace obs
}  // namespace rq

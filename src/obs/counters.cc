#include "obs/counters.h"

namespace rq {
namespace obs {

Registry& Registry::Global() {
  static Registry* instance = new Registry();  // never destroyed
  return *instance;
}

template <typename Metric>
Metric* Registry::Intern(Metrics<Metric>& metrics, std::string_view name) {
  auto it = metrics.find(name);
  if (it == metrics.end()) {
    auto metric = std::unique_ptr<Metric>(new Metric(std::string(name)));
    it = metrics.emplace(std::string(name), std::move(metric)).first;
  }
  return it->second.get();
}

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Intern(counters_, name);
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Intern(gauges_, name);
}

Histogram* Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Intern(histograms_, name);
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back({name, counter->value()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    int64_t value = gauge->value();
    out.gauges.push_back({name, value, std::max(value, gauge->peak())});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample& sample = out.histograms.emplace_back();
    sample.name = name;
    sample.buckets = histogram->SnapshotBuckets();
    for (uint64_t bucket : sample.buckets) sample.count += bucket;
    sample.sum = histogram->sum();
    sample.max = histogram->max();
  }
  return out;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

Counter* GetCounter(std::string_view name) {
  return Registry::Global().GetCounter(name);
}

Gauge* GetGauge(std::string_view name) {
  return Registry::Global().GetGauge(name);
}

Histogram* GetHistogram(std::string_view name) {
  return Registry::Global().GetHistogram(name);
}

std::vector<CounterSample> CounterGrowth(
    const std::vector<CounterSample>& before,
    const std::vector<CounterSample>& after) {
  std::vector<CounterSample> out;
  for (const CounterSample& sample : after) {
    const CounterSample* base = FindSample(before, sample.name);
    uint64_t was = base != nullptr ? base->value : 0;
    if (sample.value > was) out.push_back({sample.name, sample.value - was});
  }
  return out;
}

CounterDelta::CounterDelta()
    : baseline_(Registry::Global().Snapshot().counters) {}

uint64_t CounterDelta::Delta(std::string_view name) const {
  uint64_t now = GetCounter(name)->value();
  const CounterSample* base = FindSample(baseline_, name);
  return now - (base != nullptr ? base->value : 0);
}

std::vector<CounterSample> CounterDelta::Deltas() const {
  return CounterGrowth(baseline_, Registry::Global().Snapshot().counters);
}

}  // namespace obs
}  // namespace rq

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace rqbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

std::vector<double> GroupMedians(
    const std::vector<std::vector<double>>& groups) {
  std::vector<double> out;
  for (const std::vector<double>& g : groups) {
    if (!g.empty()) out.push_back(Median(g));
  }
  return out;
}

Exposition Exposition::Parse(std::string_view text) {
  Exposition out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    std::string key(line.substr(0, space));
    double value = std::strtod(std::string(line.substr(space + 1)).c_str(),
                               nullptr);
    size_t brace = key.find('{');
    std::string name = key.substr(0, brace);
    constexpr std::string_view kBucket = "_dist_bucket";
    if (name.size() > kBucket.size() &&
        name.compare(name.size() - kBucket.size(), kBucket.size(), kBucket) ==
            0) {
      std::string base = name.substr(0, name.size() - kBucket.size());
      size_t q1 = key.find('"');
      size_t q2 = key.rfind('"');
      if (q1 == std::string::npos || q2 <= q1) continue;
      std::string le = key.substr(q1 + 1, q2 - q1 - 1);
      double bound = le == "+Inf" ? std::numeric_limits<double>::infinity()
                                  : std::strtod(le.c_str(), nullptr);
      out.buckets_[base].push_back({bound, value});
      continue;
    }
    out.values_[name] = value;
  }
  for (auto& [name, buckets] : out.buckets_) {
    std::sort(buckets.begin(), buckets.end());
  }
  return out;
}

std::optional<double> Exposition::Value(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> Exposition::HistogramQuantile(const std::string& name,
                                                    double q) const {
  auto it = buckets_.find(name);
  if (it == buckets_.end() || it->second.empty()) return std::nullopt;
  const auto& buckets = it->second;
  double total = buckets.back().second;
  if (total <= 0) return std::nullopt;
  double target = q * total;
  double prev_bound = 0;
  double prev_count = 0;
  for (const auto& [bound, cumulative] : buckets) {
    if (cumulative >= target) {
      if (std::isinf(bound)) return prev_bound;
      // Empty buckets are not exported, and no bucket is wider than 25%
      // (obs/histogram.h), so the bucket starts at bound / 1.25 at most.
      double lower = std::max(prev_bound, bound / 1.25);
      double in_bucket = cumulative - prev_count;
      double frac = in_bucket > 0 ? (target - prev_count) / in_bucket : 1;
      return lower + (bound - lower) * frac;
    }
    prev_bound = bound;
    prev_count = cumulative;
  }
  return prev_bound;
}

std::optional<double> Exposition::HistogramMean(const std::string& name) const {
  std::optional<double> sum = Value(name + "_dist_sum");
  std::optional<double> count = Value(name + "_dist_count");
  if (!sum.has_value() || !count.has_value() || *count <= 0) {
    return std::nullopt;
  }
  return *sum / *count;
}

}  // namespace rqbench

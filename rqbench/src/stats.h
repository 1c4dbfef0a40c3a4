// Small numeric helpers shared by the load generator and the traced
// replay: percentiles over samples and lookups into a Prometheus text
// exposition.
#ifndef RQBENCH_STATS_H_
#define RQBENCH_STATS_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rqbench {

// The q-quantile (0 <= q <= 1) of `samples` by linear interpolation
// between closest ranks: rank (n - 1) * q of the sorted samples. 0 for an
// empty input.
double Percentile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

// The median of every non-empty group, in group order: e.g. one latency
// per request from its sends in several cycles.
std::vector<double> GroupMedians(const std::vector<std::vector<double>>& groups);

// One scraped /metrics exposition: plain samples keyed by metric name
// (labels stripped except `le`, kept on histogram buckets).
class Exposition {
 public:
  static Exposition Parse(std::string_view text);

  // The sample value of `name` (e.g. "rq_cache_hits"), or nullopt.
  std::optional<double> Value(const std::string& name) const;

  // The q-quantile of histogram `name` (without the _dist suffix),
  // interpolated linearly inside the bucket that holds it; nullopt when
  // the histogram is absent or empty.
  std::optional<double> HistogramQuantile(const std::string& name,
                                          double q) const;
  // sum / count of histogram `name`; nullopt when absent or empty.
  std::optional<double> HistogramMean(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
  // histogram name -> (upper bound, cumulative count), ascending.
  std::map<std::string, std::vector<std::pair<double, double>>> buckets_;
};

}  // namespace rqbench

#endif  // RQBENCH_STATS_H_

// Prometheus text-exposition rendering of the metric registry
// (exposition format version 0.0.4; the scrape-format sibling of the
// rq-obs/2 JSON export in obs/export.h — see docs/OBSERVABILITY.md).
//
// Every registered counter, gauge, and histogram is rendered from one
// registry snapshot (obs/counters.h), with the metric name sanitized to
// [a-zA-Z0-9_:] and namespaced `rq_`
// (`containment.states_explored` -> `rq_containment_states_explored`):
//
//  * counters  -> `# TYPE rq_<name> counter` + one sample;
//  * gauges    -> two gauge families, `rq_<name>` (current level) and
//    `rq_<name>_peak` (high-water mark);
//  * histograms -> a `rq_<name>_dist` histogram family with cumulative
//    `_bucket{le="..."}` / `_sum` / `_count` series. The `_dist` suffix
//    keeps the family distinct from the same-named counter (a histogram
//    shares its counter's dotted name by convention; Prometheus forbids
//    one name with two types). Bucket index i of the 252-bucket
//    log-bucketed layout (obs/histogram.h) holds integer values in
//    [BucketLowerBound(i), BucketLowerBound(i+1)), so its inclusive upper
//    bound — the Prometheus `le` — is BucketLowerBound(i+1) - 1; the
//    rendering emits one cumulative line per OCCUPIED bucket plus the
//    mandatory `le="+Inf"` (equal to `_count`), keeping the output sparse
//    while preserving exact cumulative semantics for integer samples.
//    The snapshot's count is the sum of its buckets, so a render racing
//    Record() never puts a finite bucket above `+Inf`, and its gauge
//    peaks are never below their levels.
//
// Every family carries a `# HELP` line holding the original dotted
// registry name (escaped per the format: `\\` and `\n`), so a scrape can
// be mapped back to the docs/OBSERVABILITY.md vocabulary without
// un-sanitizing. When the CLI installed a flight-recorder query label
// (SetFlightQueryLabel), the exposition also carries
// `rq_query_info{query="<label>"} 1` with the label value escaped
// (`\\`, `\"`, `\n`) — query text is arbitrary and may contain
// backslashes or quotes.
//
// Also exported: `rq_flight_recorded_total` (the recorder's ticket total,
// not a registry counter) next to the `obs.flight_dropped` counter, which
// arrives through the registry like everything else.
//
// Surfaced as `--prometheus <path>` on rqcheck, rqeval, and the bench
// harness; bench/run_all.sh --smoke validates the emission with
// bench/check_prometheus.py.
#ifndef RQ_OBS_PROMETHEUS_H_
#define RQ_OBS_PROMETHEUS_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace rq {
namespace obs {

// `rq_` + name with every character outside [a-zA-Z0-9_:] replaced by '_'.
std::string PrometheusMetricName(std::string_view name);

// Escaping per the text exposition format. Label values escape backslash,
// double-quote, and newline (`\\`, `\"`, `\n`); HELP text escapes
// backslash and newline only. Needed because the exposition carries
// arbitrary strings: the original dotted metric name in `# HELP` lines and
// the CLI's raw query text in the `rq_query_info` label — both may contain
// backslashes (regex escapes) or quotes.
std::string PrometheusEscapeLabelValue(std::string_view value);
std::string PrometheusEscapeHelp(std::string_view text);

// The full exposition document (counters, gauges, histograms).
std::string RenderPrometheusText();

// Writes the exposition to `path` via WriteTextFile (obs/export.h).
Status WritePrometheusTextFile(const std::string& path);

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_PROMETHEUS_H_

// Typed views over the metric registry (obs/counters.h): one struct per
// instrumented subsystem, each member a cached handle to a registered
// counter, histogram or gauge. Together they define the metric vocabulary
// (`<subsystem>.<noun>`; full list in docs/OBSERVABILITY.md).
//
// Hot loops accumulate into locals and flush here once per operation, so
// registry traffic is O(operations), not O(inner-loop steps). Counters
// hold process-wide totals; a histogram sharing a counter's name records
// that quantity per operation (its DISTRIBUTION), and gauges hold a level
// with its PEAK. Per-call results such as
// LanguageContainmentResult::explored_states and DatalogEvalStats are not
// views of these totals: the verdict cache, the flight recorder's `work`
// field and concurrent callers each need the figure of one call.
#ifndef RQ_OBS_SUBSYSTEMS_H_
#define RQ_OBS_SUBSYSTEMS_H_

#include "obs/counters.h"

namespace rq {
namespace obs {

// Regex → NFA translation (paper §3.1).
struct RegexCounters {
  Counter& nfa_builds = *GetCounter("regex.nfa_builds");
  Counter& nfa_states = *GetCounter("regex.nfa_states");

  static RegexCounters& Get();
};

// On-the-fly product search for language containment (§3.2, Lemma 1) —
// shared by the plain, antichain, explicit, and fold-pipeline checkers.
struct ContainmentCounters {
  Counter& checks = *GetCounter("containment.checks");
  Counter& states_explored = *GetCounter("containment.states_explored");
  Counter& refuted = *GetCounter("containment.refuted");
  // Per-check distribution of the states_explored quantity.
  Histogram& states_explored_per_check =
      *GetHistogram("containment.states_explored");

  static ContainmentCounters& Get();
};

// Fold construction (§3.2, Lemma 3).
struct FoldCounters {
  Counter& constructions = *GetCounter("fold.constructions");
  Counter& states = *GetCounter("fold.states");
  Counter& transitions = *GetCounter("fold.transitions");
  // Per-construction distribution of the states quantity, and the largest
  // fold automaton ever built.
  Histogram& states_per_construction = *GetHistogram("fold.states");
  Gauge& peak_states = *GetGauge("fold.peak_states");

  static FoldCounters& Get();
};

// 2NFA complementation (Lemma 4, Vardi 1989).
struct ComplementCounters {
  Counter& constructions = *GetCounter("complement.constructions");
  Counter& states = *GetCounter("complement.states");
  Counter& budget_exhausted = *GetCounter("complement.budget_exhausted");
  // Largest complement automaton ever built (the EXPSPACE pressure point).
  Gauge& peak_states = *GetGauge("complement.peak_states");

  static ComplementCounters& Get();
};

// CQ/UCQ homomorphism search (Chandra-Merlin / Sagiv-Yannakakis, §2.3).
struct CqCounters {
  Counter& hom_checks = *GetCounter("cq.hom_checks");
  Counter& canonical_evals = *GetCounter("cq.canonical_evals");

  static CqCounters& Get();
};

// RQ expansion enumeration and containment dispatch (§3.4, Theorem 7).
struct RqCounters {
  Counter& evals = *GetCounter("rq.evals");
  Counter& closure_tuples = *GetCounter("rq.closure_tuples");
  Counter& expansions = *GetCounter("rq.expansions");
  Counter& expansion_checks = *GetCounter("rq.expansion_checks");
  Counter& dispatch_2rpq = *GetCounter("rq.dispatch_2rpq");
  Counter& dispatch_uc2rpq = *GetCounter("rq.dispatch_uc2rpq");
  Counter& dispatch_expansion = *GetCounter("rq.dispatch_expansion");
  Counter& dispatch_structural = *GetCounter("rq.dispatch_structural");
  // Expansions materialized by the most recent ExpandRq (peak = largest
  // expansion set any single enumeration held live).
  Gauge& live_expansions = *GetGauge("rq.live_expansions");

  static RqCounters& Get();
};

// Content-addressed automata/verdict cache (src/cache/, docs/CACHING.md).
// These are the cross-kind aggregates; each construction kind additionally
// registers `cache.<kind>_hits` / `_misses` / `_evictions` on first use.
struct CacheCounters {
  Counter& hits = *GetCounter("cache.hits");
  Counter& misses = *GetCounter("cache.misses");
  Counter& evictions = *GetCounter("cache.evictions");
  Counter& inserts = *GetCounter("cache.inserts");
  // Bytes currently charged across all kinds (peak = high-water mark).
  Gauge& bytes_in_use = *GetGauge("cache.bytes_in_use");

  static CacheCounters& Get();
};

// Graph evaluation: product-of-graph-and-automaton BFS over immutable CSR
// snapshots (graph/snapshot.h, pathquery/path_query.h). Workers flush once
// per single-source evaluation; histograms record per-eval distributions
// (frontier = per-BFS-level product frontier size, the memory pressure
// signal; product_states = product states visited per eval, the work
// signal).
struct GraphEvalCounters {
  Counter& snapshots = *GetCounter("graph.snapshots");
  Counter& evals = *GetCounter("graph.evals");
  Counter& product_states = *GetCounter("graph.product_states");
  // Live mutation path (server/graph_store.h): applied update ops, and the
  // wall-clock cost of republishing a graph version per update batch (and
  // per Load): frozen graph copy, CSR snapshot and view swap only. The
  // batch's ops, closure deltas and closure-image merges run before this
  // clock starts, and the relational image is built later, on first use.
  Counter& mutations = *GetCounter("graph.mutations");
  Histogram& rebuild_ns = *GetHistogram("graph.rebuild_ns");
  // Per-level frontier sizes and per-eval product states visited.
  Histogram& frontier_per_level = *GetHistogram("graph.frontier");
  Histogram& product_states_per_eval = *GetHistogram("graph.product_states");
  // Widest product frontier any single BFS level ever reached.
  Gauge& peak_frontier = *GetGauge("graph.peak_frontier");
  // Current graph version of the serving store; monotonic (a gauge, not a
  // counter, because it is a level read off the store, not an event count).
  Gauge& epoch = *GetGauge("graph.epoch");

  static GraphEvalCounters& Get();
};

// Incremental closure maintenance (relational/incremental.h, the systems
// twin of the paper's recursion-as-transitive-closure restriction §3.4).
// pairs_added counts closure pairs derived from deltas (the work the
// fixpoint never re-ran); fallbacks counts label closures demoted to full
// re-evaluation because a delta product blew the budget or a deadline/
// memory trip left the closure partial; images counts the sorted closure
// images the serving store built: one per seed, and one per batch for each
// live label whose closure grew.
struct IncrCounters {
  Counter& pairs_added = *GetCounter("incr.pairs_added");
  Counter& fallbacks = *GetCounter("incr.fallbacks");
  Counter& seeds = *GetCounter("incr.seeds");
  Counter& closure_evals = *GetCounter("incr.closure_evals");
  Counter& images = *GetCounter("incr.images");

  static IncrCounters& Get();
};

// Batch containment engine (src/containment/batch.h).
struct BatchCounters {
  Counter& batches = *GetCounter("containment.batches");
  Counter& batch_checks = *GetCounter("containment.batch_checks");
  // Jobs submitted but not yet finished (peak = deepest backlog any
  // overlapping set of batches ever reached).
  Gauge& queue_depth = *GetGauge("containment.batch_queue_depth");

  static BatchCounters& Get();
};

// Long-lived query service (src/server/, docs/SERVING.md). Requests counts
// every framed request read off a connection; shed counts admission-control
// rejections (bounded queue full or in-flight bytes over the threshold) —
// a rising shed rate is the serving layer's backpressure signal. Latency
// is measured from frame decode to response write; queue_wait from enqueue
// to worker pickup (its p99 growing toward the latency p99 means the
// worker pool, not the checkers, is the bottleneck).
struct ServerCounters {
  Counter& connections = *GetCounter("server.connections");
  Counter& requests = *GetCounter("server.requests");
  Counter& responses = *GetCounter("server.responses");
  Counter& shed = *GetCounter("server.shed");
  Counter& errors = *GetCounter("server.errors");
  Counter& drained = *GetCounter("server.drained");
  Counter& metrics_scrapes = *GetCounter("server.metrics_scrapes");
  Histogram& request_latency_ns = *GetHistogram("server.request_latency_ns");
  Histogram& queue_wait_ns = *GetHistogram("server.queue_wait_ns");
  // Live connections / queued-but-not-picked-up requests (peaks = worst
  // concurrency and deepest backlog the process ever saw).
  Gauge& active_connections = *GetGauge("server.active_connections");
  Gauge& queue_depth = *GetGauge("server.queue_depth");
  Gauge& inflight_requests = *GetGauge("server.inflight_requests");

  static ServerCounters& Get();
};

// The observability layer's own health counters: spans past the tracer's
// record cap (obs/trace.h) and completed-query summaries evicted from (or
// lost to) the flight-recorder ring (obs/flight_recorder.h).
struct ObsCounters {
  Counter& dropped_spans = *GetCounter("obs.dropped_spans");
  Counter& flight_dropped = *GetCounter("obs.flight_dropped");

  static ObsCounters& Get();
};

// Deadline / cancellation layer (common/deadline.h, docs/ROBUSTNESS.md).
// expired/cancelled count tripped ExecContexts (once per context, however
// many loops polled it); slack_ns records how much headroom finite-deadline
// operations finished with — a shrinking p50 means timeouts are about to
// start firing.
struct DeadlineCounters {
  Counter& expired = *GetCounter("deadline.expired");
  Counter& cancelled = *GetCounter("deadline.cancelled");
  Histogram& slack_ns = *GetHistogram("deadline.slack_ns");

  static DeadlineCounters& Get();
};

// Datalog fixpoint engine (§2.2), naive and semi-naive modes.
struct DatalogCounters {
  Counter& evals = *GetCounter("datalog.evals");
  Counter& rounds = *GetCounter("datalog.rounds");
  Counter& rule_applications = *GetCounter("datalog.rule_applications");
  Counter& tuples_considered = *GetCounter("datalog.tuples_considered");
  Counter& tuples_derived = *GetCounter("datalog.tuples_derived");
  // Per-evaluation distribution of the rounds quantity (fixpoint depth).
  Histogram& rounds_per_eval = *GetHistogram("datalog.rounds");

  static DatalogCounters& Get();
};

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_SUBSYSTEMS_H_

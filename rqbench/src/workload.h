// Seeded workloads of the rqserved benchmark.
//
// Every workload starts from one SocialNetwork graph (graph/generators.h)
// and is generated from the --seed argument alone: the same seed gives a
// byte-identical graph text and request stream, so the server sees only
// generated inputs and two commits can be run on identical traffic.
//
//   eval_cold  distinct eval queries (RPQ/2RPQ, C2RPQ, RQ, Datalog) from a
//              seeded grammar; no answer is ever reused.
//   analyze    containment / equivalence requests drawn with a Zipf skew
//              from a seeded pool larger than the warm-up covers.
//   mixed_rw   open-loop `update` batches of knows edges on a fixed
//              schedule next to closed-loop reads of a small query set that
//              includes the closure-shaped `knows+`.
//
// A run is kCycles cycles, each on a freshly launched server. The
// read-only workloads cut their read order into `slices` equal parts and
// send part k mod slices in cycle k, so each request is answered several
// times from the same server state; every cycle ends with the same update
// batches on the same schedule, after the reads and after one `knows+`
// read has seeded the maintained closure, with no reads alongside, so
// every end-to-end metric is reported on every workload.
#ifndef RQBENCH_WORKLOAD_H_
#define RQBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/graph_db.h"

namespace rqbench {

enum class Workload { kEvalCold, kAnalyze, kMixedRw };

// Cycles per run, each on a fresh server that starts from the generated
// graph. Spreading every kind of work over the whole run, in short cycles,
// lets each metric take its median over the run: on a shared 4-vCPU host a
// fixed 20 ms task took 14-51 ms from one try to the next, and medians over
// 5 s stretches moved by 15%.
inline constexpr int kCycles = 12;

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// What a correct server answers. Filled by ComputeExpected, never by the
// server path.
struct Expected {
  enum class Kind { kNone, kEval, kVerdict, kUpdate };
  Kind kind = Kind::kNone;
  std::string verdict;  // kVerdict: the `verdict` field
  uint64_t count = 0;   // kEval: answer size; kUpdate: edges added
  std::string rows;     // kEval: Dump() of the first max_tuples rows
};

struct EdgeOp {
  std::string src;
  std::string label;
  std::string dst;
};

struct BenchRequest {
  std::string type;  // eval | containment | equivalence | update
  std::string cls;
  std::string q1;
  std::string q2;
  std::string query;
  int64_t max_tuples = 0;
  std::vector<EdgeOp> ops;  // update batches
  Expected expected;

  // The request frame's JSON text (no id: every connection is closed-loop).
  std::string Frame() const;
};

struct Stream {
  Workload workload = Workload::kEvalCold;
  uint64_t seed = 0;
  std::string graph_text;
  // Distinct read requests; `read_order` indexes into it. An empty order
  // means the reads cycle through `reads` until the write schedule ends
  // (mixed_rw).
  std::vector<BenchRequest> reads;
  std::vector<uint32_t> read_order;
  // `read_order` is cut into this many equal consecutive parts; cycle k
  // sends part k mod slices, so each is sent kCycles / slices times.
  size_t slices = 1;
  // Sent once each, in order, before every cycle's timed phase.
  std::vector<uint32_t> warmup_order;
  // Reads each read connection keeps in flight (a closed loop of that many
  // clients per connection).
  size_t read_depth = 1;
  // One cycle's update batches, due every `write_interval_ms` from the
  // write phase's start (open loop); every cycle sends the same ones.
  std::vector<BenchRequest> writes;
  double write_interval_ms = 0;
  // Reads the traced replay runs after each batch (mixed_rw).
  size_t replay_reads_per_batch = 0;

  // Canonical text of the graph, the requests and both schedules, for the
  // determinism test.
  std::string Fingerprint() const;
};

// Generates the workload. `seconds` sizes the fixed work of the whole run
// (kCycles cycles): the number of reads and write batches grows with it.
rq::Result<Stream> Generate(Workload workload, uint64_t seed, int seconds);

// The graph exactly as rqserved --graph loads it.
rq::Result<rq::GraphDb> LoadGraph(const Stream& stream);

// Fills every request's `expected` with a second engine: evals through the
// Datalog translations (Datalog requests through product-BFS), rpq
// containment through the explicit-complement construction, the other
// classes through direct library calls outside the server path. Runs on
// `threads` threads.
rq::Status ComputeExpected(Stream* stream, unsigned threads);

// Nodes of the final graph's transitive closure of `knows` after applying
// `applied` update batches, rendered as the sorted rows the server returns
// for `knows+` (a from-scratch closure, not the incremental one).
rq::Result<std::string> ScratchKnowsClosureRows(
    const Stream& stream, const std::vector<const BenchRequest*>& applied,
    uint64_t* count);

}  // namespace rqbench

#endif  // RQBENCH_WORKLOAD_H_

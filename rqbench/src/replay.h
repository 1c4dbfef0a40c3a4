// The traced run's in-process replay: the same seeded stream against a
// GraphStore loaded with the same graph, with spans recorded around the
// calls into each src/ module's public functions. Spans live in memory and
// are written out once, at the end.
#ifndef RQBENCH_REPLAY_H_
#define RQBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "drive.h"
#include "workload.h"

namespace rqbench {

// One timed interval. Spans of one request share `request`; `parent` is
// the index of the enclosing span, -1 for a root.
struct Span {
  uint64_t request = 0;
  int32_t parent = -1;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Records spans in memory. A disabled recorder measures nothing, which is
// how the replay runs without spans for the overhead comparison.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int32_t index_ = -1;
  };

  void BeginRequest(uint64_t id) { request_ = id; }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus what its children cover.
  std::vector<int64_t> SelfTimes() const;

 private:
  bool enabled_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

struct ReplayOptions {
  // Caps on the replayed prefix of the read order, so a traced run stays
  // within its time budget.
  size_t max_reads = 0;
  std::string trace_file;  // where the spans are written
};

// Per-layer metrics from the spans, keyed by the names in BENCHMARK.json. A
// layer the stream never calls reads 0 with no samples.
rq::Result<Metrics> TracedReplay(const Stream& stream,
                                 const ReplayOptions& options);

}  // namespace rqbench

#endif  // RQBENCH_REPLAY_H_

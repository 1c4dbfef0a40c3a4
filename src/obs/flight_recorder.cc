#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/deadline.h"
#include "obs/subsystems.h"

#if !defined(_WIN32)
#include <signal.h>
#include <unistd.h>
#endif

namespace rq {
namespace obs {

namespace {

uint64_t PackKindVerdict(QueryKind kind, int32_t verdict) {
  return (static_cast<uint64_t>(static_cast<uint8_t>(kind)) << 32) |
         static_cast<uint32_t>(verdict);
}

void UnpackKindVerdict(uint64_t packed, QueryKind* kind, int32_t* verdict) {
  *kind = static_cast<QueryKind>(static_cast<uint8_t>(packed >> 32));
  *verdict = static_cast<int32_t>(static_cast<uint32_t>(packed));
}

// Async-signal-safe decimal formatting into `buf`; returns chars written.
size_t FormatU64(uint64_t value, char* buf) {
  char tmp[20];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

// Bounded async-signal-safe line builder over a caller-owned buffer.
class LineBuf {
 public:
  LineBuf(char* buf, size_t cap) : buf_(buf), cap_(cap) {}
  void Append(const char* text) {
    size_t n = std::strlen(text);
    if (len_ + n > cap_) n = cap_ - len_;
    std::memcpy(buf_ + len_, text, n);
    len_ += n;
  }
  void AppendU64(uint64_t value) {
    if (len_ + 20 > cap_) return;
    len_ += FormatU64(value, buf_ + len_);
  }
  size_t len() const { return len_; }

 private:
  char* buf_;
  size_t cap_;
  size_t len_ = 0;
};

void WriteAll(int fd, const char* data, size_t len) {
#if !defined(_WIN32)
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
#else
  (void)fd;
  (void)data;
  (void)len;
#endif
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kUnknown:
      return "unknown";
    case QueryKind::kPathContainment:
      return "path-containment";
    case QueryKind::kUc2RpqContainment:
      return "uc2rpq-containment";
    case QueryKind::kRqContainment:
      return "rq-containment";
    case QueryKind::kDatalogContainment:
      return "datalog-containment";
    case QueryKind::kGraphEval:
      return "graph-eval";
    case QueryKind::kUc2RpqEval:
      return "uc2rpq-eval";
    case QueryKind::kRqEval:
      return "rq-eval";
    case QueryKind::kDatalogEval:
      return "datalog-eval";
  }
  return "?";
}

const char* FlightVerdictName(int32_t verdict) {
  switch (verdict) {
    case kFlightVerdictOk:
      return "ok";
    case kFlightVerdictRefuted:
      return "refuted";
    case kFlightVerdictUnknown:
      return "unknown";
    case kFlightVerdictError:
      return "error";
    case kFlightVerdictTimeout:
      return "timeout";
    case kFlightVerdictAbandoned:
      return "abandoned";
  }
  return "?";
}

FlightRecorder::FlightRecorder() : epoch_ns_(SteadyNowNs()) {
  uint64_t threshold = 100 * 1000 * 1000;  // 100 ms
  if (const char* env = std::getenv("RQ_SLOW_QUERY_MS")) {
    char* end = nullptr;
    double ms = std::strtod(env, &end);
    if (end != env && ms >= 0) {
      threshold = static_cast<uint64_t>(ms * 1e6);
    }
  }
  slow_threshold_ns_.store(threshold, std::memory_order_relaxed);
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

void FlightRecorder::Record(QueryKind kind, int32_t verdict,
                            uint64_t duration_ns, uint64_t work,
                            uint64_t mem_peak) {
  uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & (kCapacity - 1)];
  uint64_t now = SteadyNowNs();
  uint64_t elapsed = now - epoch_ns_;
  uint64_t start_ns = elapsed > duration_ns ? elapsed - duration_ns : 0;

  // Claim the slot's seqlock tag: even (or 0) -> odd-for-this-seq. A failed
  // claim means a writer lagging a full ring lap still owns the slot; the
  // new summary is dropped rather than spun on, keeping Record wait-free.
  uint64_t cur = slot.tag.load(std::memory_order_relaxed);
  uint64_t odd = (seq + 1) * 2 + 1;
  if ((cur & 1) != 0 ||
      !slot.tag.compare_exchange_strong(cur, odd,
                                        std::memory_order_relaxed)) {
    ObsCounters::Get().flight_dropped.Increment();
  } else {
    if (cur != 0) {
      ObsCounters::Get().flight_dropped.Increment();  // evicted oldest
    }
    // The release fence orders the odd tag before the field stores; the
    // closing release store orders the fields before the even tag. Readers
    // pair with acquire loads/fences (Snapshot, DumpToFd).
    std::atomic_thread_fence(std::memory_order_release);
    slot.kind_verdict.store(PackKindVerdict(kind, verdict),
                            std::memory_order_relaxed);
    slot.start_ns.store(start_ns, std::memory_order_relaxed);
    slot.duration_ns.store(duration_ns, std::memory_order_relaxed);
    slot.work.store(work, std::memory_order_relaxed);
    slot.mem_peak.store(mem_peak, std::memory_order_relaxed);
    slot.tag.store((seq + 1) * 2, std::memory_order_release);
  }

  uint64_t threshold = slow_threshold_ns_.load(std::memory_order_relaxed);
  if (threshold != 0 && duration_ns >= threshold) {
    std::lock_guard<std::mutex> lock(slow_mu_);
    SlowQueryEntry entry;
    entry.seq = seq;
    entry.kind = kind;
    entry.verdict = verdict;
    entry.duration_ns = duration_ns;
    entry.work = work;
    entry.mem_peak = mem_peak;
    entry.label = label_;
    slow_.push_back(std::move(entry));
    while (slow_.size() > kMaxSlowQueries) slow_.pop_front();
  }
}

std::vector<FlightEntry> FlightRecorder::Snapshot() const {
  std::vector<FlightEntry> out;
  out.reserve(kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    const Slot& slot = slots_[i];
    uint64_t t1 = slot.tag.load(std::memory_order_acquire);
    if (t1 == 0 || (t1 & 1) != 0) continue;
    FlightEntry entry;
    UnpackKindVerdict(slot.kind_verdict.load(std::memory_order_relaxed),
                      &entry.kind, &entry.verdict);
    entry.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    entry.duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
    entry.work = slot.work.load(std::memory_order_relaxed);
    entry.mem_peak = slot.mem_peak.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    uint64_t t2 = slot.tag.load(std::memory_order_relaxed);
    if (t1 != t2) continue;  // overwritten mid-copy: skip, never tear
    entry.seq = t1 / 2 - 1;
    out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEntry& a, const FlightEntry& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<SlowQueryEntry> FlightRecorder::SlowQueries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return std::vector<SlowQueryEntry>(slow_.begin(), slow_.end());
}

uint64_t FlightRecorder::TotalRecorded() const {
  return next_seq_.load(std::memory_order_relaxed);
}

void FlightRecorder::SetSlowQueryThresholdNs(uint64_t ns) {
  slow_threshold_ns_.store(ns, std::memory_order_relaxed);
}

uint64_t FlightRecorder::SlowQueryThresholdNs() const {
  return slow_threshold_ns_.load(std::memory_order_relaxed);
}

void FlightRecorder::DumpToFd(int fd) const {
  char line[256];
  {
    LineBuf buf(line, sizeof(line));
    buf.Append("== rq flight recorder: ");
    buf.AppendU64(TotalRecorded());
    buf.Append(" queries recorded\n");
    WriteAll(fd, line, buf.len());
  }
  // Same seqlock read protocol as Snapshot, without allocation or sorting
  // (slot order approximates age order; seq disambiguates).
  for (size_t i = 0; i < kCapacity; ++i) {
    const Slot& slot = slots_[i];
    uint64_t t1 = slot.tag.load(std::memory_order_acquire);
    if (t1 == 0 || (t1 & 1) != 0) continue;
    QueryKind kind;
    int32_t verdict;
    UnpackKindVerdict(slot.kind_verdict.load(std::memory_order_relaxed),
                      &kind, &verdict);
    uint64_t start_ns = slot.start_ns.load(std::memory_order_relaxed);
    uint64_t duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
    uint64_t work = slot.work.load(std::memory_order_relaxed);
    uint64_t mem_peak = slot.mem_peak.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.tag.load(std::memory_order_relaxed) != t1) continue;
    LineBuf buf(line, sizeof(line));
    buf.Append("seq=");
    buf.AppendU64(t1 / 2 - 1);
    buf.Append(" kind=");
    buf.Append(QueryKindName(kind));
    buf.Append(" verdict=");
    buf.Append(FlightVerdictName(verdict));
    buf.Append(" start_us=");
    buf.AppendU64(start_ns / 1000);
    buf.Append(" duration_us=");
    buf.AppendU64(duration_ns / 1000);
    buf.Append(" work=");
    buf.AppendU64(work);
    buf.Append(" mem_peak=");
    buf.AppendU64(mem_peak);
    buf.Append("\n");
    WriteAll(fd, line, buf.len());
  }
}

void FlightRecorder::Reset() {
  next_seq_.store(0, std::memory_order_relaxed);
  for (Slot& slot : slots_) {
    slot.tag.store(0, std::memory_order_relaxed);
    slot.kind_verdict.store(0, std::memory_order_relaxed);
    slot.start_ns.store(0, std::memory_order_relaxed);
    slot.duration_ns.store(0, std::memory_order_relaxed);
    slot.work.store(0, std::memory_order_relaxed);
    slot.mem_peak.store(0, std::memory_order_relaxed);
  }
  epoch_ns_ = SteadyNowNs();
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_.clear();
}

namespace {
// Per-thread nesting depth; only the outermost FlightTimer on a thread
// records (see the class comment in flight_recorder.h).
thread_local uint32_t t_flight_depth = 0;
}  // namespace

FlightTimer::FlightTimer(QueryKind kind)
    : kind_(kind),
      start_ns_(SteadyNowNs()),
      outermost_(t_flight_depth++ == 0) {}

FlightTimer::~FlightTimer() {
  if (!finished_) Finish(kFlightVerdictAbandoned, 0);
  --t_flight_depth;
}

void FlightTimer::Finish(int32_t verdict, uint64_t work) {
  if (finished_) return;
  finished_ = true;
  if (!outermost_) return;
  // The memory high-water mark of the query this timer wraps, when the
  // entry point runs under an ExecContext (CLIs, server and batch engine
  // install one).
  const ExecContext* ctx = ExecContext::Current();
  FlightRecorder::Global().Record(kind_, verdict, SteadyNowNs() - start_ns_,
                                  work,
                                  ctx != nullptr ? ctx->peak_total_bytes()
                                                 : 0);
}

void FlightRecorder::SetQueryLabel(std::string label) {
  std::lock_guard<std::mutex> lock(slow_mu_);
  label_ = std::move(label);
}

std::string FlightRecorder::QueryLabel() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return label_;
}

void SetFlightQueryLabel(std::string label) {
  FlightRecorder::Global().SetQueryLabel(std::move(label));
}

Status WriteFlightDump(const std::string& path) {
  FlightRecorder& recorder = FlightRecorder::Global();
  std::FILE* f = path == "-" ? stderr : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InvalidArgumentError("cannot open " + path + " for writing");
  }
  std::vector<FlightEntry> entries = recorder.Snapshot();
  std::fprintf(f,
               "== rq flight recorder: %" PRIu64
               " queries recorded, %zu in ring, %" PRIu64 " dropped\n",
               recorder.TotalRecorded(), entries.size(),
               ObsCounters::Get().flight_dropped.value());
  for (const FlightEntry& entry : entries) {
    std::fprintf(f,
                 "seq=%" PRIu64
                 " kind=%s verdict=%s start_us=%" PRIu64
                 " duration_us=%" PRIu64 " work=%" PRIu64
                 " mem_peak=%" PRIu64 "\n",
                 entry.seq, QueryKindName(entry.kind),
                 FlightVerdictName(entry.verdict), entry.start_ns / 1000,
                 entry.duration_ns / 1000, entry.work, entry.mem_peak);
  }
  std::vector<SlowQueryEntry> slow = recorder.SlowQueries();
  std::fprintf(f, "== slow queries (threshold %" PRIu64 " ms): %zu\n",
               recorder.SlowQueryThresholdNs() / 1000000, slow.size());
  for (const SlowQueryEntry& entry : slow) {
    std::fprintf(f,
                 "seq=%" PRIu64 " kind=%s verdict=%s duration_us=%" PRIu64
                 " work=%" PRIu64 " mem_peak=%" PRIu64 "%s%s\n",
                 entry.seq, QueryKindName(entry.kind),
                 FlightVerdictName(entry.verdict), entry.duration_ns / 1000,
                 entry.work, entry.mem_peak,
                 entry.label.empty() ? "" : " label=",
                 entry.label.c_str());
  }
  // ferror catches a failed fprintf; fclose (or fflush for stderr, which
  // stays open) catches a failure that surfaces only at the final flush.
  bool write_failed = std::ferror(f) != 0;
  bool flush_failed = (f == stderr ? std::fflush(f) : std::fclose(f)) != 0;
  if (write_failed || flush_failed) {
    return InternalError("failed to write flight dump to " + path);
  }
  return Status::Ok();
}

#if !defined(_WIN32)
namespace {

void FlightSignalHandler(int sig) {
  const char* header = "\n== fatal signal; dumping flight recorder\n";
  WriteAll(2, header, std::strlen(header));
  FlightRecorder::Global().DumpToFd(2);
  // SA_RESETHAND restored the default disposition; re-raise to die with
  // the original signal (and its exit status / core dump).
  ::raise(sig);
}

}  // namespace

void InstallFlightSignalHandler() {
  // Force the recorder (and the obs.* counters) into existence outside
  // signal context.
  FlightRecorder::Global();
  ObsCounters::Get();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = FlightSignalHandler;
  action.sa_flags = SA_RESETHAND;
  sigemptyset(&action.sa_mask);
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    ::sigaction(sig, &action, nullptr);
  }
}
#else
void InstallFlightSignalHandler() {}
#endif

}  // namespace obs
}  // namespace rq

#include "common/deadline.h"

#include <cstddef>

#include "common/clock.h"
#include "obs/mem_stats.h"
#include "obs/subsystems.h"

namespace rq {
namespace {

thread_local ExecContext* g_current_exec_context = nullptr;

void RaisePeak(std::atomic<int64_t>& peak, int64_t candidate) {
  int64_t seen = peak.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !peak.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t NonNegative(const std::atomic<int64_t>& value) {
  int64_t v = value.load(std::memory_order_relaxed);
  return v < 0 ? 0 : static_cast<uint64_t>(v);
}

}  // namespace

Deadline Deadline::AfterNanos(int64_t ns) {
  return Deadline(static_cast<int64_t>(SteadyNowNs()) + ns);
}

bool Deadline::Expired() const {
  return ns_ != kInfiniteNs && static_cast<int64_t>(SteadyNowNs()) >= ns_;
}

int64_t Deadline::RemainingNanos() const {
  if (ns_ == kInfiniteNs) return kInfiniteNs;
  return ns_ - static_cast<int64_t>(SteadyNowNs());
}

ExecContext::ExecContext(Deadline deadline, CancelToken* cancel,
                         uint64_t budget_bytes, const ExecContext* parent)
    : deadline_(deadline), cancel_(cancel), pot_(std::make_shared<Pot>()) {
  pot_->budget_bytes = budget_bytes;
  if (parent != nullptr) {
    pot_->parent = parent->pot_;
    profile_ = parent->profile_;
  }
}

ExecContext ExecContext::ChildOf(const ExecContext* parent) {
  if (parent == nullptr) return ExecContext();
  return ExecContext(*parent, Mirror{});
}

ExecContext* ExecContext::Current() { return g_current_exec_context; }

void ExecContext::Charge(MemSubsystem subsystem, int64_t bytes) {
  if (bytes == 0) return;
  size_t idx = static_cast<size_t>(subsystem);
  for (Pot* p = pot_.get(); p != nullptr; p = p->parent.get()) {
    int64_t now =
        p->bytes[idx].fetch_add(bytes, std::memory_order_relaxed) + bytes;
    RaisePeak(p->peak_bytes[idx], now);
    int64_t total =
        p->total.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    RaisePeak(p->peak_total, total);
    if (p->budget_bytes != 0 &&
        total > static_cast<int64_t>(p->budget_bytes)) {
      p->exceeded.store(true, std::memory_order_relaxed);
    }
  }
}

void ExecContext::ExhaustMemory() {
  pot_->out_of_memory.store(true, std::memory_order_relaxed);
  pot_->exceeded.store(true, std::memory_order_relaxed);
}

uint64_t ExecContext::subsystem_bytes(MemSubsystem subsystem) const {
  return NonNegative(pot_->bytes[static_cast<size_t>(subsystem)]);
}

uint64_t ExecContext::peak_subsystem_bytes(MemSubsystem subsystem) const {
  return NonNegative(pot_->peak_bytes[static_cast<size_t>(subsystem)]);
}

uint64_t ExecContext::total_bytes() const { return NonNegative(pot_->total); }

uint64_t ExecContext::peak_total_bytes() const {
  return NonNegative(pot_->peak_total);
}

bool ExecContext::exceeded() const {
  for (const Pot* p = pot_.get(); p != nullptr; p = p->parent.get()) {
    if (p->exceeded.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

Status ExecContext::Check() {
  // Memory first, and even over a latched deadline or cancellation: a
  // crossed budget is the actionable cause (docs/ROBUSTNESS.md "Which
  // error wins").
  bool memory_latched =
      stopped_ && status_.code() == StatusCode::kResourceExhausted;
  if (!memory_latched && exceeded()) {
    return Trip(ResourceExhaustedError(
        pot_->out_of_memory.load(std::memory_order_relaxed)
            ? "out of memory: an allocation failed"
            : "memory budget exceeded"));
  }
  if (stopped_) return status_;
  if (cancel_ != nullptr && cancel_->Cancelled()) {
    return Trip(CancelledError("execution cancelled"));
  }
  if (!deadline_.IsInfinite()) {
    if (polls_until_clock_ == 0) {
      polls_until_clock_ = kStride;
      if (deadline_.Expired()) {
        return Trip(DeadlineExceededError("deadline exceeded"));
      }
    }
    --polls_until_clock_;
  }
  return Status::Ok();
}

Status ExecContext::Trip(Status status) {
  stopped_ = true;
  status_ = std::move(status);
  switch (status_.code()) {
    case StatusCode::kResourceExhausted:
      obs::MemStats::Get().budget_exceeded.Add(1);
      break;
    case StatusCode::kDeadlineExceeded:
      obs::DeadlineCounters::Get().expired.Add(1);
      break;
    default:
      obs::DeadlineCounters::Get().cancelled.Add(1);
      break;
  }
  return status_;
}

ScopedExecContext::ScopedExecContext(ExecContext* ctx)
    : installed_(ctx), previous_(g_current_exec_context) {
  if (installed_ != nullptr) g_current_exec_context = installed_;
}

ScopedExecContext::~ScopedExecContext() {
  if (installed_ == nullptr) return;
  g_current_exec_context = previous_;
  if (installed_->slack_recorded_ || installed_->stopped_ ||
      installed_->deadline_.IsInfinite()) {
    return;
  }
  installed_->slack_recorded_ = true;
  int64_t slack = installed_->deadline_.RemainingNanos();
  if (slack < 0) slack = 0;
  obs::DeadlineCounters::Get().slack_ns.Record(
      static_cast<uint64_t>(slack));
}

Status CheckExecContext() {
  ExecContext* ctx = g_current_exec_context;
  if (ctx == nullptr) return Status::Ok();
  return ctx->Check();
}

}  // namespace rq

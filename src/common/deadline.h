// The per-query execution context: wall-clock deadline, cooperative
// cancellation and byte budget in one (docs/ROBUSTNESS.md; memory
// accounting in docs/OBSERVABILITY.md "Memory accounting").
//
// The containment ladder tops out at EXPSPACE/2EXPSPACE procedures, so a
// production deployment cannot run them unbounded: every long-running loop
// in the library polls a lightweight ExecContext — a steady-clock Deadline,
// an optional shared CancelToken and an accounting pot with an optional
// byte budget — and unwinds with kDeadlineExceeded, kCancelled or
// kResourceExhausted instead of hanging. The context is installed
// thread-locally (ScopedExecContext), so deep loops consult it through
// CheckExecContext() without threading a parameter through every
// signature, the attribution API of common/mem.h (MemScope/MemCharge)
// charges the same installation, and plan notes reach the query's own
// obs::QueryProfile when one is attached (obs/profile.h).
//
// Cost model: CheckExecContext() with no context installed is one
// thread-local load and a branch. With a context it adds relaxed atomic
// loads (the budget flags up the pot chain, the cancel token) and reads
// the clock only once per ExecContext::kStride polls, so even per-node
// polling in the product search loops is noise; an Ok poll allocates
// nothing. A non-OK verdict latches: once a context trips, every
// subsequent Check returns the same error (except that a memory trip
// overrides a latched deadline or cancellation, see Check), which lets
// construction kernels without a Status channel (FoldTwoNfa, the
// product-BFS lane kernel) simply stop early and rely on a
// Status-returning caller to poll the same context.
//
// Pool threads see the caller's context without any code at the fan-out
// site: ParallelFor (common/parallel.h) captures the calling thread's
// installation and installs an ExecContext::ChildOf mirror on each worker.
// Mirrors and contexts built with a parent carry the parent's profile, so
// worker notes land in the profile of the query that spawned them.
#ifndef RQ_COMMON_DEADLINE_H_
#define RQ_COMMON_DEADLINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/mem.h"
#include "common/status.h"

namespace rq {

namespace obs {
class QueryProfile;
}  // namespace obs

// A point on the steady clock. Default-constructed deadlines are infinite
// (never expire), so a Deadline member costs nothing until a caller asks
// for a bound.
class Deadline {
 public:
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }
  static Deadline AfterNanos(int64_t ns);
  static Deadline AfterMillis(int64_t ms) {
    return AfterNanos(ms * 1'000'000);
  }

  bool IsInfinite() const { return ns_ == kInfiniteNs; }
  bool Expired() const;
  // Nanoseconds until expiry (negative if past); kInfiniteNs when infinite.
  int64_t RemainingNanos() const;

  static constexpr int64_t kInfiniteNs =
      std::numeric_limits<int64_t>::max();

 private:
  explicit Deadline(int64_t steady_ns) : ns_(steady_ns) {}

  int64_t ns_ = kInfiniteNs;  // steady-clock nanoseconds since epoch
};

// Cooperative cancellation flag, shareable across threads. Cancel() is
// sticky; there is no un-cancel.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// A deadline, an optional cancel token and a byte-accounting pot with an
// optional budget, polled by long-running loops. One context belongs to
// one thread (Check() keeps unsynchronized stride and latch state); other
// threads observe the same bounds and charge the same pot through mirrors
// built with ChildOf, which ParallelFor installs on its workers.
//
// A context built with a parent chains its pot to the parent's: charges
// propagate up the chain (a request's bytes also count against the
// server's pot) and a budget crossed anywhere on the chain stops this
// context too. It also inherits the parent's profile. The deadline and
// cancel token are this context's own.
class ExecContext {
 public:
  // Clock reads are amortized: Check() consults the cancel token every
  // call but the deadline only once per kStride calls.
  static constexpr uint32_t kStride = 64;

  // Unbounded: infinite deadline, no token, no budget (pure accounting).
  ExecContext() : ExecContext(Deadline::Infinite()) {}
  // budget_bytes == 0 means unlimited. `parent` (may be null) receives
  // every charge made against this context, and its budget is also
  // enforced here.
  explicit ExecContext(Deadline deadline, CancelToken* cancel = nullptr,
                       uint64_t budget_bytes = 0,
                       const ExecContext* parent = nullptr);

  // An installed context's address is held thread-locally, so contexts
  // neither copy nor move; ChildOf is how another thread shares one.
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // A mirror of `parent` for another thread: same deadline, token, pot,
  // budget and profile, with a fresh latch; a fresh unbounded context when
  // parent is null. Mirrors record no deadline.slack_ns sample (the
  // parent's own scope does).
  static ExecContext ChildOf(const ExecContext* parent);

  // The context installed on the calling thread, or null.
  static ExecContext* Current();

  const Deadline& deadline() const { return deadline_; }
  CancelToken* cancel_token() const { return cancel_; }

  // The profile recording this query's plan notes, or null
  // (obs::QueryProfile::Begin attaches one). Mirrors and child contexts
  // copy it when they are built, so attach it before the context is
  // shared.
  obs::QueryProfile* profile() const { return profile_; }
  void set_profile(obs::QueryProfile* profile) { profile_ = profile; }

  // Adds `bytes` (negative to release) under `subsystem` to this context's
  // pot and every ancestor's; sets the exceeded flag on any pot whose
  // budget the new total crosses. Thread-safe (mirrors charge
  // concurrently). MemCharge (common/mem.h) calls this on the installed
  // context.
  void Charge(MemSubsystem subsystem, int64_t bytes);

  // Latches resource exhaustion on this context's pot, as a crossed budget
  // does, for an allocation that failed (std::bad_alloc): every context
  // sharing the pot, mirrors included, stops at its next poll, and Check()
  // returns ResourceExhaustedError. Thread-safe. Kernels that catch the
  // failure call this and stop; their Status-returning caller polls.
  void ExhaustMemory();

  uint64_t subsystem_bytes(MemSubsystem subsystem) const;
  uint64_t peak_subsystem_bytes(MemSubsystem subsystem) const;
  uint64_t total_bytes() const;
  uint64_t peak_total_bytes() const;
  uint64_t budget_bytes() const { return pot_->budget_bytes; }
  // This context's own budget (not the chain's).
  bool has_budget() const { return pot_->budget_bytes != 0; }

  // True once any budget on the pot chain has been crossed (sticky).
  bool exceeded() const;

  // Cooperative poll. Returns Ok, ResourceExhaustedError, CancelledError
  // or DeadlineExceededError, in that order of precedence. A non-OK
  // verdict latches for the context's lifetime, except that a crossed
  // budget overrides a latched deadline or cancellation (memory is the
  // actionable cause). Bumps mem.budget_exceeded / deadline.cancelled /
  // deadline.expired once per context for the verdict it latches.
  Status Check();

  // True once Check() has returned non-OK (no fresh poll).
  bool stopped() const { return stopped_; }

 private:
  friend class ScopedExecContext;

  // One accounting pot, shared by a root context and its mirrors and kept
  // alive by them.
  struct Pot {
    std::array<std::atomic<int64_t>, kMemSubsystemCount> bytes{};
    std::array<std::atomic<int64_t>, kMemSubsystemCount> peak_bytes{};
    std::atomic<int64_t> total{0};
    std::atomic<int64_t> peak_total{0};
    std::atomic<bool> exceeded{false};
    std::atomic<bool> out_of_memory{false};  // set with `exceeded`
    uint64_t budget_bytes = 0;   // 0 = unlimited; set before sharing
    std::shared_ptr<Pot> parent;  // set before sharing
  };

  // Selects the mirror constructor behind ChildOf.
  struct Mirror {};
  ExecContext(const ExecContext& parent, Mirror)
      : deadline_(parent.deadline_),
        cancel_(parent.cancel_),
        pot_(parent.pot_),
        profile_(parent.profile_),
        slack_recorded_(true) {}

  Status Trip(Status status);

  Deadline deadline_;
  CancelToken* cancel_ = nullptr;
  std::shared_ptr<Pot> pot_;
  obs::QueryProfile* profile_ = nullptr;
  uint32_t polls_until_clock_ = 0;  // 0 so the first Check reads the clock
  bool stopped_ = false;
  bool slack_recorded_ = false;
  Status status_;
};

// Installs `ctx` as the calling thread's current context for the scope
// (null = no-op). On destruction restores the previous installation and,
// for a finite-deadline context that finished in time, records the
// remaining slack into the deadline.slack_ns histogram (once per context,
// even if the same context is re-installed per work item).
class ScopedExecContext {
 public:
  explicit ScopedExecContext(ExecContext* ctx);
  ~ScopedExecContext();

  ScopedExecContext(const ScopedExecContext&) = delete;
  ScopedExecContext& operator=(const ScopedExecContext&) = delete;

 private:
  ExecContext* installed_;
  ExecContext* previous_;
};

// Polls the calling thread's installed context; Ok when none is installed.
Status CheckExecContext();

// Convenience for kernels without a Status channel: true once the current
// context has tripped (or trips on this poll). Such kernels stop early and
// leave error reporting to a Status-returning caller polling the same
// context.
inline bool ExecStopRequested() { return !CheckExecContext().ok(); }

}  // namespace rq

#endif  // RQ_COMMON_DEADLINE_H_

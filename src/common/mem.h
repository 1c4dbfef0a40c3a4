// Memory accounting and attribution (docs/OBSERVABILITY.md "Memory
// accounting"; budget semantics in docs/ROBUSTNESS.md).
//
// The paper's constructions are state-blowup algorithms — determinization,
// 2NFA folding, and Vardi complementation are exponential, UC2RPQ expansion
// is worse — so their real-world cost is bytes as much as wall-clock. Hot
// allocation sites charge tagged byte counts through this attribution API;
// the charges land in the accounting pot of the thread's installed
// ExecContext (common/deadline.h), whose optional byte budget latches
// kResourceExhausted through the same CheckExecContext() polls that
// enforce deadlines (so every loop that honors deadlines honors memory
// budgets, and truncated-by-memory constructions are never cached for the
// same reason truncated-by-deadline ones are not), and the obs layer
// surfaces live/peak bytes per subsystem.
//
// Charging discipline:
//  * Transient working memory (subset-construction rows, expansion
//    frontiers, delta relations, BFS bitsets) is charged inside a
//    MemScope(subsystem): MemCharge(bytes) attributes to the innermost
//    scope and the scope releases its net charge on destruction, so the
//    mem.<subsystem>_bytes gauges track live bytes and their peaks record
//    the high-water mark.
//  * Durable memory (cache entries, graph CSR snapshots) outlives any
//    query: MemChargeDurable / MemReleaseDurable move the global gauges
//    only and never count against a query's budget — the bytes were
//    already charged transiently while being built.
//
// Cost model: MemCharge with no context installed is two thread-local
// loads plus the global gauge updates (a handful of relaxed atomics).
// Sites charge per allocation event (a row, a frontier, a relation), never
// per byte, mirroring the flush-per-operation discipline of obs/counters.h.
#ifndef RQ_COMMON_MEM_H_
#define RQ_COMMON_MEM_H_

#include <cstdint>

namespace rq {

// Attribution tags for byte charges. One gauge pair (live + peak) exists
// per subsystem: mem.<name>_bytes.
enum class MemSubsystem : uint8_t {
  kAutomata = 0,  // NFA determinization subset rows, product construction
  kFold,          // 2NFA -> NFA fold state vectors and transition tables
  kComplement,    // Vardi complement subset interning
  kRq,            // RQ/UC2RPQ expansion frontiers
  kDatalog,       // Datalog fact stores and delta relations
  kGraph,         // CSR snapshots and product-BFS bitsets/frontiers
  kCache,         // automata cache entries (durable)
  kIncr,          // incrementally maintained closures (relational/incremental.h)
  kOther,         // charges outside any MemScope
};
inline constexpr int kMemSubsystemCount = 9;

// "automata", "fold", ... (the <name> in mem.<name>_bytes).
const char* MemSubsystemName(MemSubsystem subsystem);

// Attribution scope for transient working memory. While alive, MemCharge()
// on this thread attributes to `subsystem`; on destruction the scope
// releases whatever net charge flowed through it, returning the live
// gauges (and the installed context) to their prior level while leaving
// all peaks intact. Scopes nest; the innermost wins.
class MemScope {
 public:
  explicit MemScope(MemSubsystem subsystem);
  ~MemScope();

  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

  MemSubsystem subsystem() const { return subsystem_; }
  // Net bytes charged through this scope so far.
  int64_t net_bytes() const { return net_; }

 private:
  friend void MemCharge(int64_t);

  MemSubsystem subsystem_;
  MemScope* previous_;  // enclosing scope on this thread, or null
  int64_t net_ = 0;
};

// Charges `bytes` (negative to release) against the innermost MemScope's
// subsystem (kOther with no scope, and then nothing auto-releases — prefer
// a scope or the durable API). Updates the pot chain of the thread's
// installed ExecContext and the global mem.* gauges/histogram.
void MemCharge(int64_t bytes);

// Charges/releases process-lifetime memory (cache entries, snapshots):
// global gauges only — never scoped, never against a query budget.
void MemChargeDurable(MemSubsystem subsystem, int64_t bytes);
inline void MemReleaseDurable(MemSubsystem subsystem, int64_t bytes) {
  MemChargeDurable(subsystem, -bytes);
}

}  // namespace rq

#endif  // RQ_COMMON_MEM_H_

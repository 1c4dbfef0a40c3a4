#include "common/mem.h"

#include <cstddef>

#include "common/deadline.h"
#include "obs/mem_stats.h"

namespace rq {
namespace {

thread_local MemScope* g_current_mem_scope = nullptr;

// The shared tail of MemCharge / MemScope release / MemChargeDurable:
// moves the installed context's pot chain (unless the charge is durable)
// and the global gauges. Scope net tracking stays in the callers — a
// scope's own release must not flow into the enclosing scope's net.
void ApplyCharge(MemSubsystem subsystem, int64_t bytes, bool durable) {
  if (!durable) {
    if (ExecContext* ctx = ExecContext::Current(); ctx != nullptr) {
      ctx->Charge(subsystem, bytes);
    }
  }
  obs::MemStats& stats = obs::MemStats::Get();
  stats.subsystem_bytes[static_cast<size_t>(subsystem)]->Add(bytes);
  stats.tracked_bytes.Add(bytes);
  if (bytes > 0) stats.alloc_bytes.Record(static_cast<uint64_t>(bytes));
  obs::MaybeRecordMemTimelineSample();
}

}  // namespace

const char* MemSubsystemName(MemSubsystem subsystem) {
  switch (subsystem) {
    case MemSubsystem::kAutomata:
      return "automata";
    case MemSubsystem::kFold:
      return "fold";
    case MemSubsystem::kComplement:
      return "complement";
    case MemSubsystem::kRq:
      return "rq";
    case MemSubsystem::kDatalog:
      return "datalog";
    case MemSubsystem::kGraph:
      return "graph";
    case MemSubsystem::kCache:
      return "cache";
    case MemSubsystem::kIncr:
      return "incr";
    case MemSubsystem::kOther:
      return "other";
  }
  return "other";
}

MemScope::MemScope(MemSubsystem subsystem)
    : subsystem_(subsystem), previous_(g_current_mem_scope) {
  g_current_mem_scope = this;
}

MemScope::~MemScope() {
  g_current_mem_scope = previous_;
  // Release the scope's net charge directly — not through MemCharge, which
  // would book the release against the (now innermost) enclosing scope.
  if (net_ != 0) ApplyCharge(subsystem_, -net_, /*durable=*/false);
}

void MemCharge(int64_t bytes) {
  if (bytes == 0) return;
  MemScope* scope = g_current_mem_scope;
  MemSubsystem subsystem =
      scope != nullptr ? scope->subsystem_ : MemSubsystem::kOther;
  if (scope != nullptr) scope->net_ += bytes;
  ApplyCharge(subsystem, bytes, /*durable=*/false);
}

void MemChargeDurable(MemSubsystem subsystem, int64_t bytes) {
  if (bytes == 0) return;
  ApplyCharge(subsystem, bytes, /*durable=*/true);
}

}  // namespace rq

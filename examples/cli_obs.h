// Observability plumbing shared by the rqcheck and rqeval command-line
// tools: their eleven common flags, @file arguments, the one ExecContext a
// query runs under (deadline, byte budget and attached profile), and the
// output writers. Each tool keeps its own positional arguments, usage text
// and exit codes.
//
// Common flags, each valued one as `--flag value` or `--flag=value`:
//   --trace               print the span tree of the query (plus non-zero
//                         counters, gauges and histograms and any
//                         dropped-span count) to stderr
//   --profile             print an EXPLAIN ANALYZE-style per-query report
//                         (plan notes, counters, distributions, gauge
//                         levels, memory peaks) after the answer
//   --profile-json P      write the same report as JSON (rq-profile/2)
//   --stats-json P        write the observability snapshot (counters,
//                         gauges, histograms, spans; rq-obs/2)
//   --chrome-trace P      write the spans as Chrome trace-event JSON
//                         (Perfetto; one lane per recording thread, so
//                         one per pool thread with --jobs N)
//   --flight-dump P       write the flight recorder's ring of completed
//                         queries plus the slow-query log ("-" = stderr);
//                         the ring also dumps to stderr from the
//                         fatal-signal handler
//   --prometheus P        write every counter, gauge and histogram in
//                         Prometheus text exposition format
//   --cache               enable the content-addressed automata/verdict
//                         cache (docs/CACHING.md)
//   --jobs N              the process-wide worker count
//   --timeout-ms N        wall-clock budget for the query: expiry fails
//                         with DeadlineExceeded instead of hanging and
//                         bumps deadline.expired (docs/ROBUSTNESS.md)
//   --memory-budget-mb N  byte budget for the query: crossing it fails
//                         with ResourceExhausted (exit 4, not a crash)
//                         through the same polling sites as --timeout-ms
//                         and bumps mem.budget_exceeded. The query always
//                         runs under an ExecContext, so --profile reports
//                         a per-subsystem peak-byte breakdown either way
#ifndef RQ_EXAMPLES_CLI_OBS_H_
#define RQ_EXAMPLES_CLI_OBS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/automata_cache.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "obs/chrome_trace.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "obs/prometheus.h"
#include "obs/trace.h"

namespace rq {
namespace cli {

// Exit code of a query whose byte budget tripped, for both tools.
inline constexpr int kMemoryBudgetExit = 4;

// The common flags, as a usage line shows them.
inline constexpr char kFlagsUsage[] =
    "[--trace] [--profile] [--profile-json <path>] [--stats-json <path>] "
    "[--chrome-trace <path>] [--flight-dump <path>] [--prometheus <path>] "
    "[--cache] [--jobs N] [--timeout-ms N] [--memory-budget-mb N]";

struct ObsFlags {
  bool trace = false;
  bool profile_text = false;
  std::string profile_json;
  std::string stats_json;
  std::string chrome_trace;
  std::string flight_dump;
  std::string prometheus;
  int64_t timeout_ms = 0;
  int64_t memory_budget_mb = 0;
};

// Parses the common flags into `flags` and returns the other arguments in
// order. --cache and --jobs take effect here, on the process-wide cache
// and default job count.
inline std::vector<std::string> ParseObsFlags(int argc, char** argv,
                                              ObsFlags* flags) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // True when `arg` is `--name value` (consuming the value) or
    // `--name=value`, storing the value in *out.
    auto valued = [&](const std::string& name, std::string* out) {
      if (arg == name && i + 1 < argc) {
        *out = argv[++i];
        return true;
      }
      if (arg.rfind(name + "=", 0) != 0) return false;
      *out = arg.substr(name.size() + 1);
      return true;
    };
    std::string number;
    if (arg == "--trace") {
      flags->trace = true;
    } else if (arg == "--profile") {
      flags->profile_text = true;
    } else if (arg == "--cache") {
      cache::AutomataCache::Global().SetEnabled(true);
    } else if (valued("--profile-json", &flags->profile_json) ||
               valued("--stats-json", &flags->stats_json) ||
               valued("--chrome-trace", &flags->chrome_trace) ||
               valued("--flight-dump", &flags->flight_dump) ||
               valued("--prometheus", &flags->prometheus)) {
    } else if (valued("--jobs", &number)) {
      SetDefaultParallelJobs(
          static_cast<unsigned>(std::strtoul(number.c_str(), nullptr, 10)));
    } else if (valued("--timeout-ms", &number)) {
      flags->timeout_ms = std::strtoll(number.c_str(), nullptr, 10);
    } else if (valued("--memory-budget-mb", &number)) {
      flags->memory_budget_mb = std::strtoll(number.c_str(), nullptr, 10);
    } else {
      positional.push_back(std::move(arg));
    }
  }
  return positional;
}

// A query argument: the text itself, or the contents of the file after '@'.
inline std::string LoadArg(const std::string& arg) {
  if (arg.empty() || arg[0] != '@') return arg;
  std::ifstream in(arg.substr(1));
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// What the outputs say about one query.
struct QueryLabel {
  const char* tool;           // "rqcheck"; also the stderr message prefix
  std::string query_class;    // the profile's class
  std::string query_text;     // the profile's query line
  std::string flight_label;   // the flight recorder's slow-query label
  int error_exit;             // the tool's exit code for an error
};

// Runs `body`, which answers the query and returns the tool's exit code,
// under one ExecContext with the flags' deadline and byte budget and, with
// --profile or --profile-json, the query's profile attached. Then writes
// every output the flags ask for. A body that returns `error_exit` after
// the budget tripped exits kMemoryBudgetExit; an output that cannot be
// written exits `error_exit`.
template <typename Body>
int RunObserved(const ObsFlags& flags, const QueryLabel& label, Body body) {
  auto fail = [&label](const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", label.tool, message.c_str());
    return label.error_exit;
  };
  // Full tracing when any flag needs span data; counters always run.
  if (flags.trace || !flags.stats_json.empty() ||
      !flags.chrome_trace.empty()) {
    obs::SetTraceMode(obs::TraceMode::kFull);
  }
  obs::InstallFlightSignalHandler();
  obs::SetFlightQueryLabel(label.flight_label);

  // The query always runs under a context (budget 0 = unlimited), so the
  // per-subsystem peak-byte breakdown lands in --profile output and the
  // flight recorder's mem_peak field even without a budget.
  ExecContext ctx(flags.timeout_ms > 0 ? Deadline::AfterMillis(flags.timeout_ms)
                                       : Deadline::Infinite(),
                  /*cancel=*/nullptr,
                  flags.memory_budget_mb > 0
                      ? static_cast<uint64_t>(flags.memory_budget_mb) << 20
                      : 0);
  obs::QueryProfile profile;
  const bool profiling = flags.profile_text || !flags.profile_json.empty();
  if (profiling) {
    profile.Begin(label.tool, label.query_class, label.query_text, &ctx);
  }
  int code;
  {
    // Scope the context to the query itself so the outputs below never
    // run under an expired deadline.
    ScopedExecContext scoped(&ctx);
    code = body();
  }
  // exceeded() reads the shared pot, so trips latched on worker mirrors
  // count too.
  if (code == label.error_exit && ctx.exceeded()) code = kMemoryBudgetExit;

  if (profiling) {
    profile.End();
    if (flags.profile_text) std::fputs(profile.ToText().c_str(), stdout);
    if (!flags.profile_json.empty()) {
      Status status = obs::WriteTextFile(flags.profile_json,
                                         profile.ToJson().Dump(2) + "\n");
      if (!status.ok()) return fail(status.ToString());
    }
  }
  if (flags.trace) obs::PrintSpanTree(stderr);
  const std::pair<const std::string&, Status (*)(const std::string&)>
      writers[] = {{flags.stats_json, obs::WriteSnapshotJsonFile},
                   {flags.chrome_trace, obs::WriteChromeTraceFile},
                   {flags.flight_dump, obs::WriteFlightDump},
                   {flags.prometheus, obs::WritePrometheusTextFile}};
  for (const auto& [path, write] : writers) {
    if (path.empty()) continue;
    Status status = write(path);
    if (!status.ok()) return fail(status.ToString());
  }
  return code;
}

}  // namespace cli
}  // namespace rq

#endif  // RQ_EXAMPLES_CLI_OBS_H_

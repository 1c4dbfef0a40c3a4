// Closed-loop mixed read/write benchmark for live graph mutations
// (docs/SERVING.md "Updates"): an in-process QueryServer on a loopback
// port, W writer clients streaming `update` batches while R reader clients
// issue closure-shaped (`knows+`, served from the incrementally maintained
// per-label closure) and plain path evals against the versioned store.
// Every client waits for each answer before sending the next request, so
// the numbers are service throughput under contention, not queueing
// artifacts.
//
// Reported per benchmark (user counters in the rq-bench/1 JSON):
//   mutation_throughput / mutations_per_s   update batches applied per
//                                           second (the suite headline)
//   reads_per_s                             eval answers per second
//   edges_per_s                             individual edges inserted/s
//   write_p99_us                            p99 wall latency of one batch
//                                           (admission + apply + republish)
//
// BM_ApplyBatch times one GraphStore::Apply in process, with no maintained
// closure: the ops and the republish, on a SocialNetwork graph of ~1.3k or
// ~80k nodes, for a batch of 8 edges among existing people and for one
// whose 8 edges each come from a new person.
//
// Writers append fresh spoke nodes onto a small core cycle, so each
// insert's incremental delta product stays small and bounded — the
// workload measures sustained mutation throughput, not closure blowup.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_db.h"
#include "obs/json.h"
#include "server/client.h"
#include "server/graph_store.h"
#include "server/server.h"

namespace {

using rq::GraphDb;
using rq::server::BlockingClient;
using rq::server::GraphStore;
using rq::server::UpdateOp;
using rq::server::QueryServer;
using rq::server::ServerOptions;

constexpr char kHost[] = "127.0.0.1";
constexpr int kBatchesPerWriterPerRound = 8;
constexpr int kEdgesPerBatch = 4;
constexpr int kEvalsPerReaderPerRound = 8;

rq::obs::JsonValue UpdateBatch(int64_t id, int writer, uint64_t serial) {
  using rq::obs::JsonValue;
  JsonValue request = JsonValue::Object();
  request.Set("type", JsonValue::String("update"));
  request.Set("id", JsonValue::Number(id));
  JsonValue ops = JsonValue::Array();
  for (int i = 0; i < kEdgesPerBatch; ++i) {
    // Fresh spoke node -> core: preds*(spoke) = {spoke}, so the
    // incremental delta product is O(|succ*(core)|), independent of how
    // long the run has been going.
    JsonValue op = JsonValue::Object();
    op.Set("op", JsonValue::String("add_edge"));
    op.Set("src", JsonValue::String("w" + std::to_string(writer) + "s" +
                                    std::to_string(serial) + "e" +
                                    std::to_string(i)));
    op.Set("label", JsonValue::String("knows"));
    op.Set("dst", JsonValue::String("core"));
    ops.Append(std::move(op));
  }
  request.Set("ops", std::move(ops));
  return request;
}

rq::obs::JsonValue EvalRequest(int64_t id, int variant) {
  using rq::obs::JsonValue;
  JsonValue request = JsonValue::Object();
  request.Set("type", JsonValue::String("eval"));
  request.Set("id", JsonValue::Number(id));
  request.Set("class", JsonValue::String("path"));
  // Alternate the incremental fast path (`knows+`) with a query that runs
  // the product-BFS every time, so both read paths are in the mix.
  request.Set("query", JsonValue::String(variant % 2 == 0 ? "knows+"
                                                          : "knows knows"));
  request.Set("max_tuples", JsonValue::Number(int64_t{1}));
  return request;
}

struct RoundStats {
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> failures{0};
};

void RunWriter(uint16_t port, int writer, uint64_t round,
               std::vector<uint64_t>* latencies_ns, RoundStats* stats) {
  auto client = BlockingClient::Connect(kHost, port);
  if (!client.ok()) {
    stats->failures.fetch_add(1);
    return;
  }
  for (int i = 0; i < kBatchesPerWriterPerRound; ++i) {
    uint64_t serial = round * kBatchesPerWriterPerRound +
                      static_cast<uint64_t>(i);
    auto start = std::chrono::steady_clock::now();
    auto response = client->Call(UpdateBatch(i, writer, serial));
    auto elapsed = std::chrono::steady_clock::now() - start;
    const rq::obs::JsonValue* ok =
        response.ok() ? response->Find("ok") : nullptr;
    if (ok == nullptr || !ok->bool_value()) {
      stats->failures.fetch_add(1);
      continue;
    }
    (*latencies_ns)[static_cast<size_t>(writer) * kBatchesPerWriterPerRound +
                    static_cast<size_t>(i)] =
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count());
    stats->batches.fetch_add(1);
  }
}

void RunReader(uint16_t port, int reader, RoundStats* stats) {
  auto client = BlockingClient::Connect(kHost, port);
  if (!client.ok()) {
    stats->failures.fetch_add(1);
    return;
  }
  for (int i = 0; i < kEvalsPerReaderPerRound; ++i) {
    auto response = client->Call(EvalRequest(i, reader + i));
    const rq::obs::JsonValue* ok =
        response.ok() ? response->Find("ok") : nullptr;
    if (ok == nullptr || !ok->bool_value()) {
      stats->failures.fetch_add(1);
      continue;
    }
    stats->reads.fetch_add(1);
  }
}

double PercentileUs(std::vector<uint64_t> sorted_ns, double q) {
  sorted_ns.erase(std::remove(sorted_ns.begin(), sorted_ns.end(), 0),
                  sorted_ns.end());
  if (sorted_ns.empty()) return 0.0;
  std::sort(sorted_ns.begin(), sorted_ns.end());
  size_t index = static_cast<size_t>(q * static_cast<double>(
                                             sorted_ns.size() - 1));
  return static_cast<double>(sorted_ns[index]) / 1000.0;
}

void RunMutationRounds(benchmark::State& state, int writers, int readers,
                       size_t incr_delta_budget) {
  auto graph = GraphDb::FromText(
      "core knows c1\nc1 knows c2\nc2 knows core\n");
  if (!graph.ok()) {
    state.SkipWithError("graph parse failed");
    return;
  }
  ServerOptions options;
  options.graph = &*graph;
  options.workers = 4;
  options.max_queue_depth = 4096;
  options.incr_delta_budget = incr_delta_budget;
  QueryServer server(options);
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }

  // Seed the incremental closure so writer batches maintain it from
  // deltas (the first closure-shaped eval promotes the label).
  {
    auto seeder = BlockingClient::Connect(kHost, server.port());
    if (!seeder.ok() || !seeder->Call(EvalRequest(0, 0)).ok()) {
      state.SkipWithError("closure seeding failed");
      return;
    }
  }

  uint64_t total_batches = 0;
  uint64_t total_reads = 0;
  int total_failures = 0;
  std::vector<uint64_t> all_write_latencies_ns;
  uint64_t round = 0;
  for (auto _ : state) {
    RoundStats stats;
    std::vector<uint64_t> write_latencies_ns(
        static_cast<size_t>(writers) * kBatchesPerWriterPerRound, 0);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(writers + readers));
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back(RunWriter, server.port(), w, round,
                           &write_latencies_ns, &stats);
    }
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back(RunReader, server.port(), r, &stats);
    }
    for (std::thread& t : threads) t.join();
    state.PauseTiming();
    total_batches += stats.batches.load();
    total_reads += stats.reads.load();
    total_failures += stats.failures.load();
    all_write_latencies_ns.insert(all_write_latencies_ns.end(),
                                  write_latencies_ns.begin(),
                                  write_latencies_ns.end());
    ++round;
    state.ResumeTiming();
  }
  server.DrainAndWait();

  if (total_failures > 0) {
    state.SkipWithError("requests failed outright");
    return;
  }
  state.counters["mutations_per_s"] = benchmark::Counter(
      static_cast<double>(total_batches), benchmark::Counter::kIsRate);
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(total_batches * kEdgesPerBatch),
      benchmark::Counter::kIsRate);
  state.counters["reads_per_s"] = benchmark::Counter(
      static_cast<double>(total_reads), benchmark::Counter::kIsRate);
  state.counters["write_p99_us"] = PercentileUs(all_write_latencies_ns, 0.99);
}

// The headline sweep: a fixed reader population with a growing writer
// population, incremental maintenance on (default delta budget).
void BM_GraphMutationMixed(benchmark::State& state) {
  RunMutationRounds(state, /*writers=*/static_cast<int>(state.range(0)),
                    /*readers=*/4, /*incr_delta_budget=*/1u << 20);
}
BENCHMARK(BM_GraphMutationMixed)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("writers")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Same mix with a delta budget of 1: every maintained insert demotes its
// label, so reads pay the full product-BFS and re-seed each epoch — the
// cost of serving without incremental maintenance, for comparison.
void BM_GraphMutationFallback(benchmark::State& state) {
  RunMutationRounds(state, /*writers=*/2, /*readers=*/4,
                    /*incr_delta_budget=*/1);
}
BENCHMARK(BM_GraphMutationFallback)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Args: people (the graph has ~2.1 nodes per person, as rqbench's four
// 150-person components have 1,264 in all) and new_nodes (0: the batch's
// edges join existing nodes; 1: each edge comes from a new person). The
// store reloads, untimed, every kBatchPool batches, so the graph never
// grows by more than that many batches.
void BM_ApplyBatch(benchmark::State& state) {
  constexpr size_t kBatchPool = 256;
  constexpr int kEdges = 8;
  const size_t people = static_cast<size_t>(state.range(0));
  const bool new_nodes = state.range(1) != 0;
  // Through text, so the nodes are named as in a graph rqserved loads.
  auto graph = GraphDb::FromText(
      rq::SocialNetwork(people, people * 16 / 150, people, /*seed=*/1)
          .ToText());
  if (!graph.ok()) {
    state.SkipWithError("graph parse failed");
    return;
  }
  rq::Rng rng(7);
  auto person = [&] {
    return graph->NodeName(static_cast<rq::NodeId>(rng.Below(people)));
  };
  std::vector<std::vector<UpdateOp>> batches(kBatchPool);
  for (size_t b = 0; b < kBatchPool; ++b) {
    for (int e = 0; e < kEdges; ++e) {
      UpdateOp op;
      op.kind = UpdateOp::Kind::kAddEdge;
      op.src = new_nodes ? "new" + std::to_string(b) + "_" + std::to_string(e)
                         : person();
      op.label = "knows";
      op.dst = person();
      batches[b].push_back(std::move(op));
    }
  }
  GraphStore store;
  size_t next = kBatchPool;
  for (auto _ : state) {
    if (next == kBatchPool) {
      state.PauseTiming();
      store.Load(*graph);
      next = 0;
      state.ResumeTiming();
    }
    if (!store.Apply(batches[next++]).ok()) {
      state.SkipWithError("apply failed");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ApplyBatch)
    ->Args({600, 0})
    ->Args({600, 1})
    ->Args({38000, 0})
    ->Args({38000, 1})
    ->ArgNames({"people", "new_nodes"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

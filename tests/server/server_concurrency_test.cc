// Concurrency stress tests for the query service, built to run under
// ThreadSanitizer (ctest label tsan-server): ≥64 simultaneous client
// connections with mixed request classes, load shedding under a saturated
// worker pool where every request still gets exactly one answer, and a
// drain racing live clients. The assertions are about completeness (every
// request answered once, ids echoed) — tsan supplies the race detection.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_db.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "server/client.h"
#include "server/server.h"

namespace rq {
namespace server {
namespace {

constexpr char kHost[] = "127.0.0.1";

obs::JsonValue Req(const char* type, int64_t id) {
  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("type", obs::JsonValue::String(type));
  request.Set("id", obs::JsonValue::Number(id));
  return request;
}

std::string ErrorCode(const obs::JsonValue& response) {
  const obs::JsonValue* error = response.Find("error");
  return error == nullptr ? "" : error->string_value();
}

// Polls the server until `predicate` holds (or ~2s elapse).
template <typename Predicate>
bool WaitFor(Predicate predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// One client's workload: a rotation over the request classes, each Call()
// strictly matched on its echoed id.
void MixedWorkload(uint16_t port, int64_t client_index, int requests,
                   std::atomic<int>* answered, std::atomic<int>* failures) {
  auto client = BlockingClient::Connect(kHost, port);
  if (!client.ok()) {
    failures->fetch_add(requests);
    return;
  }
  for (int i = 0; i < requests; ++i) {
    int64_t id = client_index * 1000 + i;
    obs::JsonValue request;
    switch (i % 4) {
      case 0: {
        request = Req("containment", id);
        request.Set("class", obs::JsonValue::String("rpq"));
        request.Set("q1", obs::JsonValue::String("a a* b"));
        request.Set("q2", obs::JsonValue::String("a* b"));
        break;
      }
      case 1: {
        request = Req("eval", id);
        request.Set("class", obs::JsonValue::String("path"));
        request.Set("query", obs::JsonValue::String("knows+"));
        break;
      }
      case 2: {
        request = Req("equivalence", id);
        request.Set("class", obs::JsonValue::String("rpq"));
        request.Set("q1", obs::JsonValue::String("a|b"));
        request.Set("q2", obs::JsonValue::String("b|a"));
        break;
      }
      default:
        request = Req("health", id);
        break;
    }
    auto response = client->Call(request);
    if (!response.ok() || response->Find("id") == nullptr ||
        response->Find("id")->number_value() != id) {
      failures->fetch_add(1);
      continue;
    }
    const obs::JsonValue* ok = response->Find("ok");
    if (ok == nullptr || !ok->bool_value()) {
      failures->fetch_add(1);
      continue;
    }
    answered->fetch_add(1);
  }
}

TEST(ServerConcurrencyTest, Sustains64ConcurrentConnections) {
  constexpr int kClients = 64;
  constexpr int kRequestsPerClient = 8;

  auto graph = GraphDb::FromText("a knows b\nb knows c\nc knows a\n");
  ASSERT_TRUE(graph.ok());
  ServerOptions options;
  options.graph = &*graph;
  options.workers = 4;
  options.max_connections = 2 * kClients;
  options.max_queue_depth = 4096;  // completeness run: shed nothing
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> answered{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int64_t c = 0; c < kClients; ++c) {
    clients.emplace_back(MixedWorkload, server.port(), c, kRequestsPerClient,
                         &answered, &failures);
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(answered.load(), kClients * kRequestsPerClient);
  // The clients have closed their sockets, but the server's reader threads
  // see the closes asynchronously.
  WaitFor([&] { return server.active_connections() == 0; });
  EXPECT_EQ(server.active_connections(), 0u);
  server.DrainAndWait();
}

TEST(ServerConcurrencyTest, ShedsUnderLoadButAnswersEveryRequest) {
  constexpr int kClients = 32;
  constexpr int kRequestsPerClient = 4;

  obs::CounterDelta delta;
  ServerOptions options;
  options.workers = 1;
  options.max_queue_depth = 2;  // force shedding under this fan-in
  options.enable_sleep = true;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = BlockingClient::Connect(kHost, server.port());
      if (!client.ok()) {
        failures.fetch_add(kRequestsPerClient);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        int64_t id = c * 1000 + i;
        obs::JsonValue request = Req("sleep", id);
        request.Set("sleep_ms", obs::JsonValue::Number(int64_t{5}));
        auto response = client->Call(request);
        if (!response.ok() ||
            response->Find("id")->number_value() != id) {
          failures.fetch_add(1);
          continue;
        }
        if (response->Find("ok")->bool_value()) {
          served.fetch_add(1);
        } else if (ErrorCode(*response) == "overloaded") {
          shed.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Load shedding is not allowed to lose requests: every one of them came
  // back as either a result or an `overloaded` rejection.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(served.load() + shed.load(), kClients * kRequestsPerClient);
  EXPECT_GT(served.load(), 0);
  // With 32 clients against one worker and a queue of 2, some shedding
  // must have happened — that is the whole point of admission control.
  EXPECT_GT(shed.load(), 0);
  EXPECT_EQ(delta.Delta("server.shed"), static_cast<uint64_t>(shed.load()));
  server.DrainAndWait();
}

TEST(ServerConcurrencyTest, DrainRacesLiveClients) {
  constexpr int kClients = 16;

  ServerOptions options;
  options.workers = 2;
  options.enable_sleep = true;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();

  std::atomic<int> clean{0};      // ok / draining / overloaded responses
  std::atomic<int> torn_down{0};  // connection errors once drain completes
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = BlockingClient::Connect(kHost, port);
      if (!client.ok()) {
        torn_down.fetch_add(1);
        return;
      }
      for (int64_t i = 0; !stop.load(); ++i) {
        obs::JsonValue request = Req("sleep", c * 100000 + i);
        request.Set("sleep_ms", obs::JsonValue::Number(int64_t{2}));
        auto response = client->Call(request);
        if (!response.ok()) {
          // Drain closed the connection under us — a clean outcome, but
          // retrying is pointless.
          torn_down.fetch_add(1);
          return;
        }
        std::string code = ErrorCode(*response);
        if (response->Find("ok")->bool_value() || code == "draining" ||
            code == "overloaded") {
          clean.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected response: " << response->Dump();
          return;
        }
      }
    });
  }

  // Let the fleet get some traffic through, then drain mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.BeginDrain();
  server.Wait();
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_GT(clean.load(), 0);
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(server.inflight_requests(), 0u);
}

}  // namespace
}  // namespace server
}  // namespace rq

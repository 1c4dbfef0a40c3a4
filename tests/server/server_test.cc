// End-to-end tests of the in-process query service (docs/SERVING.md):
// request dispatch across every class, admission control (bounded queue
// shedding), graceful drain with in-flight completion, and the HTTP
// /metrics surface on the same listener. All networking is loopback TCP on
// ephemeral ports, so the binary is hermetic.
#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "graph/graph_db.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "server/client.h"
#include "server/handlers.h"
#include "server/protocol.h"

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

GraphDb TriangleGraph() {
  auto graph = GraphDb::FromText("a knows b\nb knows c\nc knows a\n");
  return std::move(graph).value();
}

TEST(QueryServerTest, ServesEveryRequestClass) {
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  options.workers = 2;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  // health: answered inline by the reader thread.
  auto health = client->Call(Req("health", 1));
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->Find("ok")->bool_value());
  EXPECT_EQ(health->Find("state")->string_value(), "serving");
  EXPECT_EQ(health->Find("id")->number_value(), 1);

  // containment, both verdicts.
  obs::JsonValue contained = Req("containment", 2);
  contained.Set("class", obs::JsonValue::String("rpq"));
  contained.Set("q1", obs::JsonValue::String("a a* b"));
  contained.Set("q2", obs::JsonValue::String("a* b"));
  auto verdict = client->Call(contained);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->Find("ok")->bool_value());
  EXPECT_EQ(verdict->Find("verdict")->string_value(), "proved");

  obs::JsonValue refuted = Req("containment", 3);
  refuted.Set("class", obs::JsonValue::String("rpq"));
  refuted.Set("q1", obs::JsonValue::String("a*"));
  refuted.Set("q2", obs::JsonValue::String("a"));
  verdict = client->Call(refuted);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->Find("verdict")->string_value(), "refuted");
  EXPECT_NE(verdict->Find("counterexample_word"), nullptr);

  // equivalence via the two-direction batch.
  obs::JsonValue equiv = Req("equivalence", 4);
  equiv.Set("class", obs::JsonValue::String("rpq"));
  equiv.Set("q1", obs::JsonValue::String("a|b"));
  equiv.Set("q2", obs::JsonValue::String("b|a"));
  verdict = client->Call(equiv);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->Find("verdict")->string_value(), "equivalent");

  // eval against the preloaded graph.
  obs::JsonValue eval = Req("eval", 5);
  eval.Set("class", obs::JsonValue::String("path"));
  eval.Set("query", obs::JsonValue::String("knows knows"));
  auto answers = client->Call(eval);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->Find("ok")->bool_value());
  EXPECT_EQ(answers->Find("count")->number_value(), 3);

  // eval with an inline graph overriding the preloaded one.
  obs::JsonValue inline_eval = Req("eval", 6);
  inline_eval.Set("class", obs::JsonValue::String("path"));
  inline_eval.Set("query", obs::JsonValue::String("e"));
  inline_eval.Set("graph", obs::JsonValue::String("x e y\n"));
  answers = client->Call(inline_eval);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->Find("count")->number_value(), 1);

  // stats: the rq-obs/2 snapshot rides along.
  auto stats = client->Call(Req("stats", 7));
  ASSERT_TRUE(stats.ok());
  ASSERT_NE(stats->Find("stats"), nullptr);
  EXPECT_EQ(stats->Find("stats")->Find("schema")->string_value(), "rq-obs/2");

  server.DrainAndWait();
}

TEST(QueryServerTest, AnswerSetsAreCappedAtMaxTuples) {
  ServerOptions options;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue eval = Req("eval", 1);
  eval.Set("class", obs::JsonValue::String("path"));
  eval.Set("query", obs::JsonValue::String("e*"));
  eval.Set("graph",
           obs::JsonValue::String("a e b\nb e c\nc e d\nd e f\n"));
  eval.Set("max_tuples", obs::JsonValue::Number(int64_t{3}));
  auto answers = client->Call(eval);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->Find("tuples")->items().size(), 3u);
  EXPECT_TRUE(answers->Find("truncated")->bool_value());
  EXPECT_GT(answers->Find("count")->number_value(), 3);

  server.DrainAndWait();
}

TEST(QueryServerTest, MalformedFramesGetInvalidRequestResponses) {
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue bogus = obs::JsonValue::Object();
  bogus.Set("type", obs::JsonValue::String("no-such-type"));
  auto response = client->Call(bogus);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->Find("ok")->bool_value());
  EXPECT_EQ(ErrorCode(*response), "invalid_request");

  // A parse error inside a query text also maps to invalid_request.
  obs::JsonValue bad_regex = Req("containment", 2);
  bad_regex.Set("class", obs::JsonValue::String("rpq"));
  bad_regex.Set("q1", obs::JsonValue::String("(("));
  bad_regex.Set("q2", obs::JsonValue::String("a"));
  response = client->Call(bad_regex);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "invalid_request");

  server.DrainAndWait();
}

TEST(QueryServerTest, PerRequestTimeoutTripsDeadline) {
  ServerOptions options;
  options.enable_sleep = true;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue sleep = Req("sleep", 1);
  sleep.Set("sleep_ms", obs::JsonValue::Number(int64_t{5000}));
  sleep.Set("timeout_ms", obs::JsonValue::Number(int64_t{30}));
  auto response = client->Call(sleep);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "deadline_exceeded");

  server.DrainAndWait();
}

TEST(QueryServerTest, ServerCapClipsRequestedTimeout) {
  ServerOptions options;
  options.enable_sleep = true;
  options.max_timeout_ms = 30;  // requests may not exceed this
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue sleep = Req("sleep", 1);
  sleep.Set("sleep_ms", obs::JsonValue::Number(int64_t{60000}));
  sleep.Set("timeout_ms", obs::JsonValue::Number(int64_t{600000}));
  auto response = client->Call(sleep);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "deadline_exceeded");

  server.DrainAndWait();
}

TEST(QueryServerTest, SleepRequestsAreRejectedUnlessEnabled) {
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue sleep = Req("sleep", 1);
  sleep.Set("sleep_ms", obs::JsonValue::Number(int64_t{1}));
  auto response = client->Call(sleep);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "invalid_request");

  server.DrainAndWait();
}

TEST(QueryServerTest, BoundedQueueShedsInsteadOfBuffering) {
  obs::CounterDelta delta;
  ServerOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.enable_sleep = true;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto busy = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(busy.ok());
  obs::JsonValue sleep = Req("sleep", 1);
  sleep.Set("sleep_ms", obs::JsonValue::Number(int64_t{2000}));
  ASSERT_TRUE(busy->Send(sleep).ok());
  // One request occupies the single worker, one more fills the queue.
  ASSERT_TRUE(WaitFor([&] { return server.inflight_requests() == 1; }));
  obs::JsonValue queued = Req("sleep", 2);
  queued.Set("sleep_ms", obs::JsonValue::Number(int64_t{1}));
  ASSERT_TRUE(busy->Send(queued).ok());
  ASSERT_TRUE(WaitFor([&] { return server.queue_depth() == 1; }));

  // The next request must be shed with `overloaded`, not buffered.
  auto extra = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(extra.ok());
  obs::JsonValue shed_me = Req("sleep", 3);
  shed_me.Set("sleep_ms", obs::JsonValue::Number(int64_t{1}));
  auto response = extra->Call(shed_me);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "overloaded");
  EXPECT_GE(delta.Delta("server.shed"), 1u);

  server.Stop();  // cancels the in-flight sleep
}

TEST(QueryServerTest, DrainCompletesInflightAndRefusesLateWork) {
  obs::CounterDelta delta;
  ServerOptions options;
  options.workers = 1;
  options.enable_sleep = true;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();

  auto client = BlockingClient::Connect(kHost, port);
  ASSERT_TRUE(client.ok());
  obs::JsonValue inflight = Req("sleep", 1);
  inflight.Set("sleep_ms", obs::JsonValue::Number(int64_t{200}));
  ASSERT_TRUE(client->Send(inflight).ok());
  ASSERT_TRUE(WaitFor([&] { return server.inflight_requests() == 1; }));

  server.BeginDrain();
  EXPECT_TRUE(server.draining());

  // A late frame on the existing connection is answered with `draining`.
  ASSERT_TRUE(client->Send(Req("containment", 2)).ok());
  auto late = client->Receive();
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->Find("id")->number_value(), 2);
  EXPECT_EQ(ErrorCode(*late), "draining");

  // Health still answers, reporting the drain.
  ASSERT_TRUE(client->Send(Req("health", 3)).ok());
  auto health = client->Receive();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->Find("state")->string_value(), "draining");

  server.Wait();
  // The in-flight sleep completed during the drain and its response was
  // written before the connection tore down.
  auto response = client->Receive();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Find("id")->number_value(), 1);
  EXPECT_TRUE(response->Find("ok")->bool_value());
  EXPECT_EQ(response->Find("slept_ms")->number_value(), 200);
  EXPECT_GE(delta.Delta("server.drained"), 1u);

  // Fresh connections are refused once the drain began: the connect or
  // the first exchange fails, it never hangs.
  auto refused = BlockingClient::Connect(kHost, port);
  if (refused.ok()) {
    auto answer = refused->Call(Req("health", 4));
    EXPECT_FALSE(answer.ok());
  }
}

TEST(QueryServerTest, MetricsAndHealthzOverHttpOnTheSameListener) {
  obs::CounterDelta delta;
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Generate some framed traffic first so server.* families are non-zero.
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Call(Req("health", 1)).ok());

  auto body = HttpGet(kHost, server.port(), "/metrics");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body->find("# TYPE rq_server_requests counter"),
            std::string::npos);
  EXPECT_NE(body->find("rq_server_active_connections"), std::string::npos);
  EXPECT_NE(body->find("rq_server_request_latency_ns_dist_count"),
            std::string::npos);
  EXPECT_GE(delta.Delta("server.metrics_scrapes"), 1u);

  auto healthz = HttpGet(kHost, server.port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(*healthz, "ok\n");

  EXPECT_FALSE(HttpGet(kHost, server.port(), "/nope").ok());

  server.DrainAndWait();
}

TEST(QueryServerTest, RequestCountersBalance) {
  obs::CounterDelta delta;
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Call(Req("health", i)).ok());
  }
  client->Close();
  server.DrainAndWait();

  EXPECT_EQ(delta.Delta("server.requests"), 5u);
  EXPECT_EQ(delta.Delta("server.responses"), 5u);
  EXPECT_EQ(delta.Delta("server.connections"), 1u);
  EXPECT_EQ(delta.Delta("server.shed"), 0u);
}

std::string Repeat(std::string_view piece, size_t n) {
  std::string out;
  out.reserve(piece.size() * n);
  for (size_t i = 0; i < n; ++i) out.append(piece);
  return out;
}

// A raw loopback connection, for frames no JsonValue can carry: Dump()
// recurses once per nesting level.
int ConnectRaw(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, kHost, &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

Result<obs::JsonValue> CallRaw(int fd, std::string_view payload) {
  RQ_RETURN_IF_ERROR(WriteFrame(fd, payload));
  std::string response;
  bool clean_eof = false;
  RQ_RETURN_IF_ERROR(ReadFrame(fd, &response, &clean_eof));
  if (clean_eof) return InternalError("server closed the connection");
  return obs::JsonValue::Parse(response);
}

// Each of these frames, far below the frame cap, used to overflow a
// thread's stack and kill the process: a 20 KB regex nesting 10,000
// parentheses, 100,000 stacked postfix operators, and a request id nesting
// 100,000 arrays.
TEST(QueryServerTest, DeeplyNestedFramesGetInvalidRequestAndServingGoesOn) {
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  const std::string frames[] = {
      R"({"type":"containment","id":1,"class":"rpq","q1":")" +
          Repeat("(", 10000) + "a" + Repeat(")", 10000) + R"(","q2":"a"})",
      R"({"type":"containment","id":2,"class":"rpq","q1":"a)" +
          Repeat("+?", 100000) + R"(","q2":"a"})",
      R"({"type":"health","id":)" + Repeat("[", 100000) +
          Repeat("]", 100000) + "}",
  };
  for (const std::string& frame : frames) {
    auto response = CallRaw(fd, frame);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->Find("ok")->bool_value());
    EXPECT_EQ(ErrorCode(*response), "invalid_request");
    // The error quotes an excerpt, not the request.
    EXPECT_LT(response->Dump().size(), 300u);
  }
  auto health = CallRaw(fd, R"({"type":"health","id":9})");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->Find("ok")->bool_value());
  EXPECT_EQ(health->Find("id")->number_value(), 9);
  close(fd);
  server.DrainAndWait();
}

// A query that parses but names a 1 MiB identifier the check cannot use
// gets an invalid_request that quotes a short excerpt of the name.
TEST(QueryServerTest, SemanticErrorsQuoteAShortName) {
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  const std::string name(1 << 20, 'n');
  obs::JsonValue goal = Req("containment", 1);
  goal.Set("class", obs::JsonValue::String("datalog"));
  goal.Set("q1", obs::JsonValue::String("p(X) :- e(X, X).\n?- " + name +
                                        "."));
  goal.Set("q2", obs::JsonValue::String("p(X) :- e(X, X).\n?- p."));
  obs::JsonValue head = Req("containment", 2);
  head.Set("class", obs::JsonValue::String("rq"));
  head.Set("q1", obs::JsonValue::String("q(x, " + name + ") := r(x, x)"));
  head.Set("q2", obs::JsonValue::String("q(x, y) := r(x, y)"));
  for (const obs::JsonValue& request : {goal, head}) {
    auto response = client->Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(ErrorCode(*response), "invalid_request");
    const std::string& message = response->Find("message")->string_value();
    EXPECT_LT(message.size(), 200u) << message.substr(0, 300);
  }
  server.DrainAndWait();
}

// An inline-graph eval over a graph whose one label is 100,000 bytes: the
// rq and datalog evaluation errors that name the relation quote a short
// excerpt of it.
TEST(QueryServerTest, EvalErrorsQuoteAShortRelationName) {
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  const std::string label(100'000, 'l');
  obs::JsonValue rq_eval = Req("eval", 1);
  rq_eval.Set("class", obs::JsonValue::String("rq"));
  rq_eval.Set("query", obs::JsonValue::String("q(x) := " + label + "(x)"));
  obs::JsonValue datalog_eval = Req("eval", 2);
  datalog_eval.Set("class", obs::JsonValue::String("datalog"));
  datalog_eval.Set("query",
                   obs::JsonValue::String(label + "(X, Y) :- " + label +
                                          "(Y, X).\n?- " + label + "."));
  for (obs::JsonValue request : {rq_eval, datalog_eval}) {
    request.Set("graph", obs::JsonValue::String("a " + label + " b\n"));
    auto response = client->Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(ErrorCode(*response), "invalid_request");
    const std::string& message = response->Find("message")->string_value();
    EXPECT_LT(message.size(), 200u) << message.substr(0, 300);
  }
  server.DrainAndWait();
}

TEST(WorkerCpuSliceTest, CutsTheAllowedCpusIntoDisjointSlices) {
  const std::vector<int> four = {0, 1, 2, 3};
  EXPECT_EQ(WorkerCpuSlice(four, 0, 2), (std::vector<int>{0, 1}));
  EXPECT_EQ(WorkerCpuSlice(four, 1, 2), (std::vector<int>{2, 3}));
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_EQ(WorkerCpuSlice(four, w, 4), (std::vector<int>{int(w)}));
  }
  // More workers than CPUs: one CPU a slice, handed out round robin.
  EXPECT_EQ(WorkerCpuSlice(four, 4, 6), (std::vector<int>{0}));
  EXPECT_EQ(WorkerCpuSlice(four, 5, 6), (std::vector<int>{1}));
  // Uneven cuts and sparse CPU numbers.
  const std::vector<int> sparse = {2, 5, 9};
  EXPECT_EQ(WorkerCpuSlice(sparse, 0, 2), (std::vector<int>{2, 5}));
  EXPECT_EQ(WorkerCpuSlice(sparse, 1, 2), (std::vector<int>{9}));
}

TEST(WorkerCpuSliceTest, NothingToBindWithOneSlice) {
  EXPECT_TRUE(WorkerCpuSlice({0, 1, 2, 3}, 0, 1).empty());
  EXPECT_TRUE(WorkerCpuSlice({7}, 1, 2).empty());
  EXPECT_TRUE(WorkerCpuSlice({}, 0, 2).empty());
}

#ifdef __linux__
// The Cpus_allowed_list of a /proc status file, as a set.
std::set<int> CpusAllowed(const std::filesystem::path& status) {
  std::ifstream in(status);
  std::string line;
  std::set<int> cpus;
  while (std::getline(in, line)) {
    if (line.rfind("Cpus_allowed_list:", 0) != 0) continue;
    std::stringstream list(line.substr(line.find(':') + 1));
    std::string range;
    while (std::getline(list, range, ',')) {
      int lo = 0;
      int hi = 0;
      if (std::sscanf(range.c_str(), "%d-%d", &lo, &hi) < 2) hi = lo;
      for (int cpu = lo; cpu <= hi; ++cpu) cpus.insert(cpu);
    }
  }
  return cpus;
}

// The CPU sets of this process's threads that differ from `all`.
std::vector<std::set<int>> NarrowedThreads(const std::set<int>& all) {
  std::vector<std::set<int>> out;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::set<int> cpus = CpusAllowed(task.path() / "status");
    if (!cpus.empty() && cpus != all) out.push_back(std::move(cpus));
  }
  return out;
}
#endif

TEST(QueryServerTest, WorkersRunOnDisjointCpuSlices) {
#ifndef __linux__
  GTEST_SKIP() << "thread affinity is read from /proc";
#else
  const std::set<int> all = CpusAllowed("/proc/thread-self/status");
  if (all.size() < 2) GTEST_SKIP() << "one CPU: nothing to slice";
  ServerOptions options;
  options.workers = 2;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::set<int>> slices;
  EXPECT_TRUE(WaitFor([&] {
    slices = NarrowedThreads(all);
    return slices.size() == 2;
  }));
  ASSERT_EQ(slices.size(), 2u);
  std::set<int> both = slices[0];
  both.insert(slices[1].begin(), slices[1].end());
  EXPECT_EQ(both.size(), slices[0].size() + slices[1].size());
  EXPECT_EQ(both, all);
  server.DrainAndWait();
#endif
}

// An intra-query pool would inherit its worker's slice: with --jobs > 1
// the workers keep every CPU.
TEST(QueryServerTest, WorkersStayFreeWithIntraQueryPools) {
#ifndef __linux__
  GTEST_SKIP() << "thread affinity is read from /proc";
#else
  const std::set<int> all = CpusAllowed("/proc/thread-self/status");
  if (all.size() < 2) GTEST_SKIP() << "one CPU: nothing to slice";
  struct RestoreJobs {
    unsigned jobs;
    ~RestoreJobs() { SetDefaultParallelJobs(jobs); }
  } restore{DefaultParallelJobs()};
  SetDefaultParallelJobs(2);
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  options.workers = 2;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  for (int id = 1; id <= 4; ++id) {
    obs::JsonValue eval = Req("eval", id);
    eval.Set("class", obs::JsonValue::String("path"));
    eval.Set("query", obs::JsonValue::String("knows+"));
    auto answers = client->Call(eval);
    ASSERT_TRUE(answers.ok());
    EXPECT_TRUE(answers->Find("ok")->bool_value());
  }
  EXPECT_TRUE(NarrowedThreads(all).empty());
  server.DrainAndWait();
#endif
}

// Stats, health and update are answered by the reader thread; a worker
// handed one answers `internal` rather than a second copy of the answer.
TEST(ExecuteRequestTest, ReaderAnsweredTypesAreInternalErrors) {
  for (RequestType type :
       {RequestType::kStats, RequestType::kHealth, RequestType::kUpdate}) {
    Request request;
    request.type = type;
    request.id = obs::JsonValue::Number(int64_t{1});
    obs::JsonValue response = ExecuteRequest(request, HandlerContext{});
    EXPECT_EQ(ErrorCode(response), "internal") << RequestTypeName(type);
    EXPECT_EQ(response.Find("stats"), nullptr);
  }
}

}  // namespace
}  // namespace server
}  // namespace rq

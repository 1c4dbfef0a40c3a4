// ThreadSanitizer tests for live graph mutations (docs/SERVING.md
// "Updates"): an eval admitted before a mutation completes must evaluate
// against its pinned pre-mutation snapshot while the writer publishes new
// epochs, concurrent writers/readers across connections must be
// race-free, readers racing to build an epoch's relational image must
// all read the one image, and evals reading a built image concurrently
// must write nothing to it, and readers of a pinned view's node names
// must never see the writer's new nodes. Runs in the `tsan-mutation` label
// so the tsan preset executes it under ThreadSanitizer.
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datalog/eval.h"
#include "graph/generators.h"
#include "graph/graph_db.h"
#include "gtest/gtest.h"
#include "obs/json.h"
#include "relational/relation.h"
#include "rq/eval.h"
#include "rq/parser.h"
#include "server/client.h"
#include "server/graph_store.h"
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

obs::JsonValue Eval(int64_t id, const char* query) {
  obs::JsonValue request = Req("eval", id);
  request.Set("class", obs::JsonValue::String("path"));
  request.Set("query", obs::JsonValue::String(query));
  return request;
}

obs::JsonValue AddEdge(int64_t id, const std::string& src,
                       const std::string& label, const std::string& dst) {
  obs::JsonValue request = Req("update", id);
  obs::JsonValue op = obs::JsonValue::Object();
  op.Set("op", obs::JsonValue::String("add_edge"));
  op.Set("src", obs::JsonValue::String(src));
  op.Set("label", obs::JsonValue::String(label));
  op.Set("dst", obs::JsonValue::String(dst));
  obs::JsonValue ops = obs::JsonValue::Array();
  ops.Append(std::move(op));
  request.Set("ops", std::move(ops));
  return request;
}

double Num(const obs::JsonValue& response, const char* key) {
  const obs::JsonValue* field = response.Find(key);
  return field == nullptr ? -1 : field->number_value();
}

// The ISSUE acceptance interleaving, made deterministic with one worker:
// pipeline sleep → eval E1 → update → eval E2 on a single connection. The
// reader admits (and version-pins) E1 before it applies the update, but
// the single worker is still busy with the sleep, so E1 EXECUTES after the
// mutation published — it must still answer from its pinned pre-mutation
// snapshot. E2, admitted after the update, sees the new graph.
TEST(MutationConcurrencyTest, EvalAdmittedBeforeMutationSeesOldSnapshot) {
  auto parsed = GraphDb::FromText("a knows b\nb knows c\nc knows a\n");
  ASSERT_TRUE(parsed.ok());
  GraphDb graph = std::move(parsed).value();
  ServerOptions options;
  options.graph = &graph;
  options.workers = 1;
  options.enable_sleep = true;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue sleep = Req("sleep", 1);
  sleep.Set("sleep_ms", obs::JsonValue::Number(int64_t{150}));
  ASSERT_TRUE(client->Send(sleep).ok());
  ASSERT_TRUE(client->Send(Eval(2, "knows")).ok());
  ASSERT_TRUE(client->Send(AddEdge(3, "c", "knows", "d")).ok());
  ASSERT_TRUE(client->Send(Eval(4, "knows")).ok());

  // Responses interleave across the pipelined requests; match on id.
  obs::JsonValue by_id[5];
  for (int i = 0; i < 4; ++i) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok());
    int64_t id = static_cast<int64_t>(Num(*response, "id"));
    ASSERT_GE(id, 1);
    ASSERT_LE(id, 4);
    by_id[id] = std::move(response).value();
  }

  EXPECT_TRUE(by_id[1].Find("ok")->bool_value());  // the sleep completed
  // The update published epoch 2 while E1 waited behind the sleep.
  ASSERT_TRUE(by_id[3].Find("ok")->bool_value());
  EXPECT_EQ(Num(by_id[3], "epoch"), 2);
  // E1: pinned at admission → pre-mutation answer and epoch.
  ASSERT_TRUE(by_id[2].Find("ok")->bool_value());
  EXPECT_EQ(Num(by_id[2], "count"), 3);
  EXPECT_EQ(Num(by_id[2], "epoch"), 1);
  // E2: admitted after the update → sees the write.
  ASSERT_TRUE(by_id[4].Find("ok")->bool_value());
  EXPECT_EQ(Num(by_id[4], "count"), 4);
  EXPECT_EQ(Num(by_id[4], "epoch"), 2);

  server.DrainAndWait();
}

// Writers on some connections hammer update batches (including the
// incremental closure maintenance for the seeded label) while readers on
// others run closure-shaped and plain evals. Every response must be OK,
// every answer internally consistent with the epoch that produced it.
TEST(MutationConcurrencyTest, ConcurrentWritersAndReadersStayConsistent) {
  auto parsed = GraphDb::FromText("a knows b\nb knows c\nc knows a\n");
  ASSERT_TRUE(parsed.ok());
  GraphDb graph = std::move(parsed).value();
  ServerOptions options;
  options.graph = &graph;
  options.workers = 4;
  options.max_queue_depth = 4096;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();

  // Seed the incremental path so writer batches maintain the closure.
  {
    auto seeder = BlockingClient::Connect(kHost, port);
    ASSERT_TRUE(seeder.ok());
    auto seeded = seeder->Call(Eval(0, "knows+"));
    ASSERT_TRUE(seeded.ok());
    ASSERT_TRUE(seeded->Find("ok")->bool_value());
  }

  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::jthread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto client = BlockingClient::Connect(kHost, port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        std::string src = "w" + std::to_string(w) + "n" + std::to_string(i);
        std::string dst = "w" + std::to_string(w) + "n" + std::to_string(i + 1);
        auto response = client->Call(AddEdge(i, src, "knows", dst));
        if (!response.ok() || !response->Find("ok")->bool_value()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      auto client = BlockingClient::Connect(kHost, port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const char* query = (r % 2 == 0) ? "knows+" : "knows knows";
      for (int i = 0; i < kRounds; ++i) {
        auto response = client->Call(Eval(i, query));
        if (!response.ok() || !response->Find("ok")->bool_value() ||
            Num(*response, "epoch") < 1) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.clear();  // join
  EXPECT_EQ(failures.load(), 0);

  // All writer batches landed: one epoch each, plus the preload.
  EXPECT_EQ(server.graph_epoch(), 1u + kWriters * kRounds);
  auto client = BlockingClient::Connect(kHost, port);
  ASSERT_TRUE(client.ok());
  auto final_eval = client->Call(Eval(99, "knows"));
  ASSERT_TRUE(final_eval.ok());
  EXPECT_EQ(Num(*final_eval, "count"), 3 + kWriters * kRounds);

  server.DrainAndWait();
}

using Rows = std::vector<std::vector<std::string>>;

// A from-scratch answer, sorted by node id and rendered as node names the
// way eval responses render rows.
Rows NamedRows(const GraphDb& graph, const Relation& answer) {
  Rows rows;
  for (const Tuple& tuple : answer.SortedTuples()) {
    std::vector<std::string> row;
    for (Value value : tuple) {
      row.push_back(graph.NodeName(static_cast<NodeId>(value)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Rows ResponseRows(const obs::JsonValue& response) {
  Rows rows;
  for (const obs::JsonValue& row : response.Find("tuples")->items()) {
    std::vector<std::string> names;
    for (const obs::JsonValue& name : row.items()) {
      names.push_back(name.string_value());
    }
    rows.push_back(std::move(names));
  }
  return rows;
}

// Readers race to the first use of each epoch's relational image with rq
// and datalog evals, while knows+ reads render closure images and one
// writer applies batches. Every answer must equal a from-scratch
// evaluation over the graph at the epoch its response reports.
TEST(MutationConcurrencyTest, RelationalImageFirstUseRacesStayExact) {
  const char* kGraph = "a knows b\nb knows c\nc knows a\n";
  auto parsed = GraphDb::FromText(kGraph);
  ASSERT_TRUE(parsed.ok());
  GraphDb graph = std::move(parsed).value();
  ServerOptions options;
  options.graph = &graph;
  options.workers = 4;
  options.max_queue_depth = 4096;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();

  struct Query {
    const char* cls;
    const char* text;
  };
  const Query kQueries[] = {
      {"rq", "exists[y](knows(x, y) & knows(y, z))"},
      {"datalog",
       "q(x,y) :- knows(x,y).\nq(x,z) :- q(x,y), knows(y,z).\n?- q."},
      {"rq", "knows(x, y) & knows(y, x)"},
      {"path", "knows+"},
  };
  constexpr int kQueryCount = 4;
  auto eval = [&](int64_t id, int q) {
    obs::JsonValue request = Req("eval", id);
    request.Set("class", obs::JsonValue::String(kQueries[q].cls));
    request.Set("query", obs::JsonValue::String(kQueries[q].text));
    return request;
  };
  {
    auto seeder = BlockingClient::Connect(kHost, port);
    ASSERT_TRUE(seeder.ok());
    auto seeded = seeder->Call(eval(0, 3));  // makes knows live
    ASSERT_TRUE(seeded.ok());
    ASSERT_TRUE(seeded->Find("ok")->bool_value());
  }

  // Batch i adds p{i} -> p{i+1} and p{i+1} -> a: new nodes, new closure
  // pairs, and new answers to every query.
  constexpr int kBatches = 12;
  auto batch_edges = [](int i) {
    std::string from = i == 0 ? "c" : "p" + std::to_string(i);
    std::string to = "p" + std::to_string(i + 1);
    return std::vector<std::pair<std::string, std::string>>{{from, to},
                                                            {to, "a"}};
  };

  struct Answer {
    int query;
    uint64_t epoch;
    Rows rows;
    uint64_t count;
  };
  std::mutex answers_mu;
  std::vector<Answer> answers;
  std::atomic<int> failures{0};
  std::atomic<bool> writing{true};
  std::vector<std::jthread> threads;
  threads.emplace_back([&] {
    auto client = BlockingClient::Connect(kHost, port);
    if (!client.ok()) {
      failures.fetch_add(1);
      writing = false;
      return;
    }
    for (int i = 0; i < kBatches; ++i) {
      obs::JsonValue request = Req("update", 1000 + i);
      obs::JsonValue ops = obs::JsonValue::Array();
      for (const auto& [src, dst] : batch_edges(i)) {
        obs::JsonValue op = obs::JsonValue::Object();
        op.Set("op", obs::JsonValue::String("add_edge"));
        op.Set("src", obs::JsonValue::String(src));
        op.Set("label", obs::JsonValue::String("knows"));
        op.Set("dst", obs::JsonValue::String(dst));
        ops.Append(std::move(op));
      }
      request.Set("ops", std::move(ops));
      auto response = client->Call(request);
      if (!response.ok() || !response->Find("ok")->bool_value()) {
        failures.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writing = false;
  });
  constexpr int kReaders = 4;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      auto client = BlockingClient::Connect(kHost, port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      // Keep reading until the writer is done, then once more round.
      for (int i = 0; writing.load() || i % kQueryCount != 0; ++i) {
        int q = (r + i) % kQueryCount;
        auto response = client->Call(eval(i, q));
        if (!response.ok() || !response->Find("ok")->bool_value()) {
          failures.fetch_add(1);
          continue;
        }
        Answer answer{q, response->Find("epoch")->uint_value(),
                      ResponseRows(*response),
                      response->Find("count")->uint_value()};
        std::lock_guard<std::mutex> lock(answers_mu);
        answers.push_back(std::move(answer));
      }
    });
  }
  threads.clear();  // join
  ASSERT_EQ(failures.load(), 0);
  ASSERT_EQ(server.graph_epoch(), 1u + kBatches);
  server.DrainAndWait();

  // Rebuild each epoch's graph the way Apply grows the master, so node ids
  // match, and evaluate every query on it from scratch.
  std::map<std::pair<uint64_t, int>, Rows> expected;
  GraphDb at_epoch = std::move(GraphDb::FromText(kGraph)).value();
  for (uint64_t epoch = 1; epoch <= 1u + kBatches; ++epoch) {
    if (epoch > 1) {
      for (const auto& [src, dst] : batch_edges(static_cast<int>(epoch) - 2)) {
        NodeId s = at_epoch.AddNamedNode(src);
        NodeId d = at_epoch.AddNamedNode(dst);
        at_epoch.AddEdge(s, at_epoch.alphabet().InternLabel("knows"), d);
      }
    }
    Database database = GraphToDatabase(at_epoch);
    for (int q = 0; q < kQueryCount; ++q) {
      Relation answer(2);
      if (std::string(kQueries[q].cls) == "rq") {
        auto query = ParseRq(kQueries[q].text);
        ASSERT_TRUE(query.ok());
        auto out = EvalRqQuery(database, *query);
        ASSERT_TRUE(out.ok());
        answer = *std::move(out);
      } else if (std::string(kQueries[q].cls) == "datalog") {
        auto program = ParseDatalog(kQueries[q].text);
        ASSERT_TRUE(program.ok());
        auto out = EvalDatalogGoal(*program, database);
        ASSERT_TRUE(out.ok());
        answer = *std::move(out);
      } else {
        answer = BinaryTransitiveClosure(*database.Find("knows"));
      }
      expected[{epoch, q}] = NamedRows(at_epoch, answer);
    }
  }
  std::vector<int> per_query(kQueryCount, 0);
  std::set<uint64_t> epochs;
  for (const Answer& answer : answers) {
    epochs.insert(answer.epoch);
    auto it = expected.find({answer.epoch, answer.query});
    ASSERT_NE(it, expected.end()) << "epoch " << answer.epoch;
    EXPECT_EQ(answer.rows, it->second)
        << kQueries[answer.query].text << " at epoch " << answer.epoch;
    EXPECT_EQ(answer.count, it->second.size());
    ++per_query[answer.query];
  }
  for (int q = 0; q < kQueryCount; ++q) EXPECT_GT(per_query[q], 0) << q;
  EXPECT_GT(epochs.size(), 2u);  // the readers raced over several epochs
}

// Right after an image's first use, with no writer running, concurrent
// evals read the shared image in place: Datalog probes the EDB's knows
// index and an RQ join probes it too. The image built every index inside
// its one-time build, so these reads write nothing (tsan would flag a lazy
// index build), and every answer equals the sequential one.
TEST(MutationConcurrencyTest, ConcurrentEvalsReadTheIndexedImage) {
  GraphStore store;
  store.Load(RandomGraph(60, 180, {"knows", "member"}, 7));
  GraphView view = store.Acquire();
  *view.database;  // first use: build and index
  auto datalog = ParseDatalog(
      "q(x,y) :- knows(x,y).\nq(x,z) :- q(x,y), knows(y,z).\n?- q.");
  auto rq = ParseRq("q(x,z) := exists[y](knows(x, y) & member(y, z))");
  ASSERT_TRUE(datalog.ok() && rq.ok());
  // The sequential answers come from a private copy of the relational
  // view, so the threads below are the image's first readers.
  const Database local = GraphToDatabase(*view.graph);
  const std::vector<Tuple> expected_datalog =
      EvalDatalogGoal(*datalog, local).value().SortedTuples();
  const std::vector<Tuple> expected_rq =
      EvalRqQuery(local, *rq).value().SortedTuples();
  ASSERT_FALSE(expected_datalog.empty());
  ASSERT_FALSE(expected_rq.empty());

  std::atomic<int> mismatches{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      GraphView mine = store.Acquire();
      for (int i = 0; i < 6; ++i) {
        if ((t + i) % 2 == 0) {
          auto out = EvalDatalogGoal(*datalog, *mine.database);
          if (!out.ok() || out->SortedTuples() != expected_datalog) {
            mismatches.fetch_add(1);
          }
        } else {
          auto out = EvalRqQuery(*mine.database, *rq);
          if (!out.ok() || out->SortedTuples() != expected_rq) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  threads.clear();  // join
  EXPECT_EQ(mismatches.load(), 0);
}

UpdateOp NamedNodeOp(std::string name) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kAddNode;
  op.name = std::move(name);
  return op;
}

UpdateOp EdgeOp(std::string src, std::string dst) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kAddEdge;
  op.src = std::move(src);
  op.label = "knows";
  op.dst = std::move(dst);
  return op;
}

// Readers render node names and look them up on pinned views while the
// writer's batches add named and anonymous nodes. Every published view
// shares the master's node table, and the master copies that table before
// it adds a name, so no reader's table is ever written (tsan would flag a
// write racing a NodeName), and a view pinned at load keeps its answers.
TEST(MutationConcurrencyTest, PinnedViewsReadNodeNamesWhileWriterAddsNodes) {
  GraphStore store;
  store.Load(std::move(GraphDb::FromText("a knows b\n")).value());
  const GraphView loaded = store.Acquire();
  constexpr int kBatches = 200;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<int> mismatches{0};
  std::vector<std::jthread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      started.fetch_add(1);
      // The pass that starts after the writer is done sees every batch.
      for (bool last = false; !last;) {
        last = done.load();
        GraphView view = store.Acquire();
        const GraphDb& graph = *view.graph;
        for (NodeId node = 0; node < graph.num_nodes(); ++node) {
          // Anonymous nodes render as n<id> and are in no index.
          const std::string name = graph.NodeName(node);
          Result<NodeId> found = graph.FindNode(name);
          if (found.ok() ? *found != node
                         : name != "n" + std::to_string(node)) {
            mismatches.fetch_add(1);
          }
        }
        if (loaded.graph->NodeName(1) != "b" ||
            loaded.graph->FindNode("x0").ok()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  int failed_batches = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    const std::string id = std::to_string(batch);
    if (!store.Apply({NamedNodeOp("x" + id), NamedNodeOp(""),
                      EdgeOp("a", "y" + id)})
             .ok()) {
      ++failed_batches;
    }
  }
  done.store(true);
  readers.clear();  // join
  EXPECT_EQ(failed_batches, 0);
  EXPECT_EQ(mismatches.load(), 0);
  const GraphView last = store.Acquire();
  EXPECT_EQ(last.graph->num_nodes(), 2u + 3 * kBatches);
  EXPECT_EQ(last.graph->FindNode("y199").value(), 2u + 3 * 199 + 2);
  EXPECT_EQ(loaded.graph->num_nodes(), 2u);
}

}  // namespace
}  // namespace server
}  // namespace rq

// End-to-end tests of live graph mutations (docs/SERVING.md "Updates"):
// the `update` request verb, epoch-versioned snapshots, read-your-writes
// pipelining, epoch-keyed eval-cache invalidation, the incremental
// per-label closure path with its budget-capped fallback, one closure
// image per batch, and one renderer for every eval response. All
// networking is loopback TCP on ephemeral ports.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "common/deadline.h"
#include "graph/graph_db.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "pathquery/path_query.h"
#include "regex/regex.h"
#include "relational/relation.h"
#include "rq/eval.h"
#include "server/client.h"
#include "server/graph_store.h"
#include "server/handlers.h"
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

obs::JsonValue AddEdgeOp(const char* src, const char* label,
                         const char* dst) {
  obs::JsonValue op = obs::JsonValue::Object();
  op.Set("op", obs::JsonValue::String("add_edge"));
  op.Set("src", obs::JsonValue::String(src));
  op.Set("label", obs::JsonValue::String(label));
  op.Set("dst", obs::JsonValue::String(dst));
  return op;
}

obs::JsonValue AddNodeOp(const char* name) {
  obs::JsonValue op = obs::JsonValue::Object();
  op.Set("op", obs::JsonValue::String("add_node"));
  op.Set("name", obs::JsonValue::String(name));
  return op;
}

obs::JsonValue Update(int64_t id, std::vector<obs::JsonValue> ops) {
  obs::JsonValue request = Req("update", id);
  obs::JsonValue array = obs::JsonValue::Array();
  for (auto& op : ops) array.Append(std::move(op));
  request.Set("ops", std::move(array));
  return request;
}

std::string ErrorCode(const obs::JsonValue& response) {
  const obs::JsonValue* error = response.Find("error");
  return error == nullptr ? "" : error->string_value();
}

double Num(const obs::JsonValue& response, const char* key) {
  const obs::JsonValue* field = response.Find(key);
  return field == nullptr ? -1 : field->number_value();
}

GraphDb TriangleGraph() {
  auto graph = GraphDb::FromText("a knows b\nb knows c\nc knows a\n");
  return std::move(graph).value();
}

UpdateOp EdgeOp(const std::string& src, const std::string& label,
                const std::string& dst) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kAddEdge;
  op.src = src;
  op.label = label;
  op.dst = dst;
  return op;
}

// `count` edges extending the chain `prefix`0 -> `prefix`1 -> ... from
// node `from` on; each one adds closure pairs.
std::vector<UpdateOp> ChainOps(const std::string& prefix,
                               const std::string& label, int from,
                               int count) {
  std::vector<UpdateOp> ops;
  for (int i = from; i < from + count; ++i) {
    ops.push_back(EdgeOp(prefix + std::to_string(i), label,
                         prefix + std::to_string(i + 1)));
  }
  return ops;
}

// Promotes `label` with the from-scratch closure of its edges in the
// store's current view, as the first `label+` eval does.
uint32_t SeedLabel(GraphStore* store, const std::string& label_name) {
  GraphView view = store->Acquire();
  uint32_t label = view.graph->alphabet().FindLabel(label_name).value();
  Relation base(2);
  for (const auto& [x, y] :
       view.snapshot->SymbolPairs(ForwardSymbolOf(label))) {
    base.Insert({x, y});
  }
  Relation closure = BinaryTransitiveClosure(base);
  store->SeedClosure(view, label, std::move(base), std::move(closure));
  return label;
}

// --- GraphStore unit tests (no networking) -------------------------------

TEST(GraphStoreTest, LoadPublishesEpochOneAndAcquireIsStable) {
  GraphDb graph = TriangleGraph();
  GraphStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_FALSE(store.Acquire().has_graph());
  store.Load(graph);
  EXPECT_EQ(store.epoch(), 1u);

  GraphView pinned = store.Acquire();
  ASSERT_TRUE(pinned.has_graph());
  EXPECT_EQ(pinned.epoch, 1u);
  EXPECT_EQ(pinned.graph->num_edges(), 3u);

  // A batch publishes the next epoch; the pinned view is untouched.
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kAddEdge;
  ops[0].src = "c";
  ops[0].label = "knows";
  ops[0].dst = "d";
  auto applied = store.Apply(ops);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->epoch, 2u);
  EXPECT_EQ(applied->edges_added, 1u);
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(pinned.epoch, 1u);
  EXPECT_EQ(pinned.graph->num_edges(), 3u);
  EXPECT_EQ(store.Acquire().graph->num_edges(), 4u);
}

TEST(GraphStoreTest, EvalCacheKeyBindsEpoch) {
  EXPECT_NE(GraphStore::EvalCacheKey(1, "path", "knows+"),
            GraphStore::EvalCacheKey(2, "path", "knows+"));
  EXPECT_NE(GraphStore::EvalCacheKey(1, "path", "knows+"),
            GraphStore::EvalCacheKey(1, "rq", "knows+"));
  EXPECT_EQ(GraphStore::EvalCacheKey(7, "path", "knows+"),
            GraphStore::EvalCacheKey(7, "path", "knows+"));
}

TEST(GraphStoreTest, StaleSeedIsDropped) {
  GraphDb graph = TriangleGraph();
  GraphStore store;
  store.Load(graph);
  GraphView old_view = store.Acquire();

  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kAddNode;
  ops[0].name = "z";
  ASSERT_TRUE(store.Apply(ops).ok());  // epoch moves to 2

  // A seed computed against epoch 1 arrives late: it must not land.
  Relation base(2);
  base.Insert({0, 1});
  Relation closure(2);
  closure.Insert({0, 1});
  store.SeedClosure(old_view, 0, std::move(base), std::move(closure));
  EXPECT_EQ(store.Acquire().Closure(0), nullptr);
}

TEST(GraphStoreTest, FreshSeedPublishesClosureAtSameEpoch) {
  GraphDb graph = TriangleGraph();
  GraphStore store;
  store.Load(graph);
  GraphView view = store.Acquire();

  Relation base(2);
  Relation closure(2);
  for (Value x = 0; x < 3; ++x) {
    base.Insert({x, (x + 1) % 3});
    for (Value y = 0; y < 3; ++y) closure.Insert({x, y});
  }
  store.SeedClosure(view, 0, std::move(base), std::move(closure));
  GraphView reseen = store.Acquire();
  EXPECT_EQ(reseen.epoch, 1u);
  ASSERT_NE(reseen.Closure(0), nullptr);
  EXPECT_EQ(reseen.Closure(0)->size(), 9u);
}

// Regression: Apply used to deep-copy a live label's whole closure once
// per inserted edge. An 8-edge batch now builds exactly one image.
TEST(GraphStoreTest, EightEdgeBatchOnLiveLabelPublishesOneImage) {
  auto graph = GraphDb::FromText("p0 knows p1\np1 knows p2\n");
  ASSERT_TRUE(graph.ok());
  GraphStore store;
  store.Load(*graph);
  uint32_t knows = SeedLabel(&store, "knows");
  GraphView pinned = store.Acquire();
  ASSERT_NE(pinned.Closure(knows), nullptr);
  EXPECT_EQ(pinned.Closure(knows)->size(), 3u);

  obs::CounterDelta delta;
  auto applied = store.Apply(ChainOps("p", "knows", 2, 8));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(delta.Delta("incr.images"), 1u);
  GraphView after = store.Acquire();
  const auto* image = after.Closure(knows);
  ASSERT_NE(image, nullptr);
  EXPECT_NE(image, pinned.Closure(knows));
  // A chain of 11 nodes: 10 + 9 + ... + 1 pairs.
  EXPECT_EQ(image->size(), 55u);
}

// A batch whose edges are already implied by the closure adds no pairs,
// so the label keeps the image it had.
TEST(GraphStoreTest, BatchAddingNoClosurePairsKeepsTheImage) {
  GraphStore store;
  store.Load(TriangleGraph());
  uint32_t knows = SeedLabel(&store, "knows");
  GraphView pinned = store.Acquire();
  ASSERT_NE(pinned.Closure(knows), nullptr);

  obs::CounterDelta delta;
  auto applied = store.Apply({EdgeOp("a", "knows", "c"),
                              EdgeOp("b", "knows", "a"),
                              EdgeOp("a", "knows", "a")});
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->closure_pairs, 0u);
  GraphView after = store.Acquire();
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.Closure(knows), pinned.Closure(knows));
  EXPECT_EQ(delta.Delta("incr.images"), 0u);
}

// A batch on one live label leaves every other label's image alone and
// builds one image for the label it grew.
TEST(GraphStoreTest, BatchOnAnotherLabelKeepsTheImage) {
  auto graph = GraphDb::FromText(
      "a knows b\nb knows c\nc knows a\nq0 likes q1\n");
  ASSERT_TRUE(graph.ok());
  GraphStore store;
  store.Load(*graph);
  uint32_t knows = SeedLabel(&store, "knows");
  uint32_t likes = SeedLabel(&store, "likes");
  GraphView pinned = store.Acquire();
  ASSERT_NE(pinned.Closure(knows), nullptr);
  ASSERT_NE(pinned.Closure(likes), nullptr);

  obs::CounterDelta delta;
  auto applied = store.Apply(ChainOps("q", "likes", 1, 8));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  GraphView after = store.Acquire();
  EXPECT_EQ(after.Closure(knows), pinned.Closure(knows));
  ASSERT_NE(after.Closure(likes), nullptr);
  EXPECT_NE(after.Closure(likes), pinned.Closure(likes));
  EXPECT_EQ(after.Closure(likes)->size(), 45u);
  EXPECT_EQ(delta.Delta("incr.images"), 1u);
}

// A same-epoch seed republishes the view; the relational image handle
// comes along, so the epoch still builds its image at most once.
TEST(GraphStoreTest, SeedRepublishSharesTheRelationalImage) {
  GraphStore store;
  store.Load(TriangleGraph());
  GraphView before = store.Acquire();
  const Database& image = *before.database;
  ASSERT_NE(image.Find("knows"), nullptr);
  EXPECT_EQ(image.Find("knows")->size(), 3u);

  SeedLabel(&store, "knows");
  GraphView after = store.Acquire();
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(&*after.database, &image);

  ASSERT_TRUE(store.Apply({EdgeOp("c", "knows", "d")}).ok());
  GraphView next_view = store.Acquire();
  const Database& next = *next_view.database;
  EXPECT_NE(&next, &image);
  EXPECT_EQ(next.Find("knows")->size(), 4u);
}

// --- One renderer for every eval response --------------------------------

Request EvalRequest(const std::string& cls, const std::string& query,
                    int64_t max_tuples) {
  Request request;
  request.type = RequestType::kEval;
  request.id = obs::JsonValue::Number(int64_t{1});
  request.cls = cls;
  request.query = query;
  request.max_tuples = max_tuples;
  return request;
}

// tuples, count and truncated of two eval responses agree.
void ExpectSameAnswer(const obs::JsonValue& a, const obs::JsonValue& b,
                      const std::string& context) {
  ASSERT_TRUE(a.Find("ok")->bool_value()) << context << ": " << a.Dump();
  ASSERT_TRUE(b.Find("ok")->bool_value()) << context << ": " << b.Dump();
  for (const char* field : {"tuples", "count", "truncated"}) {
    ASSERT_NE(a.Find(field), nullptr) << context;
    ASSERT_NE(b.Find(field), nullptr) << context;
    EXPECT_EQ(a.Find(field)->Dump(), b.Find(field)->Dump())
        << context << " field " << field;
  }
}

GraphDb RenderGraph() {
  auto graph = GraphDb::FromText(
      "a knows b\nb knows c\nc knows a\nc knows d\nd knows e\n"
      "a member g1\nb member g1\nd member g2\ne member g2\n");
  return std::move(graph).value();
}

// For max_tuples of 1, the answer size, above it, and the default (0 and
// negative), a cached response renders exactly like the computed one.
TEST(EvalRenderTest, CachedResponsesEqualComputedOnes) {
  const std::pair<const char*, const char*> cases[] = {
      {"path", "knows knows"},
      {"crpq", "q(x, y) :- (knows)(x, z), (member member-)(z, y)"},
      {"rq", "exists[y](knows(x, y) & knows(y, z))"},
      {"datalog",
       "q(x,y) :- knows(x,y).\nq(x,z) :- q(x,y), knows(y,z).\n?- q."},
  };
  GraphDb graph = RenderGraph();
  for (const auto& [cls, query] : cases) {
    int64_t size = 0;
    {
      GraphStore store;
      store.Load(graph);
      HandlerContext ctx;
      ctx.view = store.Acquire();
      obs::JsonValue full = ExecuteRequest(EvalRequest(cls, query, 0), ctx);
      ASSERT_TRUE(full.Find("ok")->bool_value()) << cls << ": " << full.Dump();
      size = static_cast<int64_t>(full.Find("count")->number_value());
      ASSERT_GT(size, 1) << cls;
    }
    for (int64_t max_tuples : {int64_t{1}, size, size + 3, int64_t{0},
                               int64_t{-1}}) {
      std::string context = std::string(cls) + " max_tuples " +
                            std::to_string(max_tuples);
      GraphStore store;
      store.Load(graph);
      HandlerContext ctx;
      ctx.view = store.Acquire();
      ctx.store = &store;
      Request request = EvalRequest(cls, query, max_tuples);
      obs::JsonValue computed = ExecuteRequest(request, ctx);
      obs::JsonValue cached = ExecuteRequest(request, ctx);
      EXPECT_EQ(computed.Find("cached"), nullptr) << context;
      ASSERT_NE(cached.Find("cached"), nullptr) << context;
      ExpectSameAnswer(computed, cached, context);
      int64_t cap = max_tuples > 0 ? max_tuples : kDefaultMaxTuples;
      size_t shown = computed.Find("tuples")->items().size();
      EXPECT_EQ(static_cast<int64_t>(shown), std::min(size, cap)) << context;
      EXPECT_EQ(computed.Find("truncated")->bool_value(), size > cap)
          << context;
    }
  }
}

// Path answers are stored straight from product-BFS: the fresh and the
// cached response both render the kernel's pairs, in its order.
TEST(EvalRenderTest, PathResponsesRenderProductBfsRows) {
  GraphDb graph = RenderGraph();
  for (const char* query : {"knows knows", "knows+", "member member-"}) {
    Alphabet alphabet = graph.alphabet();
    RegexPtr regex = ParseRegex(query, &alphabet).value();
    std::vector<std::vector<std::string>> expected;
    for (const auto& [x, y] : EvalPathQuery(graph, *regex)) {
      expected.push_back({graph.NodeName(x), graph.NodeName(y)});
    }
    const int64_t size = static_cast<int64_t>(expected.size());
    ASSERT_GT(size, 1) << query;
    for (int64_t max_tuples : {int64_t{1}, size, size + 3, int64_t{0},
                               int64_t{-1}}) {
      std::string context = std::string(query) + " max_tuples " +
                            std::to_string(max_tuples);
      GraphStore store;
      store.Load(graph);
      HandlerContext ctx;
      ctx.view = store.Acquire();
      ctx.store = &store;
      Request request = EvalRequest("path", query, max_tuples);
      obs::JsonValue computed = ExecuteRequest(request, ctx);
      obs::JsonValue cached = ExecuteRequest(request, ctx);
      ASSERT_NE(cached.Find("cached"), nullptr) << context;
      ExpectSameAnswer(computed, cached, context);
      int64_t cap = max_tuples > 0 ? max_tuples : kDefaultMaxTuples;
      std::vector<std::vector<std::string>> rows;
      for (const obs::JsonValue& row : computed.Find("tuples")->items()) {
        rows.push_back({row.items()[0].string_value(),
                        row.items()[1].string_value()});
      }
      std::vector<std::vector<std::string>> prefix(
          expected.begin(), expected.begin() + std::min(size, cap));
      EXPECT_EQ(rows, prefix) << context;
      EXPECT_EQ(computed.Find("count")->number_value(),
                static_cast<double>(size))
          << context;
      EXPECT_EQ(computed.Find("truncated")->bool_value(), size > cap)
          << context;
    }
  }
}

// knows+ served from a merged closure image renders exactly like knows+
// computed by product-BFS on a store where the label is not live, and
// notes its own `eval.route`.
TEST(EvalRenderTest, ClosureImageRendersLikeProductBfs) {
  GraphStore live;
  live.Load(RenderGraph());
  {
    HandlerContext ctx;
    ctx.view = live.Acquire();
    ctx.store = &live;
    ASSERT_TRUE(ExecuteRequest(EvalRequest("path", "knows+", 0), ctx)
                    .Find("ok")
                    ->bool_value());  // seeds the label
  }
  ASSERT_TRUE(live.Apply({EdgeOp("e", "knows", "f"),
                          EdgeOp("f", "knows", "b"),
                          EdgeOp("x", "knows", "a")})
                  .ok());
  GraphView live_view = live.Acquire();
  GraphStore cold;
  cold.Load(*live_view.graph);  // same graph, same node ids, nothing live
  // No store in the context: the cold side never seeds and never caches.
  HandlerContext cold_ctx;
  cold_ctx.view = cold.Acquire();
  HandlerContext live_ctx;
  live_ctx.view = live_view;
  live_ctx.store = &live;

  int64_t size = static_cast<int64_t>(
      ExecuteRequest(EvalRequest("path", "knows+", 0), cold_ctx)
          .Find("count")
          ->number_value());
  ASSERT_GT(size, 1);
  for (int64_t max_tuples : {int64_t{1}, size, size + 3, int64_t{0},
                             int64_t{-1}}) {
    Request request = EvalRequest("path", "knows+", max_tuples);
    obs::JsonValue from_image = ExecuteRequest(request, live_ctx);
    obs::JsonValue from_bfs = ExecuteRequest(request, cold_ctx);
    ASSERT_NE(from_image.Find("incremental"), nullptr);
    EXPECT_EQ(from_bfs.Find("incremental"), nullptr);
    ExpectSameAnswer(from_image, from_bfs,
                     "max_tuples " + std::to_string(max_tuples));
  }
  for (const auto& [ctx, route] :
       {std::pair{&live_ctx, "incremental-closure"},
        std::pair{&cold_ctx, "kernel"}}) {
    obs::QueryProfile profile;
    ExecContext exec;
    profile.Begin("mutation_test", "path", "knows+", &exec);
    {
      ScopedExecContext scoped(&exec);
      ExecuteRequest(EvalRequest("path", "knows+", 0), *ctx);
    }
    profile.End();
    EXPECT_EQ(profile.notes()["eval.route"], route);
  }
}

// --- End-to-end server tests ---------------------------------------------

TEST(MutationTest, UpdateBatchAddsNodesAndEdgesAndBumpsEpoch) {
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.graph_epoch(), 1u);

  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  auto response = client->Call(Update(
      1, {AddNodeOp("d"), AddEdgeOp("c", "knows", "d")}));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->Find("ok")->bool_value());
  EXPECT_EQ(Num(*response, "epoch"), 2);
  EXPECT_EQ(Num(*response, "nodes_added"), 1);
  EXPECT_EQ(Num(*response, "edges_added"), 1);
  EXPECT_EQ(server.graph_epoch(), 2u);

  // One epoch per batch, however many ops it carries.
  response = client->Call(Update(
      2, {AddEdgeOp("d", "knows", "e"), AddEdgeOp("e", "knows", "f")}));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(Num(*response, "epoch"), 3);
  EXPECT_EQ(Num(*response, "edges_added"), 2);

  server.DrainAndWait();
}

// The ISSUE acceptance path: an eval pipelined after add_edge on the same
// connection observes the new answer (frames are handled in arrival order;
// the update publishes before the eval is admitted).
TEST(MutationTest, PipelinedUpdateThenEvalReadsOwnWrite) {
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  auto before = client->Call(Eval(1, "knows"));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(Num(*before, "count"), 3);
  EXPECT_EQ(Num(*before, "epoch"), 1);

  // Pipeline the mutation and the re-read without waiting in between.
  ASSERT_TRUE(client->Send(Update(2, {AddEdgeOp("c", "knows", "d")})).ok());
  ASSERT_TRUE(client->Send(Eval(3, "knows")).ok());

  auto updated = client->Receive();
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(Num(*updated, "id"), 2);
  EXPECT_TRUE(updated->Find("ok")->bool_value());

  auto after = client->Receive();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Num(*after, "id"), 3);
  EXPECT_EQ(Num(*after, "count"), 4);
  EXPECT_EQ(Num(*after, "epoch"), 2);

  server.DrainAndWait();
}

// Regression (ISSUE 10 satellite 2): eval answers are cached keyed by
// graph epoch, so a mutation must flip a previously cached answer — under
// the old graph-content-free key the second read would have returned the
// stale cached set.
TEST(MutationTest, MutationFlipsPreviouslyCachedEvalAnswer) {
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  // Use an rq-class eval: it has no incremental fast path, so the second
  // same-epoch read must come from the eval cache.
  obs::JsonValue query = Req("eval", 1);
  query.Set("class", obs::JsonValue::String("rq"));
  query.Set("query",
            obs::JsonValue::String("exists[y](knows(x, y) & knows(y, z))"));

  auto first = client->Call(query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Find("ok")->bool_value());
  EXPECT_EQ(Num(*first, "count"), 3);
  EXPECT_EQ(first->Find("cached"), nullptr);

  auto cached = client->Call(query);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(Num(*cached, "count"), 3);
  ASSERT_NE(cached->Find("cached"), nullptr);
  EXPECT_TRUE(cached->Find("cached")->bool_value());
  EXPECT_EQ(cached->Find("tuples")->Dump(), first->Find("tuples")->Dump());

  auto mutated = client->Call(Update(2, {AddEdgeOp("a", "knows", "d"),
                                         AddEdgeOp("d", "knows", "b")}));
  ASSERT_TRUE(mutated.ok());
  ASSERT_TRUE(mutated->Find("ok")->bool_value());

  // Same query text, new epoch: the stale entry is unreachable and the
  // recomputed answer reflects the mutation.
  // New 2-paths: a→d→b, d→b→c, c→a→d.
  auto flipped = client->Call(query);
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(Num(*flipped, "count"), 6);
  EXPECT_EQ(Num(*flipped, "epoch"), 2);
  EXPECT_EQ(flipped->Find("cached"), nullptr);

  auto recached = client->Call(query);
  ASSERT_TRUE(recached.ok());
  EXPECT_EQ(Num(*recached, "count"), 6);
  ASSERT_NE(recached->Find("cached"), nullptr);
  EXPECT_EQ(recached->Find("tuples")->Dump(),
            flipped->Find("tuples")->Dump());

  server.DrainAndWait();
}

// The incremental maintenance path: the first closure-shaped (`a+`) eval
// seeds the per-label closure; update batches then maintain it from deltas
// (incr.pairs_added) and later evals are served from it directly.
TEST(MutationTest, ClosureShapedEvalsAreMaintainedIncrementally) {
  obs::CounterDelta delta;
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  // Triangle: knows+ connects every pair. Seeds the label.
  auto seeded = client->Call(Eval(1, "knows+"));
  ASSERT_TRUE(seeded.ok());
  EXPECT_EQ(Num(*seeded, "count"), 9);
  EXPECT_GE(delta.Delta("incr.seeds"), 1u);

  // The batch's inserts flow through IncrementalClosure::AddEdge.
  auto mutated = client->Call(Update(2, {AddEdgeOp("c", "knows", "d")}));
  ASSERT_TRUE(mutated.ok());
  ASSERT_TRUE(mutated->Find("ok")->bool_value());
  // preds*(c) ∪ {c} = {a,b,c} × {d}: three new closure pairs.
  EXPECT_EQ(Num(*mutated, "closure_pairs"), 3);
  EXPECT_GE(delta.Delta("incr.pairs_added"), 3u);

  // Served from the maintained closure, not a fresh product-BFS.
  auto incremental = client->Call(Eval(3, "knows+"));
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(Num(*incremental, "count"), 12);
  EXPECT_EQ(Num(*incremental, "epoch"), 2);
  ASSERT_NE(incremental->Find("incremental"), nullptr);
  EXPECT_TRUE(incremental->Find("incremental")->bool_value());
  EXPECT_EQ(delta.Delta("incr.fallbacks"), 0u);

  server.DrainAndWait();
}

// A delta product over the configured budget demotes the label
// (incr.fallbacks) instead of stalling the writer; evals fall back to the
// full product-BFS and stay correct.
TEST(MutationTest, BlownDeltaBudgetFallsBackToFullEvaluation) {
  obs::CounterDelta delta;
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  options.incr_delta_budget = 1;  // any real delta product blows it
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  auto seeded = client->Call(Eval(1, "knows+"));
  ASSERT_TRUE(seeded.ok());
  EXPECT_EQ(Num(*seeded, "count"), 9);

  // {a,b,c} × {d} = 3 > 1: the label demotes, the batch still succeeds.
  auto mutated = client->Call(Update(2, {AddEdgeOp("c", "knows", "d")}));
  ASSERT_TRUE(mutated.ok());
  ASSERT_TRUE(mutated->Find("ok")->bool_value());
  EXPECT_EQ(Num(*mutated, "closure_pairs"), 0);
  EXPECT_GE(delta.Delta("incr.fallbacks"), 1u);

  // Fallback path: full recomputation, same (correct) answer set.
  auto fallback = client->Call(Eval(3, "knows+"));
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(Num(*fallback, "count"), 12);
  EXPECT_EQ(fallback->Find("incremental"), nullptr);

  server.DrainAndWait();
}

TEST(MutationTest, UpdatesBuildAGraphFromNothing) {
  QueryServer server(ServerOptions{});  // no preloaded graph
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  auto missing = client->Call(Eval(1, "e"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(ErrorCode(*missing), "invalid_request");

  auto created = client->Call(Update(2, {AddEdgeOp("x", "e", "y")}));
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(created->Find("ok")->bool_value());
  EXPECT_EQ(Num(*created, "epoch"), 1);

  auto answered = client->Call(Eval(3, "e"));
  ASSERT_TRUE(answered.ok());
  EXPECT_EQ(Num(*answered, "count"), 1);

  server.DrainAndWait();
}

TEST(MutationTest, ReadOnlyServerRejectsUpdates) {
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  options.enable_updates = false;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  auto response = client->Call(Update(1, {AddEdgeOp("c", "knows", "d")}));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "invalid_request");
  EXPECT_EQ(server.graph_epoch(), 1u);

  // Reads still serve.
  auto eval = client->Call(Eval(2, "knows"));
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(Num(*eval, "count"), 3);

  server.DrainAndWait();
}

TEST(MutationTest, DrainingServerRejectsUpdates) {
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Call(Req("health", 1)).ok());

  server.BeginDrain();
  ASSERT_TRUE(client->Send(Update(2, {AddEdgeOp("c", "knows", "d")})).ok());
  auto response = client->Receive();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "draining");
  EXPECT_EQ(server.graph_epoch(), 1u);
  server.Wait();
}

TEST(MutationTest, MalformedUpdateBatchesAreRejected) {
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  // Empty batch.
  auto empty = client->Call(Update(1, {}));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(ErrorCode(*empty), "invalid_request");

  // Unknown op kind.
  obs::JsonValue bogus = obs::JsonValue::Object();
  bogus.Set("op", obs::JsonValue::String("drop_table"));
  auto unknown = client->Call(Update(2, {std::move(bogus)}));
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(ErrorCode(*unknown), "invalid_request");

  // add_edge with a missing endpoint.
  obs::JsonValue incomplete = obs::JsonValue::Object();
  incomplete.Set("op", obs::JsonValue::String("add_edge"));
  incomplete.Set("src", obs::JsonValue::String("a"));
  auto partial = client->Call(Update(3, {std::move(incomplete)}));
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(ErrorCode(*partial), "invalid_request");

  // Nothing was applied by any of them.
  EXPECT_EQ(server.graph_epoch(), 1u);
  auto eval = client->Call(Eval(4, "knows"));
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(Num(*eval, "count"), 3);

  server.DrainAndWait();
}

TEST(MutationTest, MutationMetricsAppearInPrometheusExport) {
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Call(Eval(1, "knows+")).ok());
  ASSERT_TRUE(
      client->Call(Update(2, {AddEdgeOp("c", "knows", "d")})).ok());

  auto body = HttpGet(kHost, server.port(), "/metrics");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body->find("rq_graph_epoch"), std::string::npos);
  EXPECT_NE(body->find("rq_graph_mutations"), std::string::npos);
  EXPECT_NE(body->find("rq_graph_rebuild_ns"), std::string::npos);
  EXPECT_NE(body->find("rq_incr_pairs_added"), std::string::npos);

  server.DrainAndWait();
}

}  // namespace
}  // namespace server
}  // namespace rq

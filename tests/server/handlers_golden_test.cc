// Golden responses of ExecuteRequest, the handler rqserved runs for every
// request that reaches its worker pool: containment and equivalence in
// every class, and eval on an inline graph and on a loaded GraphStore,
// each compared byte for byte with the Dump() of the response. The pairs
// and queries are those of the rqcheck and rqeval golden corpus
// (tests/cli/). The store sequence covers a repeated eval ("cached") and
// `knows+` after the first eval seeded its closure and an update grew it
// ("incremental").
#include <string>
#include <vector>

#include "graph/graph_db.h"
#include "gtest/gtest.h"
#include "server/graph_store.h"
#include "server/handlers.h"
#include "server/protocol.h"

namespace rq {
namespace server {
namespace {

struct Golden {
  const char* request;   // one request frame
  const char* response;  // the Dump() of its response
};

// Decodes each frame as the server does and checks the response. A store
// context is re-pinned before each request, as admission does.
void ExpectGolden(const std::vector<Golden>& cases, GraphStore* store) {
  for (const Golden& golden : cases) {
    auto request = ParseRequest(golden.request);
    ASSERT_TRUE(request.ok()) << golden.request;
    HandlerContext ctx;
    if (store != nullptr) {
      ctx.view = store->Acquire();
      ctx.store = store;
    }
    EXPECT_EQ(ExecuteRequest(*request, ctx).Dump(), golden.response)
        << golden.request;
  }
}

TEST(HandlersGoldenTest, ContainmentInEveryClass) {
  ExpectGolden(
      {
          {R"json({"type":"containment","id":1,"class":"rpq","q1":"a a* b","q2":"a* b"})json",
           R"json({"id":1,"ok":true,"verdict":"proved","contained":true,"pipeline":"lemma1"})json"},
          {R"json({"type":"containment","id":2,"class":"rpq","q1":"a* b","q2":"a a* b"})json",
           R"json({"id":2,"ok":true,"verdict":"refuted","contained":false,"pipeline":"lemma1","counterexample_word":"b"})json"},
          {R"json({"type":"containment","id":3,"class":"rpq","q1":"(a|b)*","q2":"(a|b)* a (a|b)* | ()"})json",
           R"json({"id":3,"ok":true,"verdict":"refuted","contained":false,"pipeline":"lemma1","counterexample_word":"b"})json"},
          {R"json({"type":"containment","id":4,"class":"2rpq","q1":"p","q2":"p p- p"})json",
           R"json({"id":4,"ok":true,"verdict":"proved","contained":true,"pipeline":"2rpq-fold"})json"},
          {R"json({"type":"containment","id":5,"class":"2rpq","q1":"p p- p","q2":"p"})json",
           R"json({"id":5,"ok":true,"verdict":"refuted","contained":false,"pipeline":"2rpq-fold","counterexample_word":"p p- p"})json"},
          {R"json({"type":"containment","id":6,"class":"cq","q1":"q(x,y) :- e(x,y), e(y,z)","q2":"q(x,y) :- e(x,y)"})json",
           R"json({"id":6,"ok":true,"verdict":"proved","method":"chandra-merlin"})json"},
          {R"json({"type":"containment","id":7,"class":"cq","q1":"q(x,y) :- e(x,y)","q2":"q(x,y) :- e(x,y), e(y,z)"})json",
           R"json({"id":7,"ok":true,"verdict":"refuted","method":"chandra-merlin"})json"},
          {R"json({"type":"containment","id":8,"class":"ucq","q1":"q(x) :- a(x)\nq(x) :- b(x)","q2":"q(x) :- a(x)\nq(x) :- b(x)\nq(x) :- c(x)"})json",
           R"json({"id":8,"ok":true,"verdict":"proved","method":"sagiv-yannakakis"})json"},
          {R"json({"type":"containment","id":9,"class":"ucq","q1":"q(x) :- a(x)\nq(x) :- c(x)","q2":"q(x) :- a(x)"})json",
           R"json({"id":9,"ok":true,"verdict":"refuted","method":"sagiv-yannakakis"})json"},
          {R"json({"type":"containment","id":10,"class":"uc2rpq","q1":"q(x,y) :- (likes+ likes+)(x,y)","q2":"q(x,y) :- (likes+)(x,y)"})json",
           R"json({"id":10,"ok":true,"verdict":"proved","method":"2rpq-fold","truncated":false})json"},
          {R"json({"type":"containment","id":11,"class":"uc2rpq","q1":"q(x,y) :- (likes)(x,z), (likes)(z,y)","q2":"q(x,y) :- (likes likes)(x,y)"})json",
           R"json({"id":11,"ok":true,"verdict":"proved","method":"2rpq-fold","truncated":false})json"},
          {R"json({"type":"containment","id":12,"class":"uc2rpq","q1":"q(x,y) :- (likes+)(x,z), (likes+)(z,y)","q2":"q(x,y) :- (likes+ likes+)(x,y)"})json",
           R"json({"id":12,"ok":true,"verdict":"proved","method":"2rpq-fold","truncated":false})json"},
          {R"json({"type":"containment","id":13,"class":"uc2rpq","q1":"q(x,y) :- (a)(x,y)","q2":"q(x,y) :- (b)(x,y)"})json",
           R"json({"id":13,"ok":true,"verdict":"refuted","method":"2rpq-fold","truncated":false,"counterexample_graph":"n0 a n1\n"})json"},
          {R"json({"type":"containment","id":14,"class":"uc2rpq","q1":"q(x,y) :- (a)(x,z), (b+)(z,y)","q2":"q(x,y) :- (a b)(x,y)"})json",
           R"json({"id":14,"ok":true,"verdict":"refuted","method":"2rpq-fold","truncated":false,"counterexample_graph":"n0 a n1\nn1 b n2\nn2 b n3\n"})json"},
          {R"json({"type":"containment","id":15,"class":"uc2rpq","q1":"q(x,y) :- ((a|b|c|d|e|f|g|h|i|j|k|l|m|n|o|p)+)(x,z), (a)(z,y)","q2":"q(x,y) :- (b)(x,y)"})json",
           R"json({"id":15,"ok":true,"verdict":"refuted","method":"2rpq-fold","truncated":false,"counterexample_graph":"n0 a n1\nn1 a n2\n"})json"},
          {R"json({"type":"containment","id":16,"class":"rq","q1":"q(x,y) := tc[x,y](a(x,y) & b(x,y))","q2":"q(x,y) := tc[x,y](a(x,y))"})json",
           R"json({"id":16,"ok":true,"verdict":"proved","method":"structural"})json"},
          {R"json({"type":"containment","id":17,"class":"rq","q1":"q(x,y) := tc[x,y](a(x,y))","q2":"q(x,y) := a(x,y)"})json",
           R"json({"id":17,"ok":true,"verdict":"refuted","method":"uc2rpq:2rpq-fold","counterexample_database":"a(0,1)\na(1,2)\n"})json"},
          {R"json({"type":"containment","id":18,"class":"rq","q1":"q(x,y) := tc[x,y](a(x,y))","q2":"q(x,y) := tc[x,y](a(x,y) | b(x,y))"})json",
           R"json({"id":18,"ok":true,"verdict":"proved","method":"uc2rpq:2rpq-fold"})json"},
          {R"json({"type":"containment","id":19,"class":"rq","q1":"q(x,y) := tc[x,y](exists[z](a(x,z) & a(z,y)))","q2":"q(x,y) := tc[x,y](a(x,y)) & exists[w](a(x,w))"})json",
           R"json({"id":19,"ok":true,"verdict":"unknown-up-to-bound","method":"expansion-bounded"})json"},
          {R"json({"type":"containment","id":24,"class":"datalog","q1":"# Which services can (transitively) end up calling which?\nimpact(X, Y) :- calls(X, Y).\nimpact(X, Z) :- impact(X, Y), calls(Y, Z).\n?- impact.\n","q2":"impact(X, Y) :- calls(X, Y).\nimpact(X, Z) :- calls(X, Y), impact(Y, Z).\n?- impact."})json",
           R"json({"id":24,"ok":true,"verdict":"proved","method":"grq:uc2rpq:2rpq-fold"})json"},
          {R"json({"type":"containment","id":25,"class":"datalog","q1":"p(X, Y) :- e(X, Y).\n?- p.","q2":"p(X, Y) :- e(X, Y), e(Y, Y).\n?- p."})json",
           R"json({"id":25,"ok":true,"verdict":"refuted","method":"grq:expansion-exact","counterexample_database":"e(0,1)\n"})json"},
          {R"json({"type":"containment","id":26,"class":"datalog","q1":"p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n?- p.","q2":"p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), e(Z, Y).\n?- p."})json",
           R"json({"id":26,"ok":true,"verdict":"refuted","method":"grq:uc2rpq:2rpq-fold","counterexample_database":"e(0,1)\ne(1,2)\ne(2,3)\n"})json"},
          {R"json({"type":"containment","id":27,"class":"datalog","q1":"p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, W), p(W, Y).\n?- p.","q2":"p(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), e(Z, Y).\n?- p."})json",
           R"json({"id":27,"ok":true,"verdict":"unknown-up-to-bound","method":"datalog-expansion-bounded"})json"},
          {R"json({"type":"containment","id":28,"class":"rpq","q1":"a (","q2":"a"})json",
           R"json({"id":28,"ok":false,"error":"invalid_request","message":"regex: expected expression at offset 3 (end of input)"})json"},
          {R"json({"type":"containment","id":29,"class":"rq","q1":"q(x,y) := a(x,y)","q2":"q(x) := a(x,x"})json",
           R"json({"id":29,"ok":false,"error":"invalid_request","message":"rq: expected ')' at offset 13 (end of input)"})json"},
          {R"json({"type":"containment","id":30,"class":"datalog","q1":"p(X) :- e(X, X).\n?- r.","q2":"p(X) :- e(X, X).\n?- p."})json",
           R"json({"id":30,"ok":false,"error":"invalid_request","message":"unknown predicate: r"})json"},
          {R"json({"type":"containment","id":31,"class":"cq","q1":"q(x,y) :- e(x,y)","q2":"q(x) :- e(x,x)"})json",
           R"json({"id":31,"ok":false,"error":"invalid_request","message":"UcqContained: arity mismatch"})json"},
          {R"json({"type":"containment","id":32,"class":"bogus","q1":"a","q2":"a"})json",
           R"json({"id":32,"ok":false,"error":"invalid_request","message":"unknown containment class 'bogus' (rpq|2rpq|cq|ucq|uc2rpq|rq|datalog)"})json"},
      },
      nullptr);
}

TEST(HandlersGoldenTest, EquivalenceInEveryClass) {
  ExpectGolden(
      {
          {R"json({"type":"equivalence","id":20,"class":"rq","q1":"q(x,y) := tc[x,y](a(x,y))","q2":"q(x,y) := tc[x,y](a(x,y) | a(x,y))"})json",
           R"json({"id":20,"ok":true,"verdict":"equivalent","forward":{"verdict":"proved","method":"uc2rpq:2rpq-fold"},"backward":{"verdict":"proved","method":"uc2rpq:2rpq-fold"}})json"},
          {R"json({"type":"equivalence","id":21,"class":"rq","q1":"q(x,y) := tc[x,y](a(x,y))","q2":"q(x,y) := a(x,y)"})json",
           R"json({"id":21,"ok":true,"verdict":"not-equivalent","forward":{"verdict":"refuted","method":"uc2rpq:2rpq-fold","counterexample_database":"a(0,1)\na(1,2)\n"},"backward":{"verdict":"unknown-up-to-bound","method":""}})json"},
          {R"json({"type":"equivalence","id":22,"class":"rq","q1":"q(x,y) := a(x,y)","q2":"q(x,y) := tc[x,y](a(x,y))"})json",
           R"json({"id":22,"ok":true,"verdict":"not-equivalent","forward":{"verdict":"proved","method":"uc2rpq:2rpq-fold"},"backward":{"verdict":"refuted","method":"uc2rpq:2rpq-fold","counterexample_database":"a(0,1)\na(1,2)\n"}})json"},
          {R"json({"type":"equivalence","id":23,"class":"rq","q1":"q(x,y) := tc[x,y](exists[z](a(x,z) & a(z,y)))","q2":"q(x,y) := tc[x,y](exists[z](a(x,z) & a(z,y))) & exists[w](a(x,w))"})json",
           R"json({"id":23,"ok":true,"verdict":"unknown-up-to-bound","forward":{"verdict":"unknown-up-to-bound","method":"expansion-bounded"},"backward":{"verdict":"unknown-up-to-bound","method":"expansion-bounded"}})json"},
          {R"json({"type":"equivalence","id":33,"class":"rpq","q1":"a a* b","q2":"a+ b"})json",
           R"json({"id":33,"ok":true,"verdict":"equivalent","forward":{"contained":true,"pipeline":"lemma1"},"backward":{"contained":true,"pipeline":"lemma1"}})json"},
          {R"json({"type":"equivalence","id":34,"class":"rpq","q1":"a* b","q2":"a a* b"})json",
           R"json({"id":34,"ok":true,"verdict":"not-equivalent","forward":{"contained":false,"pipeline":"lemma1","counterexample_word":"b"},"backward":{"contained":true,"pipeline":"lemma1"}})json"},
          {R"json({"type":"equivalence","id":35,"class":"2rpq","q1":"p","q2":"p p- p"})json",
           R"json({"id":35,"ok":true,"verdict":"not-equivalent","forward":{"contained":true,"pipeline":"2rpq-fold"},"backward":{"contained":false,"pipeline":"2rpq-fold","counterexample_word":"p p- p"}})json"},
          {R"json({"type":"equivalence","id":36,"class":"cq","q1":"q(x) :- e(x,x)","q2":"q(x) :- e(x,x)"})json",
           R"json({"id":36,"ok":false,"error":"unimplemented","message":"equivalence supports classes rpq|2rpq|rq, got 'cq'"})json"},
          {R"json({"type":"equivalence","id":37,"q1":"a","q2":"a"})json",
           R"json({"id":37,"ok":false,"error":"invalid_request","message":"equivalence supports classes rpq|2rpq|rq, got ''"})json"},
          {R"json({"type":"equivalence","id":38,"class":"rq","q1":"q(x,y) := a(x,y)","q2":"q(x) := a(x,x"})json",
           R"json({"id":38,"ok":false,"error":"invalid_request","message":"rq: expected ')' at offset 13 (end of input)"})json"},
      },
      nullptr);
}

TEST(HandlersGoldenTest, EvalOnAnInlineGraph) {
  ExpectGolden(
      {
          {R"json({"type":"eval","id":100,"class":"path","query":"knows+","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":100,"ok":true,"tuples":[["a","a"],["a","b"],["a","c"],["b","a"],["b","b"],["b","c"],["c","a"],["c","b"],["c","c"]],"count":9,"truncated":false})json"},
          {R"json({"type":"eval","id":102,"class":"path","query":"knows*","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":102,"ok":true,"tuples":[["a","a"],["a","b"],["a","c"],["b","a"],["b","b"],["b","c"],["c","a"],["c","b"],["c","c"],["t","t"],["s","s"]],"count":11,"truncated":false})json"},
          {R"json({"type":"eval","id":104,"class":"path","query":"member owns","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":104,"ok":true,"tuples":[["b","s"]],"count":1,"truncated":false})json"},
          {R"json({"type":"eval","id":106,"class":"path","query":"knows- member","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":106,"ok":true,"tuples":[["c","t"]],"count":1,"truncated":false})json"},
          {R"json({"type":"eval","id":108,"class":"path","query":"likes+","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":108,"ok":true,"tuples":[],"count":0,"truncated":false})json"},
          {R"json({"type":"eval","id":110,"class":"crpq","query":"q(x,y) :- (knows+)(x,y), (member)(x,g), (member)(y,g)","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":110,"ok":true,"tuples":[["b","b"]],"count":1,"truncated":false})json"},
          {R"json({"type":"eval","id":112,"class":"crpq","query":"q(x,s) :- (member owns)(x,s)\nq(x,s) :- (knows member owns)(x,s)","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":112,"ok":true,"tuples":[["a","s"],["b","s"]],"count":2,"truncated":false})json"},
          {R"json({"type":"eval","id":114,"class":"rq","query":"q(x,y) := tc[x,y](knows(x,y))","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":114,"ok":true,"tuples":[["a","a"],["a","b"],["a","c"],["b","a"],["b","b"],["b","c"],["c","a"],["c","b"],["c","c"]],"count":9,"truncated":false})json"},
          {R"json({"type":"eval","id":116,"class":"rq","query":"q(x) := exists[t](member(x,t) & owns(t,db))","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":116,"ok":true,"tuples":[["b"]],"count":1,"truncated":false})json"},
          {R"json({"type":"eval","id":118,"class":"rq","query":"q(x,y) := tc[x,y](calls(x,y)) | owns(x,y)","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":118,"ok":true,"tuples":[["t","s"]],"count":1,"truncated":false})json"},
          {R"json({"type":"eval","id":120,"class":"datalog","query":"# Which services can (transitively) end up calling which?\nimpact(X, Y) :- calls(X, Y).\nimpact(X, Z) :- impact(X, Y), calls(Y, Z).\n?- impact.\n","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":120,"ok":true,"tuples":[],"count":0,"truncated":false})json"},
          {R"json({"type":"eval","id":122,"class":"datalog","query":"same(X, Y) :- member(X, T), member(Y, T).\n?- same.","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":122,"ok":true,"tuples":[["b","b"]],"count":1,"truncated":false})json"},
          {R"json({"type":"eval","id":124,"class":"path","query":"knows+ (","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":124,"ok":false,"error":"invalid_request","message":"regex: expected expression at offset 8 (end of input)"})json"},
          {R"json({"type":"eval","id":126,"class":"rq","query":"q(x,y) := tc[x,y](knows(x,y)","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":126,"ok":false,"error":"invalid_request","message":"rq: expected ')' at offset 28 (end of input)"})json"},
          {R"json({"type":"eval","id":128,"class":"datalog","query":"p(X) :- knows(X, X).\n?- r.","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":128,"ok":false,"error":"invalid_request","message":"unknown predicate: r"})json"},
          {R"json({"type":"eval","id":130,"class":"bogus","query":"knows","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n"})json",
           R"json({"id":130,"ok":false,"error":"invalid_request","message":"unknown eval class 'bogus' (path|crpq|rq|datalog)"})json"},
          {R"json({"type":"eval","id":132,"class":"path","query":"knows","graph":"a knows"})json",
           R"json({"id":132,"ok":false,"error":"invalid_request","message":"graph line 1: expected 'src label dst'"})json"},
          {R"json({"type":"eval","id":133,"class":"path","query":"knows+","graph":"a knows b\nb knows c\nc knows a\nb member t\nt owns s\n","max_tuples":2})json",
           R"json({"id":133,"ok":true,"tuples":[["a","a"],["a","b"]],"count":9,"truncated":true})json"},
          {R"json({"type":"eval","id":134,"class":"path","query":"knows"})json",
           R"json({"id":134,"ok":false,"error":"invalid_request","message":"no graph: pass a 'graph' field, start the server with --graph, or send an update first"})json"},
      },
      nullptr);
}

TEST(HandlersGoldenTest, EvalOnALoadedStore) {
  auto graph = GraphDb::FromText(
      "ana knows bo\nbo knows cy\ncy knows ana\nbo knows dee\n"
      "dee knows eve\nana member core\nbo member core\ncy member infra\n"
      "dee member infra\neve member apps\ncore owns auth\ninfra owns db\n"
      "infra owns cache\napps owns web\nweb calls auth\nweb calls db\n"
      "auth calls db\ndb calls cache\n");
  ASSERT_TRUE(graph.ok());
  GraphStore store;
  store.Load(*graph);
  ExpectGolden(
      {
          {R"json({"type":"eval","id":101,"class":"path","query":"knows+"})json",
           R"json({"id":101,"ok":true,"tuples":[["ana","ana"],["ana","bo"],["ana","cy"],["ana","dee"],["ana","eve"],["bo","ana"],["bo","bo"],["bo","cy"],["bo","dee"],["bo","eve"],["cy","ana"],["cy","bo"],["cy","cy"],["cy","dee"],["cy","eve"],["dee","eve"]],"count":16,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":103,"class":"path","query":"knows*"})json",
           R"json({"id":103,"ok":true,"tuples":[["ana","ana"],["ana","bo"],["ana","cy"],["ana","dee"],["ana","eve"],["bo","ana"],["bo","bo"],["bo","cy"],["bo","dee"],["bo","eve"],["cy","ana"],["cy","bo"],["cy","cy"],["cy","dee"],["cy","eve"],["dee","dee"],["dee","eve"],["eve","eve"],["core","core"],["infra","infra"],["apps","apps"],["auth","auth"],["db","db"],["cache","cache"],["web","web"]],"count":25,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":105,"class":"path","query":"member owns"})json",
           R"json({"id":105,"ok":true,"tuples":[["ana","auth"],["bo","auth"],["cy","db"],["cy","cache"],["dee","db"],["dee","cache"],["eve","web"]],"count":7,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":107,"class":"path","query":"knows- member"})json",
           R"json({"id":107,"ok":true,"tuples":[["ana","infra"],["bo","core"],["cy","core"],["dee","core"],["eve","infra"]],"count":5,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":109,"class":"path","query":"likes+"})json",
           R"json({"id":109,"ok":true,"tuples":[],"count":0,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":111,"class":"crpq","query":"q(x,y) :- (knows+)(x,y), (member)(x,g), (member)(y,g)"})json",
           R"json({"id":111,"ok":true,"tuples":[["ana","ana"],["ana","bo"],["bo","ana"],["bo","bo"],["cy","cy"],["cy","dee"]],"count":6,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":113,"class":"crpq","query":"q(x,s) :- (member owns)(x,s)\nq(x,s) :- (knows member owns)(x,s)"})json",
           R"json({"id":113,"ok":true,"tuples":[["ana","auth"],["bo","auth"],["bo","db"],["bo","cache"],["cy","auth"],["cy","db"],["cy","cache"],["dee","db"],["dee","cache"],["dee","web"],["eve","web"]],"count":11,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":115,"class":"rq","query":"q(x,y) := tc[x,y](knows(x,y))"})json",
           R"json({"id":115,"ok":true,"tuples":[["ana","ana"],["ana","bo"],["ana","cy"],["ana","dee"],["ana","eve"],["bo","ana"],["bo","bo"],["bo","cy"],["bo","dee"],["bo","eve"],["cy","ana"],["cy","bo"],["cy","cy"],["cy","dee"],["cy","eve"],["dee","eve"]],"count":16,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":117,"class":"rq","query":"q(x) := exists[t](member(x,t) & owns(t,db))"})json",
           R"json({"id":117,"ok":true,"tuples":[["ana"],["bo"],["cy"],["dee"],["eve"]],"count":5,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":119,"class":"rq","query":"q(x,y) := tc[x,y](calls(x,y)) | owns(x,y)"})json",
           R"json({"id":119,"ok":true,"tuples":[["core","auth"],["infra","db"],["infra","cache"],["apps","web"],["auth","db"],["auth","cache"],["db","cache"],["web","auth"],["web","db"],["web","cache"]],"count":10,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":121,"class":"datalog","query":"# Which services can (transitively) end up calling which?\nimpact(X, Y) :- calls(X, Y).\nimpact(X, Z) :- impact(X, Y), calls(Y, Z).\n?- impact.\n"})json",
           R"json({"id":121,"ok":true,"tuples":[["auth","db"],["auth","cache"],["db","cache"],["web","auth"],["web","db"],["web","cache"]],"count":6,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":123,"class":"datalog","query":"same(X, Y) :- member(X, T), member(Y, T).\n?- same."})json",
           R"json({"id":123,"ok":true,"tuples":[["ana","ana"],["ana","bo"],["bo","ana"],["bo","bo"],["cy","cy"],["cy","dee"],["dee","cy"],["dee","dee"],["eve","eve"]],"count":9,"truncated":false,"epoch":1})json"},
          {R"json({"type":"eval","id":125,"class":"path","query":"knows+ ("})json",
           R"json({"id":125,"ok":false,"error":"invalid_request","message":"regex: expected expression at offset 8 (end of input)"})json"},
          {R"json({"type":"eval","id":127,"class":"rq","query":"q(x,y) := tc[x,y](knows(x,y)"})json",
           R"json({"id":127,"ok":false,"error":"invalid_request","message":"rq: expected ')' at offset 28 (end of input)"})json"},
          {R"json({"type":"eval","id":129,"class":"datalog","query":"p(X) :- knows(X, X).\n?- r."})json",
           R"json({"id":129,"ok":false,"error":"invalid_request","message":"unknown predicate: r"})json"},
          {R"json({"type":"eval","id":131,"class":"bogus","query":"knows"})json",
           R"json({"id":131,"ok":false,"error":"invalid_request","message":"unknown eval class 'bogus' (path|crpq|rq|datalog)"})json"},
          {R"json({"type":"eval","id":135,"class":"path","query":"knows+"})json",
           R"json({"id":135,"ok":true,"tuples":[["ana","ana"],["ana","bo"],["ana","cy"],["ana","dee"],["ana","eve"],["bo","ana"],["bo","bo"],["bo","cy"],["bo","dee"],["bo","eve"],["cy","ana"],["cy","bo"],["cy","cy"],["cy","dee"],["cy","eve"],["dee","eve"]],"count":16,"truncated":false,"epoch":1,"cached":true})json"},
          {R"json({"type":"eval","id":136,"class":"rq","query":"q(x,y) := tc[x,y](knows(x,y))"})json",
           R"json({"id":136,"ok":true,"tuples":[["ana","ana"],["ana","bo"],["ana","cy"],["ana","dee"],["ana","eve"],["bo","ana"],["bo","bo"],["bo","cy"],["bo","dee"],["bo","eve"],["cy","ana"],["cy","bo"],["cy","cy"],["cy","dee"],["cy","eve"],["dee","eve"]],"count":16,"truncated":false,"epoch":1,"cached":true})json"},
      },
      &store);
  // One knows edge: epoch 2, whose knows+ comes from the closure the
  // first knows+ eval seeded, grown by the update.
  UpdateOp edge;
  edge.kind = UpdateOp::Kind::kAddEdge;
  edge.src = "eve";
  edge.label = "knows";
  edge.dst = "ana";
  ASSERT_TRUE(store.Apply({edge}).ok());
  ExpectGolden(
      {
          {R"json({"type":"eval","id":137,"class":"path","query":"knows+","max_tuples":3})json",
           R"json({"id":137,"ok":true,"tuples":[["ana","ana"],["ana","bo"],["ana","cy"]],"count":25,"truncated":true,"epoch":2,"incremental":true})json"},
          {R"json({"type":"eval","id":138,"class":"crpq","query":"q(x,y) :- (knows+)(x,y), (member)(x,g), (member)(y,g)"})json",
           R"json({"id":138,"ok":true,"tuples":[["ana","ana"],["ana","bo"],["bo","ana"],["bo","bo"],["cy","cy"],["cy","dee"],["dee","cy"],["dee","dee"],["eve","eve"]],"count":9,"truncated":false,"epoch":2})json"},
      },
      &store);
}

}  // namespace
}  // namespace server
}  // namespace rq

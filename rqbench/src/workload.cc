#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "automata/containment.h"
#include "common/rng.h"
#include "crpq/crpq.h"
#include "crpq/to_datalog.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "pathquery/containment.h"
#include "pathquery/path_query.h"
#include "pathquery/to_datalog.h"
#include "regex/regex.h"
#include "relational/cq.h"
#include "rq/containment.h"
#include "rq/equivalence.h"
#include "rq/eval.h"
#include "rq/parser.h"
#include "rq/to_datalog.h"
#include "stats.h"

namespace rqbench {

using rq::Rng;

namespace {

// The graph is the disjoint union of kComponents SocialNetwork graphs, each
// from its own derived seed (~1.3k nodes and ~3k edges in all). Four
// components of 150 people keep the maintained `knows` closure large
// (~4.0k pairs at load, ~6.6k after a mixed_rw cycle's writes, ~4.8k after
// a read-only cycle's), so that copying it once per inserted edge is most
// of a batch's cost.
constexpr size_t kComponents = 4;
constexpr size_t kPeople = 150;  // per component
constexpr size_t kGroups = 16;
constexpr size_t kPosts = 150;
constexpr size_t kEdgesPerBatch = 8;
// Most of the read and write work grows with the knows closure and the
// co-member pairs (`member member-`). With one draw per component their
// sizes spread by 7-9% over 20 seeds (IQR over median), which moved
// write_p50_ms by 25% between two seeds. Each component, and the write
// batches, is instead the one of kSizeCandidates seeded draws whose sizes
// lie nearest the draws' median: the sizes then spread by 2-3%.
constexpr size_t kSizeCandidates = 15;

// Fixed work per second of the `seconds` Generate is given, for the whole
// run of kCycles cycles. The read-only workloads send each slice of their
// read order kCycles / slices times; at --seconds 24 eval_cold sends 1152
// distinct evals 3 times each (about 15 s of reads), analyze 86.4k Zipf
// draws 4 times each (about 15 s). eval_cold's p90_ms is set by the
// slowest tenth of its queries, mostly Datalog and C2RPQ, so it takes more
// distinct queries: with 864 sent 4 times each, p90_ms spread by 0.16
// over five seeds (IQR over median).
constexpr size_t kEvalSlices = 4;
constexpr size_t kAnalyzeSlices = 3;
constexpr int kEvalReadsPerSecond = 48;
constexpr int kEvalWarmup = 16;
constexpr int kAnalyzeReadsPerSecond = 3600;
constexpr size_t kAnalyzePool = 3000;
constexpr size_t kAnalyzeWarmup = 300;
constexpr double kZipfExponent = 0.8;
// Every workload sends its batches on an open-loop schedule, one every
// 50 ms: mixed_rw alongside its reads for most of each cycle (36 batches at
// --seconds 24), the read-only workloads after their reads (12). Sent back
// to back instead, the read-only workloads' batches took ~13 ms at the
// median against ~17 ms on the schedule, but their write_p50_ms and
// write_p90_ms spread by 0.14 and 0.25 over six seeds (IQR over median)
// against 0.09 and 0.11.
constexpr double kWriteIntervalMs = 50;
constexpr double kMixedBatchesPerSecond = 1.5;
constexpr double kReadOnlyBatchesPerSecond = 0.5;
// mixed_rw's traced replay follows each batch with this many reads (four
// rounds of its read set), a constant of the stream so the replayed mix of
// computed and cached evals depends on the seed alone.
constexpr size_t kReplayReadsPerBatch = 20;
// Reads in flight per connection. mixed_rw's reader keeps two: with one in
// flight each read waits on several thread wake-ups, whose cost on a shared
// host swung its throughput by up to 40% between runs, and with four the
// reads crowded the writes (write_p90_ms of one seed moved by up to 22%
// between runs, against 2% with two). analyze keeps one: with four its
// throughput split between ~20k and ~48k req/s from run to run.
constexpr size_t kSingleDepth = 1;
constexpr size_t kMixedReadDepth = 2;
constexpr int64_t kMaxTuples = 16;
// eval_cold skips path queries whose answer, estimated from a fixed sample
// of sources, exceeds this many pairs: a handful of near-quadratic answers
// would otherwise decide a run's throughput and its check time.
constexpr double kMaxEstimatedPairs = 10000;
constexpr size_t kEstimateSources = 32;

enum NodeType { kPerson, kGroup, kPost };

struct LabelSig {
  const char* name;
  NodeType src;
  NodeType dst;
};
constexpr LabelSig kLabels[] = {{"knows", kPerson, kPerson},
                                {"member", kPerson, kGroup},
                                {"posted", kPerson, kPost},
                                {"likes", kPerson, kPost}};

// One typed traversal step: a forward or inverse label use, written both
// as a regex atom and as the (src, dst) argument order of a relational
// atom.
struct Step {
  std::string regex;
  std::string label;
  bool inverse = false;
  NodeType to = kPerson;
};

std::vector<Step> AtomsFrom(NodeType from) {
  std::vector<Step> out;
  for (const LabelSig& l : kLabels) {
    if (l.src == from) out.push_back({l.name, l.name, false, l.dst});
    if (l.dst == from) {
      out.push_back({std::string(l.name) + "-", l.name, true, l.src});
    }
  }
  return out;
}

NodeType RandomStartType(Rng& rng) {
  double r = rng.NextDouble();
  return r < 0.6 ? kPerson : (r < 0.75 ? kGroup : kPost);
}

Step RandomAtom(NodeType from, Rng& rng) {
  std::vector<Step> atoms = AtomsFrom(from);
  return atoms[rng.Below(atoms.size())];
}

// A regex step from `from`: an atom, a union of two atoms with the same
// target type, or (from a person) a closure over knows in one direction.
Step RandomRegexStep(NodeType from, bool allow_closure, Rng& rng) {
  double r = rng.NextDouble();
  if (allow_closure && from == kPerson && r < 0.2) {
    Step s = RandomAtom(kPerson, rng);
    if (s.label != "knows") s = {"knows", "knows", false, kPerson};
    s.regex += "+";
    return s;
  }
  Step a = RandomAtom(from, rng);
  if (r < 0.45) {
    std::vector<Step> same;
    for (const Step& b : AtomsFrom(from)) {
      if (b.to == a.to && b.regex != a.regex) same.push_back(b);
    }
    if (!same.empty()) {
      const Step& b = same[rng.Below(same.size())];
      a.regex = "(" + a.regex + " | " + b.regex + ")";
    }
  }
  return a;
}

struct TypedPath {
  std::string text;
  NodeType from = kPerson;
  NodeType to = kPerson;
};

// At most one closure step per path, and none when `closures` is false.
TypedPath RandomPath(NodeType from, int min_steps, int max_steps,
                     bool closures, Rng& rng) {
  TypedPath path;
  path.from = from;
  path.to = from;
  int steps = static_cast<int>(rng.Between(min_steps, max_steps));
  for (int i = 0; i < steps; ++i) {
    Step s = RandomRegexStep(path.to, closures, rng);
    if (s.regex.back() == '+') closures = false;
    if (!path.text.empty()) path.text += " ";
    path.text += s.regex;
    path.to = s.to;
  }
  return path;
}

std::string RelAtom(const Step& s, const std::string& a, const std::string& b) {
  return s.label + "(" + (s.inverse ? b : a) + ", " + (s.inverse ? a : b) +
         ")";
}

// exists[v1, ...](a(x, v1) & b(v1, v2) & ... & z(vk, y)) over 2 or 3 typed
// atoms from `from`; *to receives the type of y.
std::string RandomRqChain(NodeType from, const std::string& var,
                          NodeType* to, Rng& rng) {
  int atoms = 2 + static_cast<int>(rng.Below(2));
  std::string vars;
  std::string body;
  std::string prev = "x";
  NodeType at = from;
  for (int i = 0; i < atoms; ++i) {
    std::string next = i + 1 == atoms ? "y" : var + std::to_string(i);
    if (i + 1 < atoms) vars += (vars.empty() ? "" : ", ") + next;
    Step s = RandomAtom(at, rng);
    body += (body.empty() ? "" : " & ") + RelAtom(s, prev, next);
    prev = next;
    at = s.to;
  }
  *to = at;
  return "exists[" + vars + "](" + body + ")";
}

BenchRequest EvalRequest(std::string cls, std::string query) {
  BenchRequest r;
  r.type = "eval";
  r.cls = std::move(cls);
  r.query = std::move(query);
  r.max_tuples = kMaxTuples;
  return r;
}

// Answer size of `text` extrapolated from kEstimateSources sources spread
// evenly over the node ids.
double EstimatePairs(const rq::GraphDb& graph,
                     const rq::GraphSnapshot& snapshot,
                     const std::string& text) {
  rq::Alphabet alphabet = graph.alphabet();
  auto regex = rq::ParseRegex(text, &alphabet);
  RQ_CHECK(regex.ok());
  rq::Nfa nfa = (*regex)->ToNfa(static_cast<uint32_t>(alphabet.num_symbols()));
  size_t step = std::max<size_t>(1, graph.num_nodes() / kEstimateSources);
  size_t reached = 0;
  size_t sampled = 0;
  for (size_t n = 0; n < graph.num_nodes(); n += step, ++sampled) {
    reached +=
        rq::EvalPathQueryFrom(snapshot, nfa, static_cast<rq::NodeId>(n))
            .size();
  }
  return static_cast<double>(reached) * static_cast<double>(graph.num_nodes()) /
         static_cast<double>(sampled);
}

// One eval_cold query, or nullopt for a query over the size limit.
// Closure-shaped `knows+` is excluded: answering it seeds the maintained
// closure, so the reads would not all run against the same server state.
// `r` in [0, 1) picks the class: the caller derives it from the request's
// position, so every seed gets the same class mix in the same order.
std::optional<BenchRequest> RandomEval(const rq::GraphDb& graph,
                                       const rq::GraphSnapshot& snapshot,
                                       double r, Rng& rng) {
  if (r < 0.6) {
    TypedPath p = RandomPath(RandomStartType(rng), 1, 4, true, rng);
    if (p.text == "knows+") p.text = "knows+ knows";
    if (EstimatePairs(graph, snapshot, p.text) > kMaxEstimatedPairs) {
      return std::nullopt;
    }
    return EvalRequest("path", p.text);
  }
  if (r < 0.75) {
    TypedPath p1 = RandomPath(RandomStartType(rng), 1, 2, false, rng);
    TypedPath p2 = RandomPath(p1.to, 1, 2, false, rng);
    return EvalRequest("crpq", "q(x, y) :- (" + p1.text + ")(x, z), (" +
                                   p2.text + ")(z, y)");
  }
  if (r < 0.85) {
    NodeType t = RandomStartType(rng);
    NodeType end = t;
    std::string chain = RandomRqChain(t, "z", &end, rng);
    if (rng.Chance(0.5)) {
      NodeType other_end = t;
      std::string other = RandomRqChain(t, "w", &other_end, rng);
      if (other_end == end) chain += " | " + other;
    }
    return EvalRequest("rq", "q(x, y) := " + chain);
  }
  TypedPath p = RandomPath(RandomStartType(rng), 1, 3, true, rng);
  if (EstimatePairs(graph, snapshot, p.text) > kMaxEstimatedPairs) {
    return std::nullopt;
  }
  rq::Alphabet local = graph.alphabet();
  auto regex = rq::ParseRegex(p.text, &local);
  RQ_CHECK(regex.ok());
  auto program = rq::PathQueryToDatalog(**regex, local);
  RQ_CHECK(program.ok());
  BenchRequest req = EvalRequest("datalog", program->ToString());
  // Kept for the expected answer: a Datalog request is checked against
  // product-BFS over the regex it was translated from.
  req.q1 = p.text;
  return req;
}

BenchRequest CheckRequest(std::string type, std::string cls, std::string q1,
                          std::string q2) {
  BenchRequest r;
  r.type = std::move(type);
  r.cls = std::move(cls);
  r.q1 = std::move(q1);
  r.q2 = std::move(q2);
  return r;
}

std::string RandomLabel(Rng& rng) {
  return kLabels[rng.Below(std::size(kLabels))].name;
}

// A CQ chain x -> ... -> y over `atoms` random labels.
std::string RandomCqChain(int atoms, Rng& rng) {
  std::string body;
  std::string prev = "x";
  for (int i = 0; i < atoms; ++i) {
    std::string next = i + 1 == atoms ? "y" : "z" + std::to_string(i);
    if (!body.empty()) body += ", ";
    body += RandomLabel(rng) + "(" + prev + ", " + next + ")";
    prev = next;
  }
  return body;
}

// One analyze pool entry; `r` picks the class as in RandomEval. Roughly
// half the pairs are planted to hold (q1 is a specialisation of q2) so
// both verdicts are common.
BenchRequest RandomCheck(const rq::Alphabet& alphabet, double r, Rng& rng) {
  bool planted = rng.Chance(0.5);
  auto regex = [&](bool inverse, int depth) {
    return rq::RandomRegex(alphabet, depth, inverse, rng)->ToString(alphabet);
  };
  if (r < 0.30) {  // rpq containment
    std::string q1 = regex(false, 3);
    std::string q2 = planted ? "(" + q1 + ") | " + regex(false, 2)
                             : regex(false, 3);
    return CheckRequest("containment", "rpq", q1, q2);
  }
  if (r < 0.40) {  // rpq equivalence
    std::string q1 = regex(false, 2);
    std::string q2 = planted ? "(" + q1 + ") (" + q1 + ")*" : regex(false, 2);
    if (planted) q1 = "(" + q1 + ")+";
    return CheckRequest("equivalence", "rpq", q1, q2);
  }
  if (r < 0.55) {  // 2rpq containment: the fold and complement pipeline
    if (!planted) {
      return CheckRequest("containment", "2rpq", regex(true, 2),
                          regex(true, 2));
    }
    // p ⊑ p p- p holds for a word p although the languages differ; the
    // reverse direction is refuted.
    std::string word;
    std::string inverse;
    for (int i = 0, n = 1 + static_cast<int>(rng.Below(2)); i < n; ++i) {
      std::string label = RandomLabel(rng);
      bool inv = rng.Chance(0.35);
      word += (word.empty() ? "" : " ") + label + (inv ? "-" : "");
      inverse = label + (inv ? "" : "-") + (inverse.empty() ? "" : " ") +
                inverse;
    }
    std::string q1 = word;
    std::string q2 = word + " " + inverse + " " + word;
    if (rng.Chance(0.5)) std::swap(q1, q2);
    return CheckRequest("containment", "2rpq", q1, q2);
  }
  if (r < 0.70) {  // uc2rpq
    std::string a = regex(true, 1);
    std::string b = regex(true, 1);
    std::string q1 = "q(x, y) :- (" + a + ")(x, z), (" + b + ")(z, y)";
    std::string q2 = planted ? "q(x, y) :- (" + a + " " + b + ")(x, y)"
                             : "q(x, y) :- (" + regex(true, 1) + ")(x, y)";
    if (!planted && rng.Chance(0.5)) std::swap(q1, q2);
    return CheckRequest("containment", "uc2rpq", q1, q2);
  }
  if (r < 0.85) {  // cq / ucq
    std::string q2 = "q(x, y) :- " + RandomCqChain(2, rng);
    std::string q1 = planted ? q2 + ", " + RandomLabel(rng) + "(x, y)"
                             : "q(x, y) :- " + RandomCqChain(2, rng);
    if (rng.Chance(0.5)) {
      std::string extra = "q(x, y) :- " + RandomCqChain(1, rng);
      q2 += "\n" + extra;
      return CheckRequest("containment", "ucq", q1, q2);
    }
    return CheckRequest("containment", "cq", q1, q2);
  }
  // rq containment / equivalence over binary expressions a and b (an atom
  // or a two-atom chain through their own bound variable).
  auto binary = [&](const char* bound) {
    if (rng.Chance(0.5)) return RandomLabel(rng) + "(x, y)";
    return "exists[" + std::string(bound) + "](" + RandomLabel(rng) + "(x, " +
           bound + ") & " + RandomLabel(rng) + "(" + bound + ", y))";
  };
  std::string a = binary("w");
  std::string b = binary("v");
  std::string q1;
  std::string q2;
  switch (rng.Below(4)) {
    case 0:
      q1 = "q(x, y) := " + a;
      q2 = "q(x, y) := tc[x,y](" + a + ")";
      break;
    case 1:
      q1 = "q(x, y) := tc[x,y](" + a + ")";
      q2 = "q(x, y) := " + a;
      break;
    case 2:
      q1 = "q(x, y) := " + a;
      q2 = "q(x, y) := " + a + " | " + b;
      break;
    default:
      q1 = "q(x, y) := " + a + " & " + b;
      q2 = "q(x, y) := " + a;
      break;
  }
  if (!planted) std::swap(q1, q2);
  return CheckRequest(rng.Chance(0.3) ? "equivalence" : "containment", "rq",
                      q1, q2);
}

// Person `i` of component `c` (the generator numbers people first).
std::string PersonName(size_t c, size_t i) {
  return "c" + std::to_string(c) + "n" + std::to_string(i);
}

// Pairs in the transitive closure of `graph`'s knows edges.
double KnowsClosurePairs(const rq::GraphDb& graph) {
  rq::Database db = rq::GraphToDatabase(graph);
  const rq::Relation* knows = db.Find("knows");
  if (knows == nullptr) return 0;
  return static_cast<double>(rq::BinaryTransitiveClosure(*knows).size());
}

// Ordered pairs of people who share a group: the answer to
// `member member-`.
double CoMemberPairs(const rq::GraphDb& graph) {
  std::map<rq::NodeId, std::vector<rq::NodeId>> members;
  for (const rq::Edge& e : graph.edges()) {
    if (graph.alphabet().LabelName(e.label) == "member") {
      members[e.dst].push_back(e.src);
    }
  }
  std::set<std::pair<rq::NodeId, rq::NodeId>> pairs;
  for (const auto& [group, people] : members) {
    for (rq::NodeId a : people) {
      for (rq::NodeId b : people) pairs.insert({a, b});
    }
  }
  return static_cast<double>(pairs.size());
}

// The candidate nearest the candidates' medians: `sizes[m][k]` is measure m
// of candidate k, and the distance sums the relative gaps over the
// measures.
size_t NearestMedian(const std::vector<std::vector<double>>& sizes) {
  size_t best = 0;
  double best_gap = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < sizes[0].size(); ++k) {
    double gap = 0;
    for (const std::vector<double>& measure : sizes) {
      double median = Median(measure);
      gap += median > 0 ? std::abs(measure[k] / median - 1) : 0;
    }
    if (gap < best_gap) {
      best = k;
      best_gap = gap;
    }
  }
  return best;
}

// Each component is the one of kSizeCandidates seeded SocialNetwork graphs
// whose knows closure and co-member pairs lie nearest the candidates'
// medians.
std::string UnionOfNetworks(Rng& rng) {
  std::string text;
  for (size_t c = 0; c < kComponents; ++c) {
    std::vector<rq::GraphDb> candidates;
    std::vector<std::vector<double>> sizes(2);
    for (size_t k = 0; k < kSizeCandidates; ++k) {
      candidates.push_back(
          rq::SocialNetwork(kPeople, kGroups, kPosts, rng.Next()));
      sizes[0].push_back(KnowsClosurePairs(candidates.back()));
      sizes[1].push_back(CoMemberPairs(candidates.back()));
    }
    std::string part = candidates[NearestMedian(sizes)].ToText();
    // "nA label nB" -> "cKnA label cKnB"
    std::string prefix = "c" + std::to_string(c);
    size_t line = 0;
    while (line < part.size()) {
      size_t end = part.find('\n', line);
      size_t last = part.rfind(' ', end);
      text += prefix + part.substr(line, last + 1 - line) + prefix +
              part.substr(last + 1, end - last - 1) + "\n";
      line = end + 1;
    }
  }
  return text;
}

// Every batch adds knows edges from a later to an earlier person of one
// component (the generator's own direction), skipping pairs already
// present.
std::vector<BenchRequest> RandomBatches(const rq::GraphDb& graph,
                                        size_t count, Rng& rng) {
  std::set<std::pair<std::string, std::string>> present;
  for (const rq::Edge& e : graph.edges()) {
    if (graph.alphabet().LabelName(e.label) != "knows") continue;
    present.insert({graph.NodeName(e.src), graph.NodeName(e.dst)});
  }
  std::vector<BenchRequest> batches;
  for (size_t b = 0; b < count; ++b) {
    BenchRequest req;
    req.type = "update";
    while (req.ops.size() < kEdgesPerBatch) {
      size_t c = rng.Below(kComponents);
      size_t src = 1 + rng.Below(kPeople - 1);
      size_t dst = rng.Below(src);
      EdgeOp op{PersonName(c, src), "knows", PersonName(c, dst)};
      if (!present.insert({op.src, op.dst}).second) continue;
      req.ops.push_back(std::move(op));
    }
    batches.push_back(std::move(req));
  }
  return batches;
}

// The one of kSizeCandidates seeded batch lists after which the knows
// closure lies nearest the candidates' median.
std::vector<BenchRequest> WriteBatches(const rq::GraphDb& graph, size_t count,
                                       Rng& rng) {
  std::vector<std::vector<BenchRequest>> candidates;
  std::vector<std::vector<double>> sizes(1);
  for (size_t k = 0; k < kSizeCandidates; ++k) {
    candidates.push_back(RandomBatches(graph, count, rng));
    rq::GraphDb after = graph;
    uint32_t knows = after.alphabet().InternLabel("knows");
    for (const BenchRequest& batch : candidates.back()) {
      for (const EdgeOp& op : batch.ops) {
        after.AddEdge(after.AddNamedNode(op.src), knows,
                      after.AddNamedNode(op.dst));
      }
    }
    sizes[0].push_back(KnowsClosurePairs(after));
  }
  return std::move(candidates[NearestMedian(sizes)]);
}

// Request i's class comes from i mod 20: a fixed mix, in a fixed order.
double ClassPosition(size_t i) {
  return (static_cast<double>(i % 20) + 0.5) / 20;
}

std::vector<uint32_t> ZipfOrder(size_t pool, size_t draws, double exponent,
                                Rng& rng) {
  std::vector<double> cdf(pool);
  double total = 0;
  for (size_t i = 0; i < pool; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf[i] = total;
  }
  std::vector<uint32_t> order;
  order.reserve(draws);
  for (size_t i = 0; i < draws; ++i) {
    double u = rng.NextDouble() * total;
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    order.push_back(static_cast<uint32_t>(std::min(rank, pool - 1)));
  }
  return order;
}

std::string RenderRows(const rq::GraphDb& graph,
                       const std::vector<rq::Tuple>& sorted,
                       int64_t max_rows) {
  rq::obs::JsonValue rows = rq::obs::JsonValue::Array();
  for (size_t i = 0; i < sorted.size() && static_cast<int64_t>(i) < max_rows;
       ++i) {
    rq::obs::JsonValue row = rq::obs::JsonValue::Array();
    for (rq::Value v : sorted[i]) {
      row.Append(rq::obs::JsonValue::String(
          graph.NodeName(static_cast<rq::NodeId>(v))));
    }
    rows.Append(std::move(row));
  }
  return rows.Dump();
}

rq::Result<rq::Relation> EvalThroughDatalog(const BenchRequest& req,
                                            const rq::GraphDb& graph,
                                            const rq::Database& db) {
  rq::Alphabet alphabet = graph.alphabet();
  if (req.cls == "path") {
    RQ_ASSIGN_OR_RETURN(rq::RegexPtr regex,
                        rq::ParseRegex(req.query, &alphabet));
    RQ_ASSIGN_OR_RETURN(rq::DatalogProgram program,
                        rq::PathQueryToDatalog(*regex, alphabet));
    return rq::EvalDatalogGoal(program, db);
  }
  if (req.cls == "crpq") {
    RQ_ASSIGN_OR_RETURN(rq::Uc2Rpq query,
                        rq::ParseUc2Rpq(req.query, &alphabet));
    RQ_ASSIGN_OR_RETURN(rq::DatalogProgram program,
                        rq::Uc2RpqToDatalog(query, alphabet));
    return rq::EvalDatalogGoal(program, db);
  }
  if (req.cls == "rq") {
    RQ_ASSIGN_OR_RETURN(rq::RqQuery query, rq::ParseRq(req.query));
    RQ_ASSIGN_OR_RETURN(rq::DatalogProgram program, rq::RqToDatalog(query));
    return rq::EvalDatalogGoal(program, db);
  }
  // datalog: product-BFS over the regex the program was translated from.
  RQ_ASSIGN_OR_RETURN(rq::RegexPtr regex, rq::ParseRegex(req.q1, &alphabet));
  rq::Relation out(2);
  for (const auto& [x, y] : rq::EvalPathQuery(graph, *regex)) {
    out.Insert({x, y});
  }
  return out;
}

const char* Proved(bool contained) { return contained ? "proved" : "refuted"; }

rq::Result<std::string> ExpectedVerdict(const BenchRequest& req) {
  bool equivalence = req.type == "equivalence";
  if (req.cls == "rpq") {
    rq::Alphabet alphabet;
    RQ_ASSIGN_OR_RETURN(rq::RegexPtr r1, rq::ParseRegex(req.q1, &alphabet));
    RQ_ASSIGN_OR_RETURN(rq::RegexPtr r2, rq::ParseRegex(req.q2, &alphabet));
    auto n = static_cast<uint32_t>(alphabet.num_symbols());
    rq::Nfa a = r1->ToNfa(n);
    rq::Nfa b = r2->ToNfa(n);
    bool forward = rq::CheckLanguageContainmentExplicit(a, b).contained;
    if (!equivalence) return std::string(Proved(forward));
    bool backward = rq::CheckLanguageContainmentExplicit(b, a).contained;
    return std::string(forward && backward ? "equivalent" : "not-equivalent");
  }
  if (req.cls == "2rpq") {
    rq::Alphabet alphabet;
    RQ_ASSIGN_OR_RETURN(rq::RegexPtr r1, rq::ParseRegex(req.q1, &alphabet));
    RQ_ASSIGN_OR_RETURN(rq::RegexPtr r2, rq::ParseRegex(req.q2, &alphabet));
    rq::PathContainmentResult result =
        rq::CheckPathQueryContainment(*r1, *r2, alphabet);
    RQ_RETURN_IF_ERROR(result.status);
    if (!result.contained) {
      // A refutation must come with a word that separates the queries.
      rq::SemipathWitness w =
          rq::BuildSemipathWitness(alphabet, result.counterexample);
      if (!rq::PathQueryAnswers(w.db, *r1, w.start, w.end) ||
          rq::PathQueryAnswers(w.db, *r2, w.start, w.end)) {
        return rq::InternalError("2rpq counterexample does not separate " +
                                 req.q1 + " and " + req.q2);
      }
    }
    return std::string(Proved(result.contained));
  }
  if (req.cls == "uc2rpq") {
    rq::Alphabet alphabet;
    RQ_ASSIGN_OR_RETURN(rq::Uc2Rpq q1, rq::ParseUc2Rpq(req.q1, &alphabet));
    RQ_ASSIGN_OR_RETURN(rq::Uc2Rpq q2, rq::ParseUc2Rpq(req.q2, &alphabet));
    RQ_ASSIGN_OR_RETURN(auto result,
                        rq::CheckUc2RpqContainment(q1, q2, alphabet));
    return std::string(rq::CertaintyName(result.certainty));
  }
  if (req.cls == "cq" || req.cls == "ucq") {
    RQ_ASSIGN_OR_RETURN(auto q1, rq::ParseUcq(req.q1));
    RQ_ASSIGN_OR_RETURN(auto q2, rq::ParseUcq(req.q2));
    RQ_ASSIGN_OR_RETURN(bool contained, rq::UcqContained(q1, q2));
    return std::string(Proved(contained));
  }
  RQ_ASSIGN_OR_RETURN(rq::RqQuery q1, rq::ParseRq(req.q1));
  RQ_ASSIGN_OR_RETURN(rq::RqQuery q2, rq::ParseRq(req.q2));
  if (equivalence) {
    RQ_ASSIGN_OR_RETURN(auto result, rq::CheckRqEquivalence(q1, q2));
    return std::string(rq::EquivalenceVerdictName(result.verdict));
  }
  RQ_ASSIGN_OR_RETURN(auto result, rq::CheckRqContainment(q1, q2));
  return std::string(rq::CertaintyName(result.certainty));
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "eval_cold") return Workload::kEvalCold;
  if (name == "analyze") return Workload::kAnalyze;
  if (name == "mixed_rw") return Workload::kMixedRw;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kEvalCold:
      return "eval_cold";
    case Workload::kAnalyze:
      return "analyze";
    case Workload::kMixedRw:
      return "mixed_rw";
  }
  return "?";
}

std::string BenchRequest::Frame() const {
  using rq::obs::JsonValue;
  JsonValue out = JsonValue::Object();
  out.Set("type", JsonValue::String(type));
  if (type == "update") {
    JsonValue ops_json = JsonValue::Array();
    for (const EdgeOp& op : ops) {
      JsonValue o = JsonValue::Object();
      o.Set("op", JsonValue::String("add_edge"));
      o.Set("src", JsonValue::String(op.src));
      o.Set("label", JsonValue::String(op.label));
      o.Set("dst", JsonValue::String(op.dst));
      ops_json.Append(std::move(o));
    }
    out.Set("ops", std::move(ops_json));
    return out.Dump();
  }
  out.Set("class", JsonValue::String(cls));
  if (type == "eval") {
    out.Set("query", JsonValue::String(query));
    out.Set("max_tuples", JsonValue::Number(max_tuples));
  } else {
    out.Set("q1", JsonValue::String(q1));
    out.Set("q2", JsonValue::String(q2));
  }
  return out.Dump();
}

std::string Stream::Fingerprint() const {
  std::string out = graph_text;
  auto add = [&](const char* tag, const std::vector<uint32_t>& order) {
    out += tag;
    for (uint32_t i : order) out += " " + std::to_string(i);
    out += "\n";
  };
  for (const BenchRequest& r : reads) out += r.Frame() + "\n";
  add("order", read_order);
  add("warmup", warmup_order);
  out += "slices " + std::to_string(slices) + "\n";
  out += "depth " + std::to_string(read_depth) + "\n";
  for (const BenchRequest& w : writes) out += w.Frame() + "\n";
  out += "interval " + std::to_string(write_interval_ms) + "\n";
  out += "replay " + std::to_string(replay_reads_per_batch) + "\n";
  return out;
}

rq::Result<rq::GraphDb> LoadGraph(const Stream& stream) {
  return rq::GraphDb::FromText(stream.graph_text);
}

rq::Result<Stream> Generate(Workload workload, uint64_t seed, int seconds) {
  if (seconds < 1) return rq::InvalidArgumentError("--seconds must be >= 1");
  Stream s;
  s.workload = workload;
  s.seed = seed;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  s.graph_text = UnionOfNetworks(rng);
  RQ_ASSIGN_OR_RETURN(rq::GraphDb graph, LoadGraph(s));
  std::shared_ptr<const rq::GraphSnapshot> snapshot = graph.Snapshot();
  Rng query_rng = rng.Fork();
  Rng write_rng = rng.Fork();

  switch (workload) {
    case Workload::kEvalCold: {
      std::unordered_set<std::string> seen;
      size_t total = static_cast<size_t>(kEvalWarmup) +
                     static_cast<size_t>(seconds) * kEvalReadsPerSecond;
      for (int misses = 0; s.reads.size() < total;) {
        std::optional<BenchRequest> req =
            RandomEval(graph, *snapshot, ClassPosition(s.reads.size()),
                       query_rng);
        if (!req.has_value() ||
            !seen.insert(req->cls + "\n" + req->query).second) {
          if (++misses > 100000) {
            return rq::InternalError(
                "the eval grammar ran out of distinct queries at position " +
                std::to_string(s.reads.size() % 20) + "; lower --seconds");
          }
          continue;
        }
        s.reads.push_back(*std::move(req));
      }
      for (uint32_t i = 0; i < s.reads.size(); ++i) {
        (i < kEvalWarmup ? s.warmup_order : s.read_order).push_back(i);
      }
      s.read_depth = kSingleDepth;
      break;
    }
    case Workload::kAnalyze: {
      rq::Alphabet alphabet;
      for (const LabelSig& l : kLabels) alphabet.InternLabel(l.name);
      std::unordered_set<std::string> seen;
      for (int misses = 0; s.reads.size() < kAnalyzePool;) {
        BenchRequest req =
            RandomCheck(alphabet, ClassPosition(s.reads.size()), query_rng);
        if (!seen.insert(req.Frame()).second) {
          if (++misses > 100000) {
            return rq::InternalError("the check grammar ran out of distinct "
                                     "pairs at position " +
                                     std::to_string(s.reads.size() % 20));
          }
          continue;
        }
        s.reads.push_back(std::move(req));
      }
      for (uint32_t i = 0; i < kAnalyzeWarmup; ++i) {
        s.warmup_order.push_back(i);
      }
      s.read_order = ZipfOrder(
          kAnalyzePool, static_cast<size_t>(seconds) * kAnalyzeReadsPerSecond,
          kZipfExponent, query_rng);
      s.read_depth = kSingleDepth;
      break;
    }
    case Workload::kMixedRw: {
      // Five queries, read in turn: with an odd count the median read is
      // the middle query's, not the boundary between two queries'
      // latencies. With six, p50_ms spread by 0.22 over ten seeds (IQR over
      // median); with five, by 0.10 and 0.14 in two sets of ten.
      for (const char* q :
           {"knows+", "knows knows", "member member-", "knows- posted"}) {
        s.reads.push_back(EvalRequest("path", q));
      }
      s.reads.push_back(EvalRequest(
          "crpq", "q(x, y) :- (knows)(x, z), (member member-)(z, y)"));
      for (uint32_t i = 0; i < s.reads.size(); ++i) {
        s.warmup_order.push_back(i);
      }
      s.read_depth = kMixedReadDepth;
      s.replay_reads_per_batch = kReplayReadsPerBatch;
      break;
    }
  }
  if (workload == Workload::kEvalCold) s.slices = kEvalSlices;
  if (workload == Workload::kAnalyze) s.slices = kAnalyzeSlices;
  double batches = workload == Workload::kMixedRw ? kMixedBatchesPerSecond
                                                  : kReadOnlyBatchesPerSecond;
  s.writes = WriteBatches(
      graph, std::max<size_t>(1, static_cast<size_t>(seconds * batches)),
      write_rng);
  s.write_interval_ms = kWriteIntervalMs;
  return s;
}

namespace {

rq::Status ExpectOne(const rq::GraphDb& graph, const rq::Database& db,
                     BenchRequest* req) {
  if (req->type == "eval") {
    RQ_ASSIGN_OR_RETURN(rq::Relation answer,
                        EvalThroughDatalog(*req, graph, db));
    req->expected.kind = Expected::Kind::kEval;
    req->expected.count = answer.size();
    req->expected.rows =
        RenderRows(graph, answer.SortedTuples(), req->max_tuples);
  } else {
    RQ_ASSIGN_OR_RETURN(req->expected.verdict, ExpectedVerdict(*req));
    req->expected.kind = Expected::Kind::kVerdict;
  }
  return rq::Status::Ok();
}

}  // namespace

rq::Status ComputeExpected(Stream* stream, unsigned threads) {
  // mixed_rw reads run against a moving graph: they are checked for
  // monotone epochs and by the final knows+ comparison instead.
  if (stream->workload != Workload::kMixedRw) {
    // Each thread evaluates over its own graph and database: relations
    // build their join indexes lazily, so they are not shared.
    std::atomic<size_t> next{0};
    std::vector<rq::Status> failures(threads, rq::Status::Ok());
    auto work = [&](unsigned t) {
      auto graph = LoadGraph(*stream);
      if (!graph.ok()) {
        failures[t] = graph.status();
        return;
      }
      rq::Database db = rq::GraphToDatabase(*graph);
      for (size_t i; (i = next.fetch_add(1)) < stream->reads.size();) {
        if (rq::Status s = ExpectOne(*graph, db, &stream->reads[i]); !s.ok()) {
          failures[t] = s;
          return;
        }
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work, t);
    work(0);
    for (std::thread& th : pool) th.join();
    for (const rq::Status& s : failures) RQ_RETURN_IF_ERROR(s);
  }
  for (BenchRequest& w : stream->writes) {
    w.expected.kind = Expected::Kind::kUpdate;
    w.expected.count = w.ops.size();
  }
  return rq::Status::Ok();
}

rq::Result<std::string> ScratchKnowsClosureRows(
    const Stream& stream, const std::vector<const BenchRequest*>& applied,
    uint64_t* count) {
  RQ_ASSIGN_OR_RETURN(rq::GraphDb graph, LoadGraph(stream));
  for (const BenchRequest* batch : applied) {
    for (const EdgeOp& op : batch->ops) {
      rq::NodeId src = graph.AddNamedNode(op.src);
      rq::NodeId dst = graph.AddNamedNode(op.dst);
      graph.AddEdge(src, graph.alphabet().InternLabel(op.label), dst);
    }
  }
  rq::Database db = rq::GraphToDatabase(graph);
  const rq::Relation* knows = db.Find("knows");
  if (knows == nullptr) return rq::InternalError("graph has no knows edges");
  rq::Relation closure = rq::BinaryTransitiveClosure(*knows);
  *count = closure.size();
  return RenderRows(graph, closure.SortedTuples(),
                    static_cast<int64_t>(closure.size()));
}

}  // namespace rqbench

#include "graph/graph_db.h"

#include <algorithm>

#include "common/strings.h"
#include "graph/snapshot.h"

namespace rq {

GraphDb::GraphDb(const GraphDb& other)
    : alphabet_(other.alphabet_),
      num_nodes_(other.num_nodes_),
      edges_(other.edges_),
      nodes_(other.nodes_ == nullptr
                 ? nullptr
                 : std::make_shared<NodeTable>(*other.nodes_)) {}

GraphDb::GraphDb(GraphDb&& other) noexcept { Swap(other); }

GraphDb& GraphDb::operator=(GraphDb other) noexcept {
  Swap(other);
  return *this;
}

void GraphDb::Swap(GraphDb& other) noexcept {
  std::swap(alphabet_, other.alphabet_);
  std::swap(num_nodes_, other.num_nodes_);
  std::swap(edges_, other.edges_);
  std::swap(nodes_, other.nodes_);
  std::swap(nodes_shared_, other.nodes_shared_);
}

GraphDb GraphDb::Freeze() {
  GraphDb frozen;
  frozen.alphabet_ = alphabet_;
  frozen.num_nodes_ = num_nodes_;
  frozen.edges_ = edges_;
  frozen.nodes_ = nodes_;
  // Flagged explicitly rather than read off nodes_.use_count(): that load
  // is relaxed, so it would not order a write here after a reader's last
  // NodeName on the frozen copy.
  frozen.nodes_shared_ = nodes_shared_ = nodes_ != nullptr;
  return frozen;
}

GraphDb::NodeTable& GraphDb::MutableNodes() {
  if (nodes_ == nullptr) {
    nodes_ = std::make_shared<NodeTable>();
  } else if (nodes_shared_) {
    nodes_ = std::make_shared<NodeTable>(*nodes_);
    nodes_shared_ = false;
  }
  return *nodes_;
}

NodeId GraphDb::AddNamedNode(std::string_view name) {
  if (nodes_ != nullptr) {
    auto it = nodes_->index.find(name);
    if (it != nodes_->index.end()) return it->second;
  }
  NodeTable& table = MutableNodes();
  NodeId id = AddNode();
  table.names.resize(id);
  table.names.emplace_back(name);
  table.index.emplace(table.names.back(), id);
  return id;
}

std::string GraphDb::NodeName(NodeId node) const {
  RQ_CHECK(node < num_nodes_);
  if (nodes_ != nullptr && node < nodes_->names.size() &&
      !nodes_->names[node].empty()) {
    return nodes_->names[node];
  }
  return "n" + std::to_string(node);
}

Result<NodeId> GraphDb::FindNode(std::string_view name) const {
  if (nodes_ != nullptr) {
    auto it = nodes_->index.find(name);
    if (it != nodes_->index.end()) return it->second;
  }
  return NotFoundError("unknown node: " + std::string(name));
}

void GraphDb::AddEdge(NodeId src, uint32_t label, NodeId dst) {
  RQ_CHECK(src < num_nodes_ && dst < num_nodes_);
  RQ_CHECK(label < alphabet_.num_labels());
  edges_.push_back({src, label, dst});
}

std::shared_ptr<const GraphSnapshot> GraphDb::Snapshot() const {
  return std::make_shared<GraphSnapshot>(*this);
}

std::vector<NodeId> GraphDb::Successors(NodeId node, Symbol symbol) const {
  std::vector<NodeId> out;
  uint32_t label = SymbolLabel(symbol);
  for (const Edge& e : edges_) {
    if (e.label != label) continue;
    if (IsInverseSymbol(symbol)) {
      if (e.dst == node) out.push_back(e.src);
    } else {
      if (e.src == node) out.push_back(e.dst);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::pair<NodeId, NodeId>> GraphDb::SymbolPairs(
    Symbol symbol) const {
  std::vector<std::pair<NodeId, NodeId>> out;
  uint32_t label = SymbolLabel(symbol);
  for (const Edge& e : edges_) {
    if (e.label != label) continue;
    if (IsInverseSymbol(symbol)) {
      out.emplace_back(e.dst, e.src);
    } else {
      out.emplace_back(e.src, e.dst);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string GraphDb::ToText() const {
  std::string out;
  for (const Edge& e : edges_) {
    out += NodeName(e.src);
    out.push_back(' ');
    out += alphabet_.LabelName(e.label);
    out.push_back(' ');
    out += NodeName(e.dst);
    out.push_back('\n');
  }
  return out;
}

Result<GraphDb> GraphDb::FromText(std::string_view text) {
  GraphDb db;
  size_t line_no = 0;
  for (const std::string& raw : StrSplit(text, '\n')) {
    ++line_no;
    std::string_view line = StripWhitespace(raw);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> parts;
    for (const std::string& p : StrSplit(line, ' ')) {
      if (!p.empty()) parts.push_back(p);
    }
    if (parts.size() != 3) {
      return InvalidArgumentError("graph line " + std::to_string(line_no) +
                                  ": expected 'src label dst'");
    }
    NodeId src = db.AddNamedNode(parts[0]);
    NodeId dst = db.AddNamedNode(parts[2]);
    db.AddEdge(src, parts[1], dst);
  }
  return db;
}

}  // namespace rq

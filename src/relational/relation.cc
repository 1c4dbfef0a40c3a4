#include "relational/relation.h"

#include <algorithm>
#include <numeric>

#include "common/scanner.h"

namespace rq {

namespace {

constexpr uint64_t kMix = 0x9e3779b97f4a7c15ULL;

uint64_t HashValue(Value value) {
  uint64_t h = (value ^ (value >> 31)) * kMix;
  return h ^ (h >> 32);
}

uint64_t HashRow(Row row) {
  uint64_t h = 0;
  for (Value v : row) {
    h = (h ^ v) * kMix;
    h ^= h >> 32;
  }
  return h;
}

bool RowLess(const Value* a, const Value* b, size_t arity) {
  return std::lexicographical_compare(a, a + arity, b, b + arity);
}

}  // namespace

size_t RowChain::size() const {
  size_t n = 0;
  for (auto it = begin(); it != end(); ++it) ++n;
  return n;
}

size_t Relation::FindSlot(Row row, uint64_t hash) const {
  const size_t mask = table_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    uint32_t r = table_[slot];
    if (r == kNoRow) return slot;
    const Value* stored = values_.data() + static_cast<size_t>(r) * arity_;
    if (std::equal(row.begin(), row.end(), stored)) return slot;
  }
}

void Relation::GrowTable() {
  std::vector<uint32_t> old = std::move(table_);
  table_.assign(std::max<size_t>(16, old.size() * 2), kNoRow);
  const size_t mask = table_.size() - 1;
  for (uint32_t r : old) {
    if (r == kNoRow) continue;
    size_t slot = HashRow(row(r)) & mask;
    while (table_[slot] != kNoRow) slot = (slot + 1) & mask;
    table_[slot] = r;
  }
}

bool Relation::Insert(Row values) {
  RQ_CHECK(values.size() == arity_);
  if ((rows_ + 1) * 2 > table_.size()) GrowTable();
  size_t slot = FindSlot(values, HashRow(values));
  if (table_[slot] != kNoRow) return false;
  RQ_CHECK(rows_ < kNoRow);
  const uint32_t r = static_cast<uint32_t>(rows_);
  table_[slot] = r;
  values_.insert(values_.end(), values.begin(), values.end());
  ++rows_;
  // Keep built indexes current instead of invalidating them: interleaved
  // insert/probe workloads (semi-naive deltas, incremental closure) would
  // otherwise rebuild per insertion.
  for (size_t c = 0; c < index_.size(); ++c) {
    if (index_[c].built) index_[c].Add(values_[r * arity_ + c], r);
  }
  return true;
}

bool Relation::Contains(Row values) const {
  if (values.size() != arity_ || rows_ == 0) return false;
  return table_[FindSlot(values, HashRow(values))] != kNoRow;
}

void Relation::Reserve(size_t rows) {
  values_.reserve(rows * arity_);
  while (rows * 2 > table_.size()) GrowTable();
}

std::vector<Tuple> Relation::SortedTuples() const {
  SortedRows sorted = SortRows(*this);
  std::vector<Tuple> out;
  out.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    out.emplace_back(sorted.row(i), sorted.row(i) + arity_);
  }
  return out;
}

size_t Relation::InsertAll(const Relation& other) {
  RQ_CHECK(other.arity_ == arity_);
  size_t added = 0;
  for (size_t i = 0; i < other.size(); ++i) {
    if (Insert(other.row(i))) ++added;
  }
  return added;
}

void Relation::ColumnIndex::Add(Value value, uint32_t row) {
  if ((num_values + 1) * 2 > slots.size()) {
    std::vector<Slot> old = std::move(slots);
    slots.assign(std::max<size_t>(16, old.size() * 2), Slot{});
    const size_t mask = slots.size() - 1;
    for (const Slot& s : old) {
      if (s.head == kNoRow) continue;
      size_t i = HashValue(s.value) & mask;
      while (slots[i].head != kNoRow) i = (i + 1) & mask;
      slots[i] = s;
    }
  }
  const size_t mask = slots.size() - 1;
  size_t i = HashValue(value) & mask;
  while (slots[i].head != kNoRow && slots[i].value != value) {
    i = (i + 1) & mask;
  }
  if (next.size() <= row) next.resize(row + 1, kNoRow);
  Slot& slot = slots[i];
  if (slot.head == kNoRow) {
    slot = Slot{value, row, row};
    ++num_values;
  } else {
    next[slot.tail] = row;
    slot.tail = row;
  }
}

void Relation::BuildColumn(size_t column) const {
  if (index_.empty()) index_.resize(arity_);
  ColumnIndex& index = index_[column];
  index.next.assign(rows_, kNoRow);
  for (size_t r = 0; r < rows_; ++r) {
    index.Add(values_[r * arity_ + column], static_cast<uint32_t>(r));
  }
  index.built = true;
}

RowChain Relation::RowsWithValue(size_t column, Value value) const {
  RQ_CHECK(column < arity_);
  if (index_.empty() || !index_[column].built) BuildColumn(column);
  const ColumnIndex& index = index_[column];
  if (index.num_values == 0) return RowChain(nullptr, kNoRow);
  const size_t mask = index.slots.size() - 1;
  for (size_t i = HashValue(value) & mask;; i = (i + 1) & mask) {
    const ColumnIndex::Slot& slot = index.slots[i];
    if (slot.head == kNoRow) return RowChain(nullptr, kNoRow);
    if (slot.value == value) return RowChain(index.next.data(), slot.head);
  }
}

void Relation::BuildIndexes() {
  for (size_t c = 0; c < arity_; ++c) {
    if (index_.empty() || !index_[c].built) BuildColumn(c);
  }
}

bool operator==(const Relation& a, const Relation& b) {
  if (a.arity_ != b.arity_ || a.rows_ != b.rows_) return false;
  for (size_t i = 0; i < a.rows_; ++i) {
    if (!b.Contains(a.row(i))) return false;
  }
  return true;
}

SortedRows SortRows(const Relation& relation, size_t first) {
  const size_t arity = relation.arity();
  RQ_CHECK(first <= relation.size());
  std::vector<uint32_t> order(relation.size() - first);
  std::iota(order.begin(), order.end(), static_cast<uint32_t>(first));
  if (arity > 0) {
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return RowLess(relation.row(a).data(), relation.row(b).data(), arity);
    });
  }
  SortedRows out;
  out.arity = arity;
  out.rows = order.size();
  out.values.reserve(order.size() * arity);
  for (uint32_t i : order) {
    Row row = relation.row(i);
    out.values.insert(out.values.end(), row.begin(), row.end());
  }
  return out;
}

SortedRows MergeRows(const SortedRows& a, const SortedRows& b) {
  RQ_CHECK(a.arity == b.arity);
  SortedRows out;
  out.arity = a.arity;
  out.rows = a.rows + b.rows;
  out.values.reserve(a.values.size() + b.values.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.rows || j < b.rows) {
    bool from_a =
        j == b.rows || (i < a.rows && RowLess(a.row(i), b.row(j), a.arity));
    const Value* row = from_a ? a.row(i++) : b.row(j++);
    out.values.insert(out.values.end(), row, row + a.arity);
  }
  return out;
}

Result<Relation*> Database::GetOrCreate(std::string_view name, size_t arity) {
  auto it = relations_.find(std::string(name));
  if (it != relations_.end()) {
    if (it->second.arity() != arity) {
      return InvalidArgumentError(
          "relation " + Excerpt(name) + " has arity " +
          std::to_string(it->second.arity()) + ", requested " +
          std::to_string(arity));
    }
    return &it->second;
  }
  auto [inserted, ok] =
      relations_.emplace(std::string(name), Relation(arity));
  (void)ok;
  return &inserted->second;
}

const Relation* Database::Find(std::string_view name) const {
  auto it = relations_.find(std::string(name));
  return it == relations_.end() ? nullptr : &it->second;
}

Relation* Database::FindMutable(std::string_view name) {
  auto it = relations_.find(std::string(name));
  return it == relations_.end() ? nullptr : &it->second;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void Database::BuildIndexes() {
  for (auto& [name, rel] : relations_) rel.BuildIndexes();
}

std::string Database::ToString() const {
  std::string out;
  for (const std::string& name : RelationNames()) {
    SortedRows rows = SortRows(*Find(name));
    for (size_t i = 0; i < rows.size(); ++i) {
      out += name;
      out.push_back('(');
      for (size_t c = 0; c < rows.arity; ++c) {
        if (c > 0) out.push_back(',');
        out += std::to_string(rows.row(i)[c]);
      }
      out += ")\n";
    }
  }
  return out;
}

}  // namespace rq

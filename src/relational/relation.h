// Relations and relational databases of arbitrary arity (paper §2).
//
// These back three things: the Datalog engine (§2.2), canonical databases
// for homomorphism-based containment (§2.3), and the relational view of
// graph databases (each edge label is a binary relation, §3.1).
//
// Storage is flat, after Soufflé's fixed-arity relations (Jordan, Scholz
// and Subotić, CAV 2016): a relation of arity k keeps its rows in one
// k-strided Value array, in insertion order. Membership is an
// open-addressing table of row numbers hashed over the row's values, and a
// column index chains the row numbers sharing a value (one head/tail slot
// per distinct value, one link per row). No row and no index entry costs a
// heap allocation of its own.
//
// Sharing contract: a relation builds a column index on its first probe
// (RowsWithValue) and keeps built indexes current on Insert. That lazy
// build writes through a const reference, so a relation read by several
// threads at once must have every index built first (BuildIndexes);
// after that, const reads write nothing.
#ifndef RQ_RELATIONAL_RELATION_H_
#define RQ_RELATIONAL_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace rq {

// Values are opaque 64-bit constants (node ids, frozen variables, ...).
using Value = uint64_t;
using Tuple = std::vector<Value>;
// A row of a relation: arity() values, viewed in place.
using Row = std::span<const Value>;

// Bytes one row of `arity` values costs in a Relation: its values in the
// flat array, one column-index link per value, and two membership slots
// (the table's least capacity per row, at its maximum load of 1/2). Every
// byte charge on relation storage uses this figure: Datalog's derived
// facts, RQ and C2RPQ intermediates, and the incrementally maintained
// closures (relational/incremental.h).
inline constexpr size_t RelationRowBytes(size_t arity) {
  return arity * (sizeof(Value) + sizeof(uint32_t)) + 2 * sizeof(uint32_t);
}

// The row numbers of one column-index chain, in insertion order.
class RowChain {
 public:
  static constexpr uint32_t kEnd = 0xffffffffu;

  class iterator {
   public:
    iterator(const uint32_t* next, uint32_t row) : next_(next), row_(row) {}
    uint32_t operator*() const { return row_; }
    iterator& operator++() {
      row_ = next_[row_];
      return *this;
    }
    bool operator==(const iterator& other) const {
      return row_ == other.row_;
    }

   private:
    const uint32_t* next_;
    uint32_t row_;
  };

  RowChain(const uint32_t* next, uint32_t head) : next_(next), head_(head) {}

  iterator begin() const { return iterator(next_, head_); }
  iterator end() const { return iterator(next_, kEnd); }
  bool empty() const { return head_ == kEnd; }
  // Walks the chain.
  size_t size() const;

 private:
  const uint32_t* next_;
  uint32_t head_;
};

// A set of rows of fixed arity.
class Relation {
 public:
  explicit Relation(size_t arity) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  // Row `i` in insertion order (0 <= i < size()). Rows past a previous
  // size() are exactly the ones inserted since. The view is invalidated
  // by the next Insert.
  Row row(size_t i) const { return Row(values_.data() + i * arity_, arity_); }

  // Inserts a row of arity() values; returns true if it was new.
  bool Insert(Row row);
  bool Insert(std::initializer_list<Value> row) {
    return Insert(Row(row.begin(), row.size()));
  }

  // False for a row of another arity.
  bool Contains(Row row) const;
  bool Contains(std::initializer_list<Value> row) const {
    return Contains(Row(row.begin(), row.size()));
  }

  // Sorted copy (for deterministic comparisons and printing).
  std::vector<Tuple> SortedTuples() const;

  // Inserts every row of `other` (arity must match); returns the number of
  // new rows.
  size_t InsertAll(const Relation& other);

  // Makes room for `rows` rows in total.
  void Reserve(size_t rows);

  // Row numbers of the rows whose `column` equals `value`, in insertion
  // order. Builds that column's index on first use; invalidated by the
  // next Insert.
  RowChain RowsWithValue(size_t column, Value value) const;

  // Builds every column's index now, so that later reads write nothing.
  void BuildIndexes();

  // Set equality: insertion order does not matter.
  friend bool operator==(const Relation& a, const Relation& b);

 private:
  static constexpr uint32_t kNoRow = RowChain::kEnd;

  // One column's index: an open-addressing table of the column's distinct
  // values, each with the first and last row of its chain, plus one
  // next-row link per row.
  struct ColumnIndex {
    struct Slot {
      Value value = 0;
      uint32_t head = kNoRow;  // kNoRow: empty slot
      uint32_t tail = kNoRow;
    };
    std::vector<Slot> slots;
    std::vector<uint32_t> next;
    size_t num_values = 0;
    bool built = false;

    void Add(Value value, uint32_t row);
  };

  // The membership slot holding `row`, or the empty slot where it belongs.
  size_t FindSlot(Row row, uint64_t hash) const;
  void GrowTable();
  void BuildColumn(size_t column) const;

  size_t arity_;
  size_t rows_ = 0;  // apart from values_ so arity-0 relations count rows
  std::vector<Value> values_;
  std::vector<uint32_t> table_;  // row numbers, kNoRow when empty
  mutable std::vector<ColumnIndex> index_;  // empty until the first probe
};

// The sorted, frozen form of a relation: rows in lexicographic order,
// stored flat (row i is values[i * arity, (i + 1) * arity)). Closure
// images and cached eval answers take this shape, so a response renders a
// prefix of it without copying or sorting.
struct SortedRows {
  size_t arity = 0;
  size_t rows = 0;  // apart from values.size() so arity-0 answers count
  std::vector<Value> values;

  size_t size() const { return rows; }
  const Value* row(size_t i) const { return values.data() + i * arity; }
};

// The rows of `relation` from row `first` on, sorted: a permutation of
// the flat rows is sorted, then the rows are gathered once.
SortedRows SortRows(const Relation& relation, size_t first = 0);

// The sorted union of two sorted row sets with no row in common, linear in
// their sizes (arities must match).
SortedRows MergeRows(const SortedRows& a, const SortedRows& b);

// A named collection of relations.
class Database {
 public:
  Database() = default;

  // Gets or creates a relation. Fails on arity mismatch with an existing
  // relation of the same name.
  Result<Relation*> GetOrCreate(std::string_view name, size_t arity);

  // nullptr if absent.
  const Relation* Find(std::string_view name) const;
  Relation* FindMutable(std::string_view name);

  std::vector<std::string> RelationNames() const;

  // Builds every relation's column indexes (Relation::BuildIndexes), so
  // the database can be read from several threads at once.
  void BuildIndexes();

  std::string ToString() const;

 private:
  std::unordered_map<std::string, Relation> relations_;
};

}  // namespace rq

#endif  // RQ_RELATIONAL_RELATION_H_

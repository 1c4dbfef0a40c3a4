// Interned symbol alphabets, including two-way alphabets Sigma± with
// inverse symbols (paper §3.1).
//
// Every base label `r` registered with an Alphabet yields two symbols: the
// forward symbol for `r` and the inverse symbol `r-`. Symbols are dense
// integer ids: label k has forward symbol 2k and inverse symbol 2k+1, so
// taking the inverse of a symbol is a single bit flip. Code that works over
// plain Sigma (e.g. RPQs) simply never mentions inverse symbols.
#ifndef RQ_AUTOMATA_ALPHABET_H_
#define RQ_AUTOMATA_ALPHABET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/strings.h"

namespace rq {

// A symbol of Sigma±: forward or inverse occurrence of a base label.
using Symbol = uint32_t;

inline constexpr Symbol kInvalidSymbol = 0xffffffffu;

// Flips direction: r <-> r-.
inline Symbol InverseSymbol(Symbol s) { return s ^ 1u; }

// True for inverse symbols r-.
inline bool IsInverseSymbol(Symbol s) { return (s & 1u) != 0; }

// The base label id of a symbol.
inline uint32_t SymbolLabel(Symbol s) { return s >> 1; }

// Forward/inverse symbol of base label `label`.
inline Symbol ForwardSymbolOf(uint32_t label) { return label << 1; }
inline Symbol InverseSymbolOf(uint32_t label) { return (label << 1) | 1u; }

// Label interning table shared by a database and the queries over it.
class Alphabet {
 public:
  Alphabet() = default;

  // Returns the label id for `name`, interning it if new.
  uint32_t InternLabel(std::string_view name);

  // Returns the label id for `name` or an error if unknown.
  Result<uint32_t> FindLabel(std::string_view name) const;

  // Convenience: forward symbol of a (possibly new) label.
  Symbol InternForward(std::string_view name) {
    return ForwardSymbolOf(InternLabel(name));
  }

  size_t num_labels() const { return labels_.size(); }
  // Number of symbols in Sigma± (2 * num_labels).
  size_t num_symbols() const { return labels_.size() * 2; }

  const std::string& LabelName(uint32_t label) const {
    RQ_CHECK(label < labels_.size());
    return labels_[label];
  }

  // Renders a symbol, e.g. "knows" or "knows-".
  std::string SymbolName(Symbol s) const;

  // Parses "name" or "name-" into a symbol (label must already exist).
  Result<Symbol> ParseSymbol(std::string_view text) const;

 private:
  std::vector<std::string> labels_;
  StringMap<uint32_t> index_;  // transparent: string_view lookups
};

// Renders a word over Sigma± as space-separated symbol names.
std::string WordToString(const Alphabet& alphabet,
                         const std::vector<Symbol>& word);

// Inverse of a word: reverse it and flip every symbol. fold()-related
// identities in the tests rely on this.
std::vector<Symbol> InverseWord(const std::vector<Symbol>& word);

}  // namespace rq

#endif  // RQ_AUTOMATA_ALPHABET_H_

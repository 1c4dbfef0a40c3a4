// Regular expressions over interned symbol alphabets (including inverse
// atoms `r-` for Sigma±, paper §3.1).
//
// Surface syntax accepted by Parse():
//   atom       ::= IDENT | IDENT '-'          (label, inverse label)
//   primary    ::= atom | '(' union ')' | '()'    ('()' is epsilon)
//   postfix    ::= primary ('*' | '+' | '?')*
//   concat     ::= postfix postfix*               (juxtaposition)
//   union      ::= concat ('|' concat)*
// Examples: "knows+", "(parent | parent-)*", "a (b | c)* d-".
// Parentheses and postfix operators nest at most kMaxNesting levels
// (common/scanner.h).
#ifndef RQ_REGEX_REGEX_H_
#define RQ_REGEX_REGEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "automata/nfa.h"
#include "common/rng.h"
#include "common/status.h"

namespace rq {

class Scanner;

enum class RegexKind {
  kEmpty,     // the empty language
  kEpsilon,   // the empty word
  kAtom,      // one symbol (possibly an inverse symbol)
  kConcat,    // children in sequence
  kUnion,     // any child
  kStar,      // zero or more
  kPlus,      // one or more
  kOptional,  // zero or one
};

class Regex;
using RegexPtr = std::shared_ptr<const Regex>;

// Immutable regular-expression tree. Build via the static factories.
class Regex {
 public:
  static RegexPtr Empty();
  static RegexPtr Epsilon();
  static RegexPtr Atom(Symbol symbol);
  static RegexPtr Concat(std::vector<RegexPtr> children);
  static RegexPtr Union(std::vector<RegexPtr> children);
  static RegexPtr Star(RegexPtr child);
  static RegexPtr Plus(RegexPtr child);
  static RegexPtr Optional(RegexPtr child);

  RegexKind kind() const { return kind_; }
  Symbol symbol() const {
    RQ_CHECK(kind_ == RegexKind::kAtom);
    return symbol_;
  }
  const std::vector<RegexPtr>& children() const { return children_; }

  // Number of AST nodes.
  size_t Size() const;

  // True if any atom is an inverse symbol (query is 2-way, not plain RPQ).
  bool UsesInverse() const;

  // One past the largest symbol mentioned (0 if none). ToNfa needs
  // num_symbols >= this.
  uint32_t MinNumSymbols() const;

  // Mirrors the expression: reverses concatenations and flips every atom.
  // For a 2RPQ Q this computes Q's inverse query (used by semipath code).
  RegexPtr InverseExpression() const;

  std::string ToString(const Alphabet& alphabet) const;

  // Thompson construction; result uses epsilon transitions, one initial
  // state, states are O(Size()).
  Nfa ToNfa(uint32_t num_symbols) const;

 private:
  Regex(RegexKind kind, Symbol symbol, std::vector<RegexPtr> children)
      : kind_(kind), symbol_(symbol), children_(std::move(children)) {}

  RegexKind kind_;
  Symbol symbol_;
  std::vector<RegexPtr> children_;
};

// Parses the surface syntax above; interns new labels into `alphabet`.
Result<RegexPtr> ParseRegex(std::string_view text, Alphabet* alphabet);

// Parses one regex at the scanner's cursor, up to the first character that
// cannot continue it (a C2RPQ atom's closing parenthesis).
Result<RegexPtr> ParseRegex(Scanner& scan, Alphabet* alphabet);

// Random regex for property tests/benches. `max_depth` bounds nesting;
// `allow_inverse` controls whether inverse atoms may appear.
RegexPtr RandomRegex(const Alphabet& alphabet, int max_depth,
                     bool allow_inverse, Rng& rng);

}  // namespace rq

#endif  // RQ_REGEX_REGEX_H_

// The one scanner every query syntax is read with (docs/SYNTAX.md), and
// the rule front end that CQ/UCQ, C2RPQ/UC2RPQ and Datalog share on top of
// it.
//
// A Scanner is a cursor over a string_view: it skips whitespace, reads
// identifiers `[A-Za-z_][A-Za-z0-9_]*`, consumes and expects tokens, and
// reports InvalidArgument errors that name the syntax, the offset and a
// short excerpt of the input there. Its nesting guard bounds every syntax
// at kMaxNesting levels, so no input can drive a parser, or a recursive
// pass over what it built, through the thread's stack.
#ifndef RQ_COMMON_SCANNER_H_
#define RQ_COMMON_SCANNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/strings.h"

namespace rq {

// How deeply a query may nest: each parenthesis, postfix operator and RQ
// operator body around the deepest point counts one level. The JSON
// request decoder bounds arrays and objects by the same constant.
inline constexpr size_t kMaxNesting = 256;

// How much of a query an error quotes: the input at the error, or a name
// read from it.
inline constexpr size_t kExcerptBytes = 16;

// The first kExcerptBytes bytes of `text`. Every message that quotes query
// text goes through here, so a huge query never makes a huge message.
std::string Excerpt(std::string_view text);

class Scanner {
 public:
  // `syntax` names the syntax in errors ("regex", "CQ", ...).
  Scanner(std::string_view text, std::string_view syntax)
      : Scanner(text, syntax, 0, text.size()) {}
  // Reads text[begin, end) but reports offsets into the whole `text`.
  Scanner(std::string_view text, std::string_view syntax, size_t begin,
          size_t end)
      : text_(text), syntax_(syntax), pos_(begin), end_(end) {}

  size_t pos() const { return pos_; }
  // Moves the cursor back to a position pos() returned.
  void Reset(size_t pos) { pos_ = pos; }

  // Skips whitespace; true once the input is used up.
  bool AtEnd();
  // Skips whitespace; the next character, or '\0' at the end.
  char Peek();
  // Skips whitespace, then consumes `token` if it comes next.
  bool Consume(std::string_view token);
  // Consumes `c` only if it comes right at the cursor, with no whitespace
  // before it (the inverse mark in `knows-`).
  bool ConsumeAdjacent(char c);
  // Consume, or an error naming the missing token.
  Status Expect(std::string_view token);
  // An error unless the input is used up.
  Status ExpectEnd();

  // Skips whitespace, then consumes an identifier if one comes next.
  bool ConsumeIdent(std::string_view* name);
  // ConsumeIdent, or an error naming what was expected.
  Result<std::string_view> ExpectIdent(std::string_view what);

  // "<syntax>: <message> at offset N near '<excerpt>'".
  Status Error(std::string_view message) const;

  // The nesting guard. Enter() steps one level deeper and fails past
  // kMaxNesting; Leave() steps back out. A failed parse abandons its
  // scanner, so error paths need not Leave().
  Status Enter() { return CheckDepth(++depth_); }
  void Leave() { --depth_; }
  size_t depth() const { return depth_; }
  // Fails if `depth` levels pass the bound; for constructs such as postfix
  // operators, which nest below what they follow.
  Status CheckDepth(size_t depth) const;

 private:
  void SkipSpace();

  std::string_view text_;
  std::string_view syntax_;
  size_t pos_;
  size_t end_;
  size_t depth_ = 0;
};

// The variables of one statement: dense ids in first-occurrence order.
class VarTable {
 public:
  uint32_t Intern(std::string_view name);
  uint32_t size() const { return static_cast<uint32_t>(names_.size()); }
  const std::string& name(uint32_t id) const { return names_[id]; }
  std::vector<std::string> TakeNames() { return std::move(names_); }

 private:
  StringMap<uint32_t> ids_;
  std::vector<std::string> names_;
};

// Reads `open IDENT (',' IDENT)* close`, numbering each name in `vars`.
Result<std::vector<uint32_t>> ParseVarList(Scanner& scan, VarTable& vars,
                                           char open = '(',
                                           char close = ')');

// `IDENT '(' vars ')'`: a rule head, and a CQ or Datalog body atom.
struct RuleAtom {
  std::string_view name;
  std::vector<uint32_t> vars;
};
Result<RuleAtom> ParseAtom(Scanner& scan, VarTable& vars);

// Reads `head ':-' body (',' body)*` and returns the head, whose variables
// `vars` numbers first. `body` reads one body atom at the cursor; each
// syntax supplies its own form.
Result<RuleAtom> ParseRule(Scanner& scan, VarTable& vars,
                           const std::function<Status()>& body);

// The line loop of UCQ, UC2RPQ and Datalog: one statement per line. Skips
// blank lines and comment lines (first non-blank character `#` or `%`),
// hands `statement` a scanner over each other line, and fails if the
// statement leaves input on its line.
Status ForEachStatement(std::string_view text, std::string_view syntax,
                        const std::function<Status(Scanner&)>& statement);

}  // namespace rq

#endif  // RQ_COMMON_SCANNER_H_

#include "common/scanner.h"

#include <cctype>

namespace rq {

std::string Excerpt(std::string_view text) {
  return std::string(text.substr(0, kExcerptBytes));
}

void Scanner::SkipSpace() {
  while (pos_ < end_ && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

bool Scanner::AtEnd() {
  SkipSpace();
  return pos_ == end_;
}

char Scanner::Peek() {
  SkipSpace();
  return pos_ < end_ ? text_[pos_] : '\0';
}

bool Scanner::Consume(std::string_view token) {
  SkipSpace();
  if (token.size() > end_ - pos_ || text_.substr(pos_, token.size()) != token) {
    return false;
  }
  pos_ += token.size();
  return true;
}

bool Scanner::ConsumeAdjacent(char c) {
  if (pos_ >= end_ || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

Status Scanner::Expect(std::string_view token) {
  if (Consume(token)) return Status::Ok();
  return Error("expected '" + std::string(token) + "'");
}

Status Scanner::ExpectEnd() {
  if (AtEnd()) return Status::Ok();
  return Error("trailing input");
}

bool Scanner::ConsumeIdent(std::string_view* name) {
  SkipSpace();
  if (pos_ >= end_ || !IsIdentStart(text_[pos_])) return false;
  size_t start = pos_;
  while (pos_ < end_ && IsIdentChar(text_[pos_])) ++pos_;
  *name = text_.substr(start, pos_ - start);
  return true;
}

Result<std::string_view> Scanner::ExpectIdent(std::string_view what) {
  std::string_view name;
  if (!ConsumeIdent(&name)) return Error("expected " + std::string(what));
  return name;
}

Status Scanner::Error(std::string_view message) const {
  std::string out = std::string(syntax_) + ": " + std::string(message) +
                    " at offset " + std::to_string(pos_);
  if (pos_ < end_) {
    out += " near '" + Excerpt(text_.substr(pos_, end_ - pos_)) + "'";
  } else {
    out += end_ < text_.size() ? " (end of line)" : " (end of input)";
  }
  return InvalidArgumentError(std::move(out));
}

Status Scanner::CheckDepth(size_t depth) const {
  if (depth <= kMaxNesting) return Status::Ok();
  return Error("nesting deeper than " + std::to_string(kMaxNesting) +
               " levels");
}

uint32_t VarTable::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  uint32_t id = size();
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

Result<std::vector<uint32_t>> ParseVarList(Scanner& scan, VarTable& vars,
                                           char open, char close) {
  RQ_RETURN_IF_ERROR(scan.Expect(std::string_view(&open, 1)));
  std::vector<uint32_t> out;
  do {
    RQ_ASSIGN_OR_RETURN(std::string_view name,
                        scan.ExpectIdent("variable name"));
    out.push_back(vars.Intern(name));
  } while (scan.Consume(","));
  RQ_RETURN_IF_ERROR(scan.Expect(std::string_view(&close, 1)));
  return out;
}

Result<RuleAtom> ParseAtom(Scanner& scan, VarTable& vars) {
  RuleAtom atom;
  RQ_ASSIGN_OR_RETURN(atom.name, scan.ExpectIdent("predicate name"));
  RQ_ASSIGN_OR_RETURN(atom.vars, ParseVarList(scan, vars));
  return atom;
}

Result<RuleAtom> ParseRule(Scanner& scan, VarTable& vars,
                           const std::function<Status()>& body) {
  RQ_ASSIGN_OR_RETURN(RuleAtom head, ParseAtom(scan, vars));
  RQ_RETURN_IF_ERROR(scan.Expect(":-"));
  do {
    RQ_RETURN_IF_ERROR(body());
  } while (scan.Consume(","));
  return head;
}

Status ForEachStatement(std::string_view text, std::string_view syntax,
                        const std::function<Status(Scanner&)>& statement) {
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    Scanner scan(text, syntax, begin, end);
    if (!scan.AtEnd() && scan.Peek() != '#' && scan.Peek() != '%') {
      RQ_RETURN_IF_ERROR(statement(scan));
      RQ_RETURN_IF_ERROR(scan.ExpectEnd());
    }
    begin = end + 1;
  }
  return Status::Ok();
}

}  // namespace rq

#include "rq/parser.h"

#include <algorithm>

#include "common/scanner.h"

namespace rq {

namespace {

class RqParser {
 public:
  explicit RqParser(std::string_view text) : scan_(text, "rq") {}

  Result<RqQuery> Parse() {
    RqQuery query;
    // Optional explicit head: IDENT '(' vars ')' ':='.
    size_t start = scan_.pos();
    std::string_view ident;
    bool has_explicit_head = false;
    std::vector<VarId> explicit_head;
    if (scan_.ConsumeIdent(&ident) && scan_.Peek() == '(' &&
        !IsReserved(ident)) {
      RQ_ASSIGN_OR_RETURN(explicit_head, ParseVarList(scan_, vars_));
      has_explicit_head = scan_.Consume(":=");
    }
    if (!has_explicit_head) {
      scan_.Reset(start);  // it was an atom, reparse below
      vars_ = VarTable();
    }
    RQ_ASSIGN_OR_RETURN(RqExprPtr root, ParseExpr());
    RQ_RETURN_IF_ERROR(scan_.ExpectEnd());
    query.root = root;
    if (has_explicit_head) {
      for (VarId v : explicit_head) {
        const auto& fv = root->FreeVars();
        if (!std::binary_search(fv.begin(), fv.end(), v)) {
          return scan_.Error("head variable '" + Excerpt(vars_.name(v)) +
                             "' is not free in the expression");
        }
      }
      query.head = explicit_head;
    } else {
      query.head = root->FreeVars();
    }
    query.var_names = vars_.TakeNames();
    RQ_RETURN_IF_ERROR(query.Validate());
    return query;
  }

 private:
  static bool IsReserved(std::string_view word) {
    return word == "exists" || word == "tc" || word == "eq";
  }

  Result<RqExprPtr> ParseExpr() {
    RQ_ASSIGN_OR_RETURN(RqExprPtr first, ParseAnd());
    std::vector<RqExprPtr> parts{first};
    while (scan_.Consume("|")) {
      RQ_ASSIGN_OR_RETURN(RqExprPtr next, ParseAnd());
      if (next->FreeVars() != first->FreeVars()) {
        return scan_.Error("disjuncts must have the same free variables");
      }
      parts.push_back(next);
    }
    return RqExpr::Or(std::move(parts));
  }

  Result<RqExprPtr> ParseAnd() {
    RQ_ASSIGN_OR_RETURN(RqExprPtr first, ParsePrim());
    std::vector<RqExprPtr> parts{first};
    while (scan_.Consume("&")) {
      RQ_ASSIGN_OR_RETURN(RqExprPtr next, ParsePrim());
      parts.push_back(next);
    }
    return RqExpr::And(std::move(parts));
  }

  Result<RqExprPtr> ParsePrim() {
    if (scan_.Peek() == '(') return ParseParenExpr();
    RQ_ASSIGN_OR_RETURN(std::string_view ident,
                        scan_.ExpectIdent("atom or operator"));
    if (ident == "exists") {
      RQ_ASSIGN_OR_RETURN(std::vector<VarId> bound,
                          ParseVarList(scan_, vars_, '[', ']'));
      RQ_ASSIGN_OR_RETURN(RqExprPtr child, ParseParenExpr());
      for (VarId v : bound) {
        const auto& fv = child->FreeVars();
        if (!std::binary_search(fv.begin(), fv.end(), v)) {
          return scan_.Error("exists-variable '" + Excerpt(vars_.name(v)) +
                             "' is not free in its scope");
        }
      }
      return RqExpr::Exists(std::move(bound), std::move(child));
    }
    if (ident == "tc" || ident == "eq") {
      RQ_ASSIGN_OR_RETURN(std::vector<VarId> pair,
                          ParseVarList(scan_, vars_, '[', ']'));
      if (pair.size() != 2 || pair[0] == pair[1]) {
        return scan_.Error(std::string(ident) +
                           " needs two distinct variables");
      }
      RQ_ASSIGN_OR_RETURN(RqExprPtr child, ParseParenExpr());
      const auto& fv = child->FreeVars();
      for (VarId v : pair) {
        if (!std::binary_search(fv.begin(), fv.end(), v)) {
          return scan_.Error(std::string(ident) + " variable '" +
                             Excerpt(vars_.name(v)) + "' is not free");
        }
      }
      if (ident == "eq") {
        return RqExpr::Eq(pair[0], pair[1], std::move(child));
      }
      // Free variables of the subquery beyond the closure pair are
      // parameters, held fixed along the chain (docs/SYNTAX.md).
      return RqExpr::Closure(pair[0], pair[1], std::move(child));
    }
    // Atom.
    RQ_ASSIGN_OR_RETURN(std::vector<VarId> vars, ParseVarList(scan_, vars_));
    return RqExpr::Atom(std::string(ident), std::move(vars));
  }

  // '(' expr ')': a parenthesized expression or an operator body, one
  // nesting level each.
  Result<RqExprPtr> ParseParenExpr() {
    RQ_RETURN_IF_ERROR(scan_.Expect("("));
    RQ_RETURN_IF_ERROR(scan_.Enter());
    RQ_ASSIGN_OR_RETURN(RqExprPtr inner, ParseExpr());
    RQ_RETURN_IF_ERROR(scan_.Expect(")"));
    scan_.Leave();
    return inner;
  }

  Scanner scan_;
  VarTable vars_;
};

}  // namespace

Result<RqQuery> ParseRq(std::string_view text) {
  return RqParser(text).Parse();
}

}  // namespace rq

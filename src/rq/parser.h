// Textual syntax for Regular Queries.
//
//   query  := [ IDENT '(' vars ')' ':=' ] expr
//   expr   := and ( '|' and )*                 disjunction
//   and    := prim ( '&' prim )*               conjunction
//   prim   := IDENT '(' vars ')'               atom
//           | 'exists' '[' vars ']' '(' expr ')'   projection
//           | 'tc' '[' v ',' v ']' '(' expr ')'    transitive closure
//           | 'eq' '[' v ',' v ']' '(' expr ')'    selection
//           | '(' expr ')'
//
// Example — the transitive closure of the paper's triangle query (§3.4):
//   q(x, y) := tc[x,y]( exists[z]( r(x,y) & r(y,z) & r(z,x) ) )
// Without an explicit head, the head is the sorted free variables.
// 'exists', 'tc' and 'eq' are reserved words. Parentheses and operator
// bodies nest at most kMaxNesting levels (common/scanner.h).
#ifndef RQ_RQ_PARSER_H_
#define RQ_RQ_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "rq/rq_expr.h"

namespace rq {

Result<RqQuery> ParseRq(std::string_view text);

}  // namespace rq

#endif  // RQ_RQ_PARSER_H_

// GRQ: Generalized Regular Queries (paper §4.1, Theorem 8).
//
// GRQ is the fragment of Datalog where recursion is used only to express
// transitive closure. This module recognizes that fragment structurally and
// extracts an equivalent RqQuery, which lifts every RQ facility (evaluation
// cross-checking, containment with certificates) to Datalog programs in the
// fragment.
//
// Accepted recursion shapes, per recursive SCC:
//   * the SCC is a single binary predicate P;
//   * "base" rules derive P without using P in the body (arbitrary positive
//     bodies over earlier predicates);
//   * "step" rules extend P linearly on the right
//         P(x, z) :- P(x, y), tail(y, .., z).
//     or on the left
//         P(x, z) :- head(x, .., y), P(y, z).
//     where the non-P part is over earlier predicates and chains y to z
//     (resp. x to y);
//   * optionally the nonlinear rule  P(x, z) :- P(x, y), P(y, z).
// The least fixpoint of such an SCC is  L* ∘ U ∘ R*  (U the base union,
// L/R the left/right step relations), wrapped in a transitive closure when
// the nonlinear rule is present — all expressible in RQ. The §4.1 embedding
// (RqToDatalog) emits exactly the strict TC shape, so round-tripping is
// exact (tested).
#ifndef RQ_RQ_FROM_DATALOG_H_
#define RQ_RQ_FROM_DATALOG_H_

#include <optional>
#include <string>
#include <vector>

#include "automata/alphabet.h"
#include "automata/nfa.h"
#include "common/status.h"
#include "datalog/program.h"
#include "rq/rq_expr.h"

namespace rq {

struct GrqAnalysis {
  bool is_grq = false;
  // When !is_grq: which SCC/rule violated the fragment and why.
  std::string reason;
};

// Structural recognition (the program's goal is not required).
GrqAnalysis AnalyzeGrq(const DatalogProgram& program);

// Extracts an RqQuery equivalent to the program's goal predicate. Fails
// with InvalidArgument when the program is not (recognizably) GRQ; the
// message carries the reason.
Result<RqQuery> DatalogToRq(const DatalogProgram& program);

// A linear chain program read as an automaton over graph symbols.
struct ChainAutomaton {
  // States are the binary IDB predicates; copy rules are ε moves, the
  // goal is the accepting state and the heads of P(X,X) :- D(X) are the
  // initial ones.
  Nfa nfa{0};
  // D's extension: the nodes with a step over one of these symbols
  // (e for D(X) :- e(X,Y), e- for D(Y) :- e(X,Y)).
  std::vector<Symbol> domain;
};

// Recognizes a linear chain program: its goal is a binary IDB predicate
// and every IDB rule has one of the forms
//   P(X,Z) :- Q(X,Y), e(Y,Z).   a move from Q to P over e
//   P(X,Z) :- Q(X,Y), e(Z,Y).   a move from Q to P over e-
//   P(X,Y) :- Q(X,Y).           an ε move from Q to P
//   P(X,X) :- D(X).             P initial
// with P and Q binary IDB predicates, e a binary EDB predicate, and D the
// program's only unary IDB predicate, defined by rules D(X) :- e(X,Y) or
// D(Y) :- e(X,Y). pathquery/to_datalog.h writes this shape. The goal's
// answer is then the automaton's, evaluated from the nodes of D only, so
// an ε answer covers D's nodes. EDB labels are interned into `alphabet`;
// a program with an IDB predicate that `alphabet` already names is
// refused, as the engine refuses an IDB predicate present in the EDB.
// Nullopt for every other program, and for an invalid one.
std::optional<ChainAutomaton> TryLowerLinearChain(
    const DatalogProgram& program, Alphabet* alphabet);

}  // namespace rq

#endif  // RQ_RQ_FROM_DATALOG_H_

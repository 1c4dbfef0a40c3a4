#include "rq/lower.h"

#include <algorithm>

namespace rq {

namespace {

bool FreesAre(const RqExpr& e, VarId a, VarId b) {
  std::vector<VarId> expected{a, b};
  std::sort(expected.begin(), expected.end());
  return e.FreeVars() == expected;
}

// Flattens nested Exists/And into conjuncts and collected bound variables.
void Flatten(const RqExprPtr& e, std::vector<RqExprPtr>* conjuncts,
             std::vector<VarId>* bound) {
  switch (e->kind()) {
    case RqExpr::Kind::kAnd:
      for (const RqExprPtr& c : e->children()) Flatten(c, conjuncts, bound);
      return;
    case RqExpr::Kind::kExists:
      bound->insert(bound->end(), e->bound_vars().begin(),
                    e->bound_vars().end());
      Flatten(e->children()[0], conjuncts, bound);
      return;
    default:
      conjuncts->push_back(e);
      return;
  }
}

std::optional<RegexPtr> Lower(const RqExprPtr& e, VarId from, VarId to,
                              Alphabet* alphabet);

// The nested And/Exists `e` as one C2RPQ with `head`: every conjunct must
// lower to a 2RPQ between its two free variables, and becomes one atom.
// Flattening merges the scopes of the projections, so a variable bound
// twice, or bound and also free in `e`, is refused.
std::optional<Crpq> LowerConjunction(const RqExprPtr& e,
                                     std::vector<VarId> head,
                                     Alphabet* alphabet) {
  std::vector<RqExprPtr> conjuncts;
  std::vector<VarId> bound;
  Flatten(e, &conjuncts, &bound);
  std::sort(bound.begin(), bound.end());
  if (std::adjacent_find(bound.begin(), bound.end()) != bound.end()) {
    return std::nullopt;
  }
  for (VarId v : bound) {
    if (std::binary_search(e->FreeVars().begin(), e->FreeVars().end(), v)) {
      return std::nullopt;
    }
  }
  Crpq crpq;
  crpq.head = std::move(head);
  for (VarId v : crpq.head) crpq.num_vars = std::max(crpq.num_vars, v + 1);
  for (const RqExprPtr& conjunct : conjuncts) {
    const auto& fv = conjunct->FreeVars();
    if (fv.size() != 2) return std::nullopt;
    std::optional<RegexPtr> regex = Lower(conjunct, fv[0], fv[1], alphabet);
    if (!regex.has_value()) return std::nullopt;
    crpq.atoms.push_back({std::move(*regex), fv[0], fv[1]});
    crpq.num_vars = std::max({crpq.num_vars, fv[0] + 1, fv[1] + 1});
  }
  return crpq;
}

std::optional<RegexPtr> Lower(const RqExprPtr& e, VarId from, VarId to,
                              Alphabet* alphabet) {
  if (!FreesAre(*e, from, to)) return std::nullopt;
  switch (e->kind()) {
    case RqExpr::Kind::kAtom: {
      if (e->atom_vars().size() != 2) return std::nullopt;
      VarId u = e->atom_vars()[0];
      VarId v = e->atom_vars()[1];
      if (u == v) return std::nullopt;
      uint32_t label = alphabet->InternLabel(e->predicate());
      if (u == from && v == to) {
        return Regex::Atom(ForwardSymbolOf(label));
      }
      if (u == to && v == from) {
        return Regex::Atom(InverseSymbolOf(label));
      }
      return std::nullopt;
    }
    case RqExpr::Kind::kOr: {
      std::vector<RegexPtr> parts;
      for (const RqExprPtr& c : e->children()) {
        std::optional<RegexPtr> part = Lower(c, from, to, alphabet);
        if (!part.has_value()) return std::nullopt;
        parts.push_back(std::move(*part));
      }
      return Regex::Union(std::move(parts));
    }
    case RqExpr::Kind::kClosure: {
      // Transitive closure commutes with inversion, so querying the closure
      // in either orientation is the Plus of the child queried in that same
      // orientation.
      std::optional<RegexPtr> child =
          Lower(e->children()[0], from, to, alphabet);
      if (!child.has_value()) return std::nullopt;
      return Regex::Plus(std::move(*child));
    }
    case RqExpr::Kind::kExists:
    case RqExpr::Kind::kAnd: {
      // A chain from `from` to `to`, collapsed by the C2RPQ chain walker.
      std::optional<Crpq> chain = LowerConjunction(e, {from, to}, alphabet);
      if (!chain.has_value()) return std::nullopt;
      return TryLowerUc2Rpq(Uc2Rpq{{std::move(*chain)}});
    }
    case RqExpr::Kind::kEq:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

std::optional<Uc2Rpq> TryLowerToUc2Rpq(const RqQuery& query,
                                       Alphabet* alphabet) {
  if (!query.Validate().ok()) return std::nullopt;
  std::vector<RqExprPtr> disjuncts =
      query.root->kind() == RqExpr::Kind::kOr
          ? query.root->children()
          : std::vector<RqExprPtr>{query.root};
  Uc2Rpq out;
  for (const RqExprPtr& disjunct : disjuncts) {
    std::optional<Crpq> crpq = LowerConjunction(disjunct, query.head, alphabet);
    if (!crpq.has_value()) return std::nullopt;
    out.disjuncts.push_back(std::move(*crpq));
  }
  if (!out.Validate().ok()) return std::nullopt;
  return out;
}

}  // namespace rq

#include "rq/rq_expr.h"

#include <algorithm>
#include <unordered_map>

namespace rq {

namespace {

std::vector<VarId> SortedUnique(std::vector<VarId> vars) {
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

bool IsFree(const RqExprPtr& e, VarId v) {
  const auto& fv = e->FreeVars();
  return std::binary_search(fv.begin(), fv.end(), v);
}

}  // namespace

RqExprPtr RqExpr::Atom(std::string predicate, std::vector<VarId> vars) {
  RQ_CHECK(!predicate.empty());
  RQ_CHECK(!vars.empty());
  auto e = std::shared_ptr<RqExpr>(new RqExpr());
  e->kind_ = Kind::kAtom;
  e->predicate_ = std::move(predicate);
  e->atom_vars_ = vars;
  e->free_vars_ = SortedUnique(std::move(vars));
  return e;
}

RqExprPtr RqExpr::And(std::vector<RqExprPtr> children) {
  RQ_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  auto e = std::shared_ptr<RqExpr>(new RqExpr());
  e->kind_ = Kind::kAnd;
  std::vector<VarId> frees;
  for (const RqExprPtr& c : children) {
    frees.insert(frees.end(), c->FreeVars().begin(), c->FreeVars().end());
  }
  e->free_vars_ = SortedUnique(std::move(frees));
  e->children_ = std::move(children);
  return e;
}

RqExprPtr RqExpr::Or(std::vector<RqExprPtr> children) {
  RQ_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  for (size_t i = 1; i < children.size(); ++i) {
    RQ_CHECK(children[i]->FreeVars() == children[0]->FreeVars());
  }
  auto e = std::shared_ptr<RqExpr>(new RqExpr());
  e->kind_ = Kind::kOr;
  e->free_vars_ = children[0]->FreeVars();
  e->children_ = std::move(children);
  return e;
}

RqExprPtr RqExpr::Exists(std::vector<VarId> vars, RqExprPtr child) {
  RQ_CHECK(!vars.empty());
  vars = SortedUnique(std::move(vars));
  for (VarId v : vars) RQ_CHECK(IsFree(child, v));
  auto e = std::shared_ptr<RqExpr>(new RqExpr());
  e->kind_ = Kind::kExists;
  std::vector<VarId> frees;
  for (VarId v : child->FreeVars()) {
    if (!std::binary_search(vars.begin(), vars.end(), v)) {
      frees.push_back(v);
    }
  }
  e->free_vars_ = std::move(frees);
  e->bound_vars_ = std::move(vars);
  e->children_ = {std::move(child)};
  return e;
}

RqExprPtr RqExpr::Eq(VarId a, VarId b, RqExprPtr child) {
  RQ_CHECK(a != b);
  RQ_CHECK(IsFree(child, a) && IsFree(child, b));
  auto e = std::shared_ptr<RqExpr>(new RqExpr());
  e->kind_ = Kind::kEq;
  e->var_a_ = a;
  e->var_b_ = b;
  e->free_vars_ = child->FreeVars();
  e->children_ = {std::move(child)};
  return e;
}

RqExprPtr RqExpr::Closure(VarId from, VarId to, RqExprPtr child) {
  RQ_CHECK(from != to);
  RQ_CHECK(IsFree(child, from) && IsFree(child, to));
  auto e = std::shared_ptr<RqExpr>(new RqExpr());
  e->kind_ = Kind::kClosure;
  e->var_a_ = from;
  e->var_b_ = to;
  // Free variables besides the endpoints are parameters: they stay free and
  // are held fixed along the whole chain.
  e->free_vars_ = child->FreeVars();
  e->children_ = {std::move(child)};
  return e;
}

size_t RqExpr::Size() const {
  size_t n = 1;
  for (const RqExprPtr& c : children_) n += c->Size();
  return n;
}

bool RqExpr::UsesClosure() const {
  if (kind_ == Kind::kClosure) return true;
  for (const RqExprPtr& c : children_) {
    if (c->UsesClosure()) return true;
  }
  return false;
}

uint32_t RqExpr::MaxVarIdPlus1() const {
  uint32_t n = 0;
  for (VarId v : atom_vars_) n = std::max(n, v + 1);
  for (VarId v : bound_vars_) n = std::max(n, v + 1);
  if (kind_ == Kind::kEq || kind_ == Kind::kClosure) {
    n = std::max({n, var_a_ + 1, var_b_ + 1});
  }
  for (const RqExprPtr& c : children_) n = std::max(n, c->MaxVarIdPlus1());
  return n;
}

std::vector<std::string> RqExpr::Predicates() const {
  std::vector<std::string> out;
  if (kind_ == Kind::kAtom) out.push_back(predicate_);
  for (const RqExprPtr& c : children_) {
    std::vector<std::string> sub = c->Predicates();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

std::string NameOf(const std::vector<std::string>& names, VarId v) {
  if (v < names.size() && !names[v].empty()) return names[v];
  return "v" + std::to_string(v);
}

// An operator body in the parentheses the parser reads it in. A
// conjunction or disjunction prints its own pair; a second pair would add
// a nesting level per operator.
std::string BodyToString(const RqExpr& body,
                         const std::vector<std::string>& names) {
  std::string text = body.ToString(names);
  if (body.kind() == RqExpr::Kind::kAnd || body.kind() == RqExpr::Kind::kOr) {
    return text;
  }
  return "(" + text + ")";
}

}  // namespace

std::string RqExpr::ToString(const std::vector<std::string>& names) const {
  switch (kind_) {
    case Kind::kAtom: {
      std::string out = predicate_ + "(";
      for (size_t i = 0; i < atom_vars_.size(); ++i) {
        if (i > 0) out += ", ";
        out += NameOf(names, atom_vars_[i]);
      }
      return out + ")";
    }
    case Kind::kAnd: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " & ";
        out += children_[i]->ToString(names);
      }
      return out + ")";
    }
    case Kind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " | ";
        out += children_[i]->ToString(names);
      }
      return out + ")";
    }
    case Kind::kExists: {
      std::string out = "exists[";
      for (size_t i = 0; i < bound_vars_.size(); ++i) {
        if (i > 0) out += ", ";
        out += NameOf(names, bound_vars_[i]);
      }
      return out + "]" + BodyToString(*children_[0], names);
    }
    case Kind::kEq:
      return "eq[" + NameOf(names, var_a_) + ", " + NameOf(names, var_b_) +
             "]" + BodyToString(*children_[0], names);
    case Kind::kClosure:
      return "tc[" + NameOf(names, var_a_) + ", " + NameOf(names, var_b_) +
             "]" + BodyToString(*children_[0], names);
  }
  RQ_CHECK(false);
  return "";
}

Status RqQuery::Validate() const {
  if (root == nullptr) return InvalidArgumentError("RqQuery: null root");
  if (head.empty()) return InvalidArgumentError("RqQuery: empty head");
  for (VarId v : head) {
    const auto& fv = root->FreeVars();
    if (!std::binary_search(fv.begin(), fv.end(), v)) {
      return InvalidArgumentError(
          "RqQuery: head variable not free in the expression");
    }
  }
  return Status::Ok();
}

std::string RqQuery::ToString() const {
  std::string out = "q(";
  for (size_t i = 0; i < head.size(); ++i) {
    if (i > 0) out += ", ";
    out += NameOf(var_names, head[i]);
  }
  out += ") := ";
  out += root == nullptr ? "<null>" : root->ToString(var_names);
  return out;
}

namespace {

RqExprPtr SubstituteImpl(const RqExprPtr& expr,
                         std::unordered_map<VarId, VarId>& env,
                         uint32_t* next_var) {
  auto lookup = [&](VarId v) {
    auto it = env.find(v);
    return it == env.end() ? v : it->second;
  };
  switch (expr->kind()) {
    case RqExpr::Kind::kAtom: {
      std::vector<VarId> vars;
      vars.reserve(expr->atom_vars().size());
      for (VarId v : expr->atom_vars()) vars.push_back(lookup(v));
      return RqExpr::Atom(expr->predicate(), std::move(vars));
    }
    case RqExpr::Kind::kAnd:
    case RqExpr::Kind::kOr: {
      std::vector<RqExprPtr> children;
      children.reserve(expr->children().size());
      for (const RqExprPtr& c : expr->children()) {
        children.push_back(SubstituteImpl(c, env, next_var));
      }
      return expr->kind() == RqExpr::Kind::kAnd
                 ? RqExpr::And(std::move(children))
                 : RqExpr::Or(std::move(children));
    }
    case RqExpr::Kind::kExists: {
      // Bound variables get fresh ids; restore the outer env afterwards.
      std::vector<std::pair<VarId, bool>> saved;  // var, had_entry
      std::vector<VarId> old_values;
      std::vector<VarId> fresh;
      for (VarId v : expr->bound_vars()) {
        VarId nv = (*next_var)++;
        fresh.push_back(nv);
        auto it = env.find(v);
        if (it != env.end()) {
          saved.push_back({v, true});
          old_values.push_back(it->second);
          it->second = nv;
        } else {
          saved.push_back({v, false});
          old_values.push_back(0);
          env.emplace(v, nv);
        }
      }
      RqExprPtr child = SubstituteImpl(expr->children()[0], env, next_var);
      for (size_t i = 0; i < saved.size(); ++i) {
        if (saved[i].second) {
          env[saved[i].first] = old_values[i];
        } else {
          env.erase(saved[i].first);
        }
      }
      return RqExpr::Exists(std::move(fresh), std::move(child));
    }
    case RqExpr::Kind::kEq: {
      VarId a = lookup(expr->eq_a());
      VarId b = lookup(expr->eq_b());
      RqExprPtr child = SubstituteImpl(expr->children()[0], env, next_var);
      // A substitution that merges the two selected variables makes the
      // selection trivially true.
      if (a == b) return child;
      return RqExpr::Eq(a, b, std::move(child));
    }
    case RqExpr::Kind::kClosure:
      return RqExpr::Closure(
          lookup(expr->closure_from()), lookup(expr->closure_to()),
          SubstituteImpl(expr->children()[0], env, next_var));
  }
  RQ_CHECK(false);
  return nullptr;
}

}  // namespace

RqExprPtr SubstituteFreeVars(
    const RqExprPtr& expr,
    const std::vector<std::pair<VarId, VarId>>& mapping, uint32_t* next_var) {
  std::unordered_map<VarId, VarId> env;
  for (const auto& [from, to] : mapping) env.emplace(from, to);
  return SubstituteImpl(expr, env, next_var);
}

RqExprPtr ComposeBinary(const RqExprPtr& e1, const RqExprPtr& e2,
                        uint32_t* next_var) {
  RQ_CHECK(e1->FreeVars() == (std::vector<VarId>{0, 1}));
  RQ_CHECK(e2->FreeVars() == (std::vector<VarId>{0, 1}));
  VarId m = (*next_var)++;
  RqExprPtr left = SubstituteFreeVars(e1, {{1, m}}, next_var);
  RqExprPtr right = SubstituteFreeVars(e2, {{0, m}}, next_var);
  return RqExpr::Exists({m},
                        RqExpr::And({std::move(left), std::move(right)}));
}

}  // namespace rq

#include "regex/regex.h"

#include <algorithm>
#include <utility>

#include "common/scanner.h"
#include "obs/subsystems.h"

namespace rq {

RegexPtr Regex::Empty() {
  return RegexPtr(new Regex(RegexKind::kEmpty, kInvalidSymbol, {}));
}
RegexPtr Regex::Epsilon() {
  return RegexPtr(new Regex(RegexKind::kEpsilon, kInvalidSymbol, {}));
}
RegexPtr Regex::Atom(Symbol symbol) {
  return RegexPtr(new Regex(RegexKind::kAtom, symbol, {}));
}
RegexPtr Regex::Concat(std::vector<RegexPtr> children) {
  if (children.empty()) return Epsilon();
  if (children.size() == 1) return children[0];
  return RegexPtr(
      new Regex(RegexKind::kConcat, kInvalidSymbol, std::move(children)));
}
RegexPtr Regex::Union(std::vector<RegexPtr> children) {
  RQ_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  return RegexPtr(
      new Regex(RegexKind::kUnion, kInvalidSymbol, std::move(children)));
}
RegexPtr Regex::Star(RegexPtr child) {
  return RegexPtr(
      new Regex(RegexKind::kStar, kInvalidSymbol, {std::move(child)}));
}
RegexPtr Regex::Plus(RegexPtr child) {
  return RegexPtr(
      new Regex(RegexKind::kPlus, kInvalidSymbol, {std::move(child)}));
}
RegexPtr Regex::Optional(RegexPtr child) {
  return RegexPtr(
      new Regex(RegexKind::kOptional, kInvalidSymbol, {std::move(child)}));
}

size_t Regex::Size() const {
  size_t n = 1;
  for (const RegexPtr& c : children_) n += c->Size();
  return n;
}

bool Regex::UsesInverse() const {
  if (kind_ == RegexKind::kAtom) return IsInverseSymbol(symbol_);
  for (const RegexPtr& c : children_) {
    if (c->UsesInverse()) return true;
  }
  return false;
}

uint32_t Regex::MinNumSymbols() const {
  uint32_t n = 0;
  if (kind_ == RegexKind::kAtom) n = symbol_ + 1;
  for (const RegexPtr& c : children_) n = std::max(n, c->MinNumSymbols());
  return n;
}

RegexPtr Regex::InverseExpression() const {
  switch (kind_) {
    case RegexKind::kEmpty:
      return Empty();
    case RegexKind::kEpsilon:
      return Epsilon();
    case RegexKind::kAtom:
      return Atom(InverseSymbol(symbol_));
    case RegexKind::kConcat: {
      std::vector<RegexPtr> rev;
      rev.reserve(children_.size());
      for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
        rev.push_back((*it)->InverseExpression());
      }
      return Concat(std::move(rev));
    }
    case RegexKind::kUnion: {
      std::vector<RegexPtr> out;
      out.reserve(children_.size());
      for (const RegexPtr& c : children_) out.push_back(c->InverseExpression());
      return Union(std::move(out));
    }
    case RegexKind::kStar:
      return Star(children_[0]->InverseExpression());
    case RegexKind::kPlus:
      return Plus(children_[0]->InverseExpression());
    case RegexKind::kOptional:
      return Optional(children_[0]->InverseExpression());
  }
  RQ_CHECK(false);
  return Empty();
}

namespace {

int Precedence(RegexKind kind) {
  switch (kind) {
    case RegexKind::kUnion:
      return 0;
    case RegexKind::kConcat:
      return 1;
    default:
      // Atoms and postfix operators never need parentheses (postfix chains
      // like a*? parse left-to-right anyway).
      return 3;
  }
}

void Render(const Regex& re, const Alphabet& alphabet, int parent_prec,
            std::string* out) {
  int prec = Precedence(re.kind());
  bool parens = prec < parent_prec;
  if (parens) out->push_back('(');
  switch (re.kind()) {
    case RegexKind::kEmpty:
      out->append("<empty>");
      break;
    case RegexKind::kEpsilon:
      out->append("()");
      break;
    case RegexKind::kAtom:
      out->append(alphabet.SymbolName(re.symbol()));
      break;
    case RegexKind::kConcat:
      for (size_t i = 0; i < re.children().size(); ++i) {
        if (i > 0) out->push_back(' ');
        Render(*re.children()[i], alphabet, 1, out);
      }
      break;
    case RegexKind::kUnion:
      for (size_t i = 0; i < re.children().size(); ++i) {
        if (i > 0) out->append(" | ");
        Render(*re.children()[i], alphabet, 0, out);
      }
      break;
    case RegexKind::kStar:
      Render(*re.children()[0], alphabet, 3, out);
      out->push_back('*');
      break;
    case RegexKind::kPlus:
      Render(*re.children()[0], alphabet, 3, out);
      out->push_back('+');
      break;
    case RegexKind::kOptional:
      Render(*re.children()[0], alphabet, 3, out);
      out->push_back('?');
      break;
  }
  if (parens) out->push_back(')');
}

}  // namespace

std::string Regex::ToString(const Alphabet& alphabet) const {
  std::string out;
  Render(*this, alphabet, 0, &out);
  return out;
}

namespace {

// Thompson fragments: one entry, one exit per subexpression.
struct Fragment {
  uint32_t entry;
  uint32_t exit;
};

Fragment Build(const Regex& re, Nfa* nfa) {
  switch (re.kind()) {
    case RegexKind::kEmpty: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      return {in, out};  // no path
    }
    case RegexKind::kEpsilon: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      nfa->AddEpsilon(in, out);
      return {in, out};
    }
    case RegexKind::kAtom: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      nfa->AddTransition(in, re.symbol(), out);
      return {in, out};
    }
    case RegexKind::kConcat: {
      Fragment first = Build(*re.children()[0], nfa);
      Fragment prev = first;
      for (size_t i = 1; i < re.children().size(); ++i) {
        Fragment next = Build(*re.children()[i], nfa);
        nfa->AddEpsilon(prev.exit, next.entry);
        prev = next;
      }
      return {first.entry, prev.exit};
    }
    case RegexKind::kUnion: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      for (const RegexPtr& c : re.children()) {
        Fragment f = Build(*c, nfa);
        nfa->AddEpsilon(in, f.entry);
        nfa->AddEpsilon(f.exit, out);
      }
      return {in, out};
    }
    case RegexKind::kStar: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      Fragment f = Build(*re.children()[0], nfa);
      nfa->AddEpsilon(in, out);
      nfa->AddEpsilon(in, f.entry);
      nfa->AddEpsilon(f.exit, out);
      nfa->AddEpsilon(f.exit, f.entry);
      return {in, out};
    }
    case RegexKind::kPlus: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      Fragment f = Build(*re.children()[0], nfa);
      nfa->AddEpsilon(in, f.entry);
      nfa->AddEpsilon(f.exit, out);
      nfa->AddEpsilon(f.exit, f.entry);
      return {in, out};
    }
    case RegexKind::kOptional: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      Fragment f = Build(*re.children()[0], nfa);
      nfa->AddEpsilon(in, out);
      nfa->AddEpsilon(in, f.entry);
      nfa->AddEpsilon(f.exit, out);
      return {in, out};
    }
  }
  RQ_CHECK(false);
  return {0, 0};
}

}  // namespace

Nfa Regex::ToNfa(uint32_t num_symbols) const {
  Nfa nfa(num_symbols);
  Fragment f = Build(*this, &nfa);
  nfa.AddInitial(f.entry);
  nfa.SetAccepting(f.exit);
  obs::RegexCounters& counters = obs::RegexCounters::Get();
  counters.nfa_builds.Increment();
  counters.nfa_states.Add(nfa.num_states());
  return nfa;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class RegexParser {
 public:
  RegexParser(Scanner& scan, Alphabet* alphabet)
      : scan_(scan), alphabet_(alphabet), peak_(scan.depth()) {}

  Result<RegexPtr> ParseUnion() {
    std::vector<RegexPtr> parts;
    do {
      RQ_ASSIGN_OR_RETURN(RegexPtr part, ParseConcat());
      parts.push_back(std::move(part));
    } while (scan_.Consume("|"));
    return Regex::Union(std::move(parts));
  }

 private:
  bool AtPrimaryStart() {
    char c = scan_.Peek();
    return c == '(' || IsIdentStart(c);
  }

  Result<RegexPtr> ParseConcat() {
    if (!AtPrimaryStart()) return scan_.Error("expected expression");
    std::vector<RegexPtr> parts;
    while (AtPrimaryStart()) {
      RQ_ASSIGN_OR_RETURN(RegexPtr part, ParsePostfix());
      parts.push_back(std::move(part));
    }
    return Regex::Concat(std::move(parts));
  }

  // An operator wraps its whole operand, so it nests one level below the
  // operand's deepest point: `(a)+` nests two levels, as `((a))` does.
  Result<RegexPtr> ParsePostfix() {
    size_t outer_peak = std::exchange(peak_, scan_.depth());
    RQ_ASSIGN_OR_RETURN(RegexPtr re, ParsePrimary());
    for (char op = scan_.Peek(); op == '*' || op == '+' || op == '?';
         op = scan_.Peek()) {
      RQ_RETURN_IF_ERROR(scan_.CheckDepth(++peak_));
      scan_.Consume(std::string_view(&op, 1));
      if (op == '*') {
        re = Regex::Star(std::move(re));
      } else if (op == '+') {
        re = Regex::Plus(std::move(re));
      } else {
        re = Regex::Optional(std::move(re));
      }
    }
    peak_ = std::max(peak_, outer_peak);
    return re;
  }

  Result<RegexPtr> ParsePrimary() {
    if (scan_.Consume("(")) {
      RQ_RETURN_IF_ERROR(scan_.Enter());
      peak_ = std::max(peak_, scan_.depth());
      if (scan_.Consume(")")) {
        scan_.Leave();
        return Regex::Epsilon();
      }
      RQ_ASSIGN_OR_RETURN(RegexPtr inner, ParseUnion());
      RQ_RETURN_IF_ERROR(scan_.Expect(")"));
      scan_.Leave();
      return inner;
    }
    RQ_ASSIGN_OR_RETURN(std::string_view name, scan_.ExpectIdent("label"));
    bool inverse = scan_.ConsumeAdjacent('-');
    uint32_t label = alphabet_->InternLabel(name);
    return Regex::Atom(inverse ? InverseSymbolOf(label)
                               : ForwardSymbolOf(label));
  }

  Scanner& scan_;
  Alphabet* alphabet_;
  // The deepest nesting level reached inside the operand ParsePostfix is
  // reading.
  size_t peak_;
};

}  // namespace

Result<RegexPtr> ParseRegex(Scanner& scan, Alphabet* alphabet) {
  return RegexParser(scan, alphabet).ParseUnion();
}

Result<RegexPtr> ParseRegex(std::string_view text, Alphabet* alphabet) {
  Scanner scan(text, "regex");
  RQ_ASSIGN_OR_RETURN(RegexPtr re, ParseRegex(scan, alphabet));
  RQ_RETURN_IF_ERROR(scan.ExpectEnd());
  return re;
}

RegexPtr RandomRegex(const Alphabet& alphabet, int max_depth,
                     bool allow_inverse, Rng& rng) {
  RQ_CHECK(alphabet.num_labels() > 0);
  auto random_atom = [&]() {
    uint32_t label = static_cast<uint32_t>(rng.Below(alphabet.num_labels()));
    bool inverse = allow_inverse && rng.Chance(0.35);
    return Regex::Atom(inverse ? InverseSymbolOf(label)
                               : ForwardSymbolOf(label));
  };
  if (max_depth <= 0) return random_atom();
  switch (rng.Below(8)) {
    case 0:
    case 1:
      return random_atom();
    case 2: {
      std::vector<RegexPtr> kids;
      size_t n = 2 + rng.Below(2);
      for (size_t i = 0; i < n; ++i) {
        kids.push_back(RandomRegex(alphabet, max_depth - 1, allow_inverse,
                                   rng));
      }
      return Regex::Concat(std::move(kids));
    }
    case 3: {
      std::vector<RegexPtr> kids;
      size_t n = 2 + rng.Below(2);
      for (size_t i = 0; i < n; ++i) {
        kids.push_back(RandomRegex(alphabet, max_depth - 1, allow_inverse,
                                   rng));
      }
      return Regex::Union(std::move(kids));
    }
    case 4:
      return Regex::Star(
          RandomRegex(alphabet, max_depth - 1, allow_inverse, rng));
    case 5:
      return Regex::Plus(
          RandomRegex(alphabet, max_depth - 1, allow_inverse, rng));
    case 6:
      return Regex::Optional(
          RandomRegex(alphabet, max_depth - 1, allow_inverse, rng));
    default: {
      std::vector<RegexPtr> kids;
      kids.push_back(RandomRegex(alphabet, max_depth - 1, allow_inverse, rng));
      kids.push_back(random_atom());
      return Regex::Concat(std::move(kids));
    }
  }
}

}  // namespace rq

#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/scanner.h"

namespace rq {
namespace obs {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::Number(uint64_t value) {
  return Number(static_cast<double>(value));
}

JsonValue JsonValue::Number(int64_t value) {
  return Number(static_cast<double>(value));
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

void JsonValue::Set(std::string key, JsonValue value) {
  for (auto& [existing, slot] : members_) {
    if (existing == key) {
      slot = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [existing, value] : members_) {
    if (existing == key) return &value;
  }
  return nullptr;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

void AppendNumber(double value, std::string* out) {
  // JSON has no inf/nan tokens; render them as null rather than emitting a
  // bare "inf" that breaks every downstream parser (Google Benchmark's
  // items_per_second is +inf whenever the coarse CPU clock reads zero in a
  // smoke run).
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  // Integers (the common case: counters, nanosecond timings) print without
  // a fractional part so the schema stays stable and diffable.
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    *out += buf;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

void DumpTo(const JsonValue& v, int indent, int depth, std::string* out) {
  auto newline = [&](int d) {
    if (indent < 0) return;
    out->push_back('\n');
    out->append(static_cast<size_t>(indent) * d, ' ');
  };
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBool:
      *out += v.bool_value() ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      AppendNumber(v.number_value(), out);
      return;
    case JsonValue::Kind::kString:
      out->push_back('"');
      *out += JsonEscape(v.string_value());
      out->push_back('"');
      return;
    case JsonValue::Kind::kArray: {
      if (v.items().empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out->push_back(',');
        first = false;
        newline(depth + 1);
        DumpTo(item, indent, depth + 1, out);
      }
      newline(depth);
      out->push_back(']');
      return;
    }
    case JsonValue::Kind::kObject: {
      if (v.members().empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) out->push_back(',');
        first = false;
        newline(depth + 1);
        out->push_back('"');
        *out += JsonEscape(key);
        *out += indent < 0 ? "\":" : "\": ";
        DumpTo(value, indent, depth + 1, out);
      }
      newline(depth);
      out->push_back('}');
      return;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    RQ_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return InvalidArgumentError("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + message);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Arrays and objects nest at most kMaxNesting deep, the bound the
      // query syntaxes share: requests are parsed on connection threads.
      if (++depth_ > kMaxNesting) {
        return Error("nesting deeper than " + std::to_string(kMaxNesting) +
                     " levels");
      }
      Result<JsonValue> nested = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return nested;
    }
    if (c == '"') {
      RQ_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue::String(std::move(s));
    }
    if (c == 't') return ParseLiteral("true", JsonValue::Bool(true));
    if (c == 'f') return ParseLiteral("false", JsonValue::Bool(false));
    if (c == 'n') return ParseLiteral("null", JsonValue::Null());
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Error(std::string("unexpected character '") + c + "'");
  }

  Result<JsonValue> ParseLiteral(std::string_view literal, JsonValue value) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Error("invalid literal");
    }
    pos_ += literal.size();
    return value;
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty()) {
      return Error("invalid number '" + token + "'");
    }
    return JsonValue::Number(value);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape");
              }
            }
            // Only the escapes the writer emits (< 0x20) and plain ASCII
            // are supported; anything else is out of schema.
            if (code > 0x7f) return Error("non-ASCII \\u escape unsupported");
            out.push_back(static_cast<char>(code));
            break;
          }
          default:
            return Error("invalid escape");
        }
        continue;
      }
      out.push_back(c);
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseArray() {
    if (!Consume('[')) return Error("expected '['");
    JsonValue out = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) return out;
    for (;;) {
      RQ_ASSIGN_OR_RETURN(JsonValue item, ParseValue());
      out.Append(std::move(item));
      SkipSpace();
      if (Consume(']')) return out;
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseObject() {
    if (!Consume('{')) return Error("expected '{'");
    JsonValue out = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) return out;
    for (;;) {
      SkipSpace();
      RQ_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      RQ_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      out.Set(std::move(key), std::move(value));
      SkipSpace();
      if (Consume('}')) return out;
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(*this, indent, 0, &out);
  if (indent >= 0) out.push_back('\n');
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace obs
}  // namespace rq

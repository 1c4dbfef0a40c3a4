// Small string utilities shared across parsers and printers.
#ifndef RQ_COMMON_STRINGS_H_
#define RQ_COMMON_STRINGS_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rq {

// Heterogeneous (transparent) hash for string-keyed maps: lets
// unordered_map<std::string, V, TransparentStringHash, std::equal_to<>>
// answer find(string_view) without materializing a temporary std::string
// per lookup.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const std::string& s) const {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const char* s) const {
    return std::hash<std::string_view>{}(s);
  }
};

// A string-keyed map with allocation-free string_view lookups.
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, TransparentStringHash,
                       std::equal_to<>>;

// Splits on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

// Joins with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// The identifier rule of every query syntax: [A-Za-z_][A-Za-z0-9_]*.
// IsIdentStart admits the first character, IsIdentChar the rest.
bool IsIdentStart(char c);
bool IsIdentChar(char c);

// True if the whole string is one identifier.
bool IsIdentifier(std::string_view text);

}  // namespace rq

#endif  // RQ_COMMON_STRINGS_H_

#ifndef PREFDB_COMMON_STRING_UTIL_H_
#define PREFDB_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace prefdb {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `delim`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view s, char delim);

/// ASCII lower-casing (identifiers and keywords only; no locale handling).
std::string ToLower(std::string_view s);

/// ASCII upper-casing.
std::string ToUpper(std::string_view s);

/// ASCII lower-casing of one character (what std::tolower does in the C
/// locale, without the call).
constexpr char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// True if `s` equals `other` ignoring ASCII case.
inline bool EqualsIgnoreCase(std::string_view s, std::string_view other) {
  if (s.size() != other.size()) return false;
  for (size_t i = 0; i < s.size(); ++i) {
    if (AsciiLower(s[i]) != AsciiLower(other[i])) return false;
  }
  return true;
}

/// Strips leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view s);

}  // namespace prefdb

#endif  // PREFDB_COMMON_STRING_UTIL_H_

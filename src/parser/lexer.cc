#include "parser/lexer.h"

#include "common/string_util.h"

namespace prefdb {

namespace {

// ASCII character classes, as <cctype> has them in the C locale.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsIdentStart(char c) {
  const char lower = AsciiLower(c);
  return (lower >= 'a' && lower <= 'z') || c == '_';
}

bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

// Keywords of PrefSQL. Anything else alphabetic is an identifier.
constexpr std::string_view kKeywords[] = {
    "SELECT", "FROM",   "WHERE",     "JOIN",  "SEMIJOIN", "ON",      "AS",
    "AND",    "OR",     "NOT",       "IN",    "LIKE",     "BETWEEN", "UNION",
    "INTERSECT", "EXCEPT", "PREFERRING", "SCORE", "CONF", "EXISTS",
    "USING",  "AGG",    "TOP",       "BY",    "WITH",     "RANKED",  "DOMINATED",
    "ORDER",  "LIMIT",  "ASC",       "DESC",  "TRUE",     "FALSE",   "NULL",
    "DISTINCT", "EXPLAIN", "ANALYZE", "SET", "CACHE", "OFF", "CLEAR",
    "SLOWLOG", "FORMAT", "CHROME", "TEXT",
    "STATEMENT_TIMEOUT", "MEMORY", "FAULT", "AFTER",
};

// The keyword `word` spells (in any case), or empty.
std::string_view AsKeyword(std::string_view word) {
  for (std::string_view kw : kKeywords) {
    if (EqualsIgnoreCase(word, kw)) return kw;
  }
  return {};
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  // PrefSQL averages about one token per five bytes: reserving one per four
  // keeps the vector from growing on typical queries.
  tokens.reserve(text.size() / 4 + 1);
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    size_t start = i;
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(text[j])) ++j;
      // Fuse qualified names a.b into one identifier token.
      if (j < n && text[j] == '.' && j + 1 < n && IsIdentStart(text[j + 1])) {
        size_t k = j + 1;
        while (k < n && IsIdentChar(text[k])) ++k;
        tokens.push_back({TokenKind::kIdentifier,
                          std::string(text.substr(i, k - i)), start});
        i = k;
        continue;
      }
      std::string_view word = text.substr(i, j - i);
      std::string_view keyword = AsKeyword(word);
      if (!keyword.empty()) {
        tokens.push_back({TokenKind::kKeyword, std::string(keyword), start});
      } else {
        tokens.push_back({TokenKind::kIdentifier, std::string(word), start});
      }
      i = j;
      continue;
    }
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(text[i + 1]))) {
      size_t j = i;
      bool saw_dot = false;
      while (j < n && (IsDigit(text[j]) || (!saw_dot && text[j] == '.'))) {
        if (text[j] == '.') saw_dot = true;
        ++j;
      }
      tokens.push_back({saw_dot ? TokenKind::kFloat : TokenKind::kInteger,
                        std::string(text.substr(i, j - i)), start});
      i = j;
      continue;
    }
    if (c == '\'') {
      std::string value;
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (text[j] == '\'') {
          if (j + 1 < n && text[j + 1] == '\'') {
            value += '\'';
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        value += text[j];
        ++j;
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated string literal at offset %zu", start));
      }
      tokens.push_back({TokenKind::kString, std::move(value), start});
      i = j;
      continue;
    }
    // Multi-char symbols first.
    if (i + 1 < n) {
      std::string_view two = text.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        tokens.push_back({TokenKind::kSymbol,
                          two == "!=" ? std::string("<>") : std::string(two),
                          start});
        i += 2;
        continue;
      }
    }
    switch (c) {
      case '(':
      case ')':
      case ',':
      case '*':
      case '=':
      case '<':
      case '>':
      case '+':
      case '-':
      case '/':
      case '.':
      case ':':
        tokens.push_back({TokenKind::kSymbol, std::string(1, c), start});
        ++i;
        break;
      default:
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' at offset %zu", c, start));
    }
  }
  tokens.push_back({TokenKind::kEnd, "", n});
  return tokens;
}

}  // namespace prefdb

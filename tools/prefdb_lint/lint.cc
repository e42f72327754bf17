#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

namespace prefdb::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string_view TrimLeft(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  return s;
}

/// Consumes `word` from the front of `*s` iff it is followed by a
/// non-identifier character (so "Mutex" does not match "MutexLock").
bool ConsumeWord(std::string_view* s, std::string_view word) {
  if (s->substr(0, word.size()) != word) return false;
  if (s->size() > word.size() && IsIdentChar((*s)[word.size()])) return false;
  s->remove_prefix(word.size());
  return true;
}

/// Finds `token` in `s` starting at `from`, requiring the character before
/// the match to be a non-identifier (left word boundary). Returns npos if
/// absent. The token itself may end mid-word ("rand(" matches "rand(x)").
size_t FindToken(std::string_view s, std::string_view token, size_t from = 0) {
  for (size_t pos = s.find(token, from); pos != std::string_view::npos;
       pos = s.find(token, pos + 1)) {
    if (pos == 0 || !IsIdentChar(s[pos - 1])) return pos;
  }
  return std::string_view::npos;
}

bool LineAllows(std::string_view line, std::string_view rule) {
  std::string needle = "lint:allow(" + std::string(rule) + ")";
  return line.find(needle) != std::string_view::npos;
}

/// The code portion of a line: everything before a // comment. Naive about
/// string literals containing "//", which the rules here never key on.
std::string_view CodeOf(std::string_view line) {
  size_t pos = line.find("//");
  return pos == std::string_view::npos ? line : line.substr(0, pos);
}

std::vector<std::string_view> SplitLines(std::string_view content) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= content.size()) {
    size_t end = content.find('\n', start);
    if (end == std::string_view::npos) {
      lines.push_back(content.substr(start));
      break;
    }
    lines.push_back(content.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string NormalizePath(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool PathUnder(const std::string& normalized_path, std::string_view dir) {
  return normalized_path.find(dir) != std::string::npos;
}

struct MutexDecl {
  std::string name;
  bool raw_std_mutex = false;  // std::mutex rather than the prefdb wrapper.
};

/// Matches a member/variable declaration of a mutex on one line:
///   [mutable] (std::mutex | [prefdb::]Mutex) <name> ;
std::optional<MutexDecl> ParseMutexDecl(std::string_view code) {
  std::string_view s = TrimLeft(code);
  if (ConsumeWord(&s, "mutable")) s = TrimLeft(s);
  MutexDecl decl;
  if (ConsumeWord(&s, "std::mutex")) {
    decl.raw_std_mutex = true;
  } else if (ConsumeWord(&s, "prefdb::Mutex") || ConsumeWord(&s, "Mutex")) {
    decl.raw_std_mutex = false;
  } else {
    return std::nullopt;
  }
  s = TrimLeft(s);
  size_t i = 0;
  while (i < s.size() && IsIdentChar(s[i])) ++i;
  if (i == 0) return std::nullopt;
  decl.name.assign(s.substr(0, i));
  s = TrimLeft(s.substr(i));
  if (s.empty() || s.front() != ';') return std::nullopt;
  return decl;
}

// Sources of nondeterminism forbidden in src/cache/ — a fingerprint that
// depends on any of these stops being a pure function of its inputs.
constexpr std::string_view kNondeterministicTokens[] = {
    "system_clock",  "steady_clock", "high_resolution_clock",
    "random_device", "rand(",        "srand(",
    "getenv",        "__DATE__",     "__TIME__",
};

// Built by concatenation so the linter's own source never trips the rule.
const std::string kTodoNeedle = std::string("TO") + "DO";

void CheckMutexRule(const std::string& path,
                    const std::vector<std::string_view>& lines,
                    std::string_view content, std::vector<Violation>* out) {
  constexpr std::string_view kRule = "mutex-guarded-by";
  for (size_t i = 0; i < lines.size(); ++i) {
    if (LineAllows(lines[i], kRule)) continue;
    std::optional<MutexDecl> decl = ParseMutexDecl(CodeOf(lines[i]));
    if (!decl) continue;
    if (decl->raw_std_mutex) {
      out->push_back({path, static_cast<int>(i + 1), std::string(kRule),
                      "naked std::mutex member '" + decl->name +
                          "'; use prefdb::Mutex (src/common/mutex.h) so "
                          "Clang thread-safety analysis can see the lock"});
      continue;
    }
    std::string guarded = "GUARDED_BY(" + decl->name + ")";
    if (content.find(guarded) == std::string_view::npos) {
      out->push_back({path, static_cast<int>(i + 1), std::string(kRule),
                      "Mutex '" + decl->name + "' guards no field: add " +
                          "PREFDB_GUARDED_BY(" + decl->name +
                          ") to the data it protects"});
    }
  }
}

void CheckCatalogRule(const std::string& path,
                      const std::vector<std::string_view>& lines,
                      std::vector<Violation>* out) {
  constexpr std::string_view kRule = "catalog-mutation";
  if (!PathUnder(path, "src/") || PathUnder(path, "src/engine/")) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (LineAllows(lines[i], kRule)) continue;
    if (FindToken(CodeOf(lines[i]), "mutable_catalog(") !=
        std::string_view::npos) {
      out->push_back({path, static_cast<int>(i + 1), std::string(kRule),
                      "direct catalog mutation outside src/engine/: use "
                      "Engine::RegisterTempTable / DropTempTable, which mark "
                      "temp tables and guarantee cleanup"});
    }
  }
}

void CheckCacheDeterminismRule(const std::string& path,
                               const std::vector<std::string_view>& lines,
                               std::vector<Violation>* out) {
  constexpr std::string_view kRule = "cache-determinism";
  if (!PathUnder(path, "src/cache/")) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (LineAllows(lines[i], kRule)) continue;
    std::string_view code = CodeOf(lines[i]);
    for (std::string_view token : kNondeterministicTokens) {
      if (FindToken(code, token) != std::string_view::npos) {
        std::string shown(token);
        if (!shown.empty() && shown.back() == '(') shown.pop_back();
        out->push_back({path, static_cast<int>(i + 1), std::string(kRule),
                        "non-deterministic source '" + shown +
                            "' in src/cache/: fingerprints and cached "
                            "results must be pure functions of query and "
                            "catalog state"});
        break;  // One report per line is enough.
      }
    }
  }
}

void CheckTodoRule(const std::string& path,
                   const std::vector<std::string_view>& lines,
                   std::vector<Violation>* out) {
  constexpr std::string_view kRule = "todo-owner";
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (LineAllows(line, kRule)) continue;
    size_t pos = FindToken(line, kTodoNeedle);
    if (pos == std::string_view::npos) continue;
    // Accept exactly TODO(<identifier>): — anything else is ownerless.
    std::string_view rest = line.substr(pos + kTodoNeedle.size());
    bool ok = false;
    if (!rest.empty() && rest.front() == '(') {
      size_t j = 1;
      while (j < rest.size() && IsIdentChar(rest[j])) ++j;
      ok = j > 1 && j + 1 < rest.size() && rest[j] == ')' && rest[j + 1] == ':';
    }
    if (!ok) {
      out->push_back({path, static_cast<int>(i + 1), std::string(kRule),
                      kTodoNeedle + " without an owner: write " + kTodoNeedle +
                          "(name): so stale work items are attributable"});
    }
  }
}

void CheckMetricRegistryRule(const std::string& path,
                             const std::vector<std::string_view>& lines,
                             std::vector<Violation>* out) {
  constexpr std::string_view kRule = "metric-registry";
  if (!PathUnder(path, "src/")) return;
  // The registry header is the one place pref.* literals belong.
  if (PathUnder(path, "src/obs/metric_names.h")) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (LineAllows(lines[i], kRule)) continue;
    // A double-quoted literal starting with pref. — a metric name spelled
    // inline instead of referencing an obs::kPref* constant.
    if (CodeOf(lines[i]).find("\"pref.") != std::string_view::npos) {
      out->push_back({path, static_cast<int>(i + 1), std::string(kRule),
                      "inline pref.* metric name: declare it in "
                      "src/obs/metric_names.h and reference the obs::kPref* "
                      "constant so every metric is discoverable from the "
                      "central registry"});
    }
  }
}

}  // namespace

std::string FormatViolation(const Violation& v) {
  std::ostringstream os;
  os << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message;
  return os.str();
}

std::vector<Violation> LintContent(const std::string& path,
                                   const std::string& content) {
  std::vector<Violation> out;
  const std::string normalized = NormalizePath(path);
  std::vector<std::string_view> lines = SplitLines(content);
  CheckMutexRule(normalized, lines, content, &out);
  CheckCatalogRule(normalized, lines, &out);
  CheckCacheDeterminismRule(normalized, lines, &out);
  CheckTodoRule(normalized, lines, &out);
  CheckMetricRegistryRule(normalized, lines, &out);
  return out;
}

std::vector<Violation> LintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{path, 0, "io", "could not open file for reading"}};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LintContent(path, buffer.str());
}

std::vector<Violation> LintTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc") {
      files.push_back(it->path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Violation> out;
  if (ec) {
    out.push_back({root, 0, "io", "could not walk directory: " + ec.message()});
  }
  for (const std::string& file : files) {
    std::vector<Violation> v = LintFile(file);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

}  // namespace prefdb::lint

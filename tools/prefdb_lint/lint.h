#ifndef PREFDB_TOOLS_PREFDB_LINT_LINT_H_
#define PREFDB_TOOLS_PREFDB_LINT_LINT_H_

#include <string>
#include <vector>

/// prefdb_lint: a dependency-free textual checker for the project-specific
/// invariants that neither the compiler nor clang-tidy can express. It is
/// deliberately a line scanner, not a parser — every rule is keyed on
/// idioms the codebase already follows uniformly (see DESIGN.md §11), so
/// a textual match is reliable and the tool builds anywhere the engine
/// builds (no libclang dependency).
///
/// Rules:
///   mutex-guarded-by    A mutex member must participate in thread-safety
///                       annotations: `std::mutex` members are rejected
///                       outright (Clang's analysis cannot see locks taken
///                       on an unannotated type — use prefdb::Mutex), and a
///                       `Mutex` member named N requires at least one
///                       `GUARDED_BY(N)` in the same file, otherwise the
///                       lock provably protects nothing.
///   catalog-mutation    `mutable_catalog()` may only be called under
///                       src/engine/ — everything else goes through
///                       Engine::RegisterTempTable / DropTempTable so temp
///                       tables are always marked and always dropped.
///   cache-determinism   Files under src/cache/ must not read clocks,
///                       randomness, or the environment: fingerprints must
///                       be a pure function of the query and catalog state.
///   todo-owner          Every TODO must name an owner: `TODO(name): ...`.
///   metric-registry     Every `pref.*` metric name must be declared in the
///                       central registry header src/obs/metric_names.h; a
///                       string literal starting with "pref." anywhere else
///                       under src/ is an unregistered metric name that
///                       dashboards and the Prometheus endpoint cannot
///                       discover from one place.
///
/// Any rule can be suppressed on a single line with a trailing
/// `// lint:allow(<rule>)` comment stating why.

namespace prefdb::lint {

struct Violation {
  std::string file;     // Path as given to the linter.
  int line = 0;         // 1-based line number.
  std::string rule;     // Rule slug, e.g. "mutex-guarded-by".
  std::string message;  // Human-readable explanation.
};

/// Renders "file:line: [rule] message" (the gcc-style format editors parse).
std::string FormatViolation(const Violation& v);

/// Lints file content that is already in memory. `path` is used both for
/// reporting and for the path-scoped rules (catalog-mutation,
/// cache-determinism), so pass a repo-relative path like
/// "src/cache/query_cache.cc".
std::vector<Violation> LintContent(const std::string& path,
                                   const std::string& content);

/// Reads and lints a single file on disk. An unreadable file yields one
/// violation with rule "io".
std::vector<Violation> LintFile(const std::string& path);

/// Recursively lints every .h/.cc file under `root`, in sorted path order
/// so output (and tests over it) are deterministic.
std::vector<Violation> LintTree(const std::string& root);

}  // namespace prefdb::lint

#endif  // PREFDB_TOOLS_PREFDB_LINT_LINT_H_

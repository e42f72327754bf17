// prefdb_lint CLI: scans source trees for violations of the project's
// concurrency and hygiene invariants (see lint.h for the rule list).
//
//   prefdb_lint [path...]      lint files or directories (default: src)
//
// Exit status: 0 clean, 1 violations found, 2 usage/IO error. Output is
// gcc-style "file:line: [rule] message", one per line, so editors and CI
// log scrapers pick it up unchanged. Wired into the build as the ctest
// target `prefdb_lint_src` (label: lint) and into scripts/run_checks.sh.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint.h"

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::printf(
          "usage: prefdb_lint [path...]\n"
          "Lints .h/.cc files for prefdb invariants:\n"
          "  mutex-guarded-by   mutex members must be annotated wrappers\n"
          "  catalog-mutation   mutable_catalog() only under src/engine/\n"
          "  cache-determinism  no clocks/randomness/env in src/cache/\n"
          "  todo-owner         TODOs must name an owner\n"
          "  metric-registry    pref.* metric names only in "
          "src/obs/metric_names.h\n"
          "Suppress a line with: // lint:allow(<rule>) <reason>\n");
      return 0;
    }
    paths.push_back(std::move(arg));
  }
  if (paths.empty()) paths.push_back("src");

  std::vector<prefdb::lint::Violation> violations;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      auto v = prefdb::lint::LintTree(path);
      violations.insert(violations.end(), v.begin(), v.end());
    } else if (std::filesystem::exists(path, ec)) {
      auto v = prefdb::lint::LintFile(path);
      violations.insert(violations.end(), v.begin(), v.end());
    } else {
      std::fprintf(stderr, "prefdb_lint: no such path: %s\n", path.c_str());
      return 2;
    }
  }

  for (const auto& v : violations) {
    std::printf("%s\n", prefdb::lint::FormatViolation(v).c_str());
  }
  if (!violations.empty()) {
    std::fprintf(stderr, "prefdb_lint: %zu violation%s\n", violations.size(),
                 violations.size() == 1 ? "" : "s");
    return 1;
  }
  return 0;
}

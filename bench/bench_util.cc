#include "bench_util.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace prefdb {
namespace bench {

namespace {

// Exits with status 2 after naming the variable and its bad value.
[[noreturn]] void BadEnv(const char* name, const char* value, const char* want) {
  std::fprintf(stderr, "%s=\"%s\" is not %s\n", name, value, want);
  std::exit(2);
}

}  // namespace

BenchEnv GetBenchEnv() {
  BenchEnv env;
  if (const char* sf = std::getenv("PREFDB_BENCH_SF")) {
    char* end = nullptr;
    env.sf = std::strtod(sf, &end);
    if (end == sf || *end != '\0' || !(env.sf > 0) || !std::isfinite(env.sf)) {
      BadEnv("PREFDB_BENCH_SF", sf, "a positive number");
    }
  }
  if (const char* reps = std::getenv("PREFDB_BENCH_REPS")) {
    char* end = nullptr;
    const long value = std::strtol(reps, &end, 10);
    if (end == reps || *end != '\0' || value < 1 || value > INT_MAX) {
      BadEnv("PREFDB_BENCH_REPS", reps, "a positive integer");
    }
    env.repetitions = static_cast<int>(value);
  }
  return env;
}

Measurement MeasureQuery(Session* session, const std::string& sql,
                         const QueryOptions& options, int repetitions) {
  std::vector<std::pair<double, Measurement>> runs;
  for (int i = 0; i < repetitions; ++i) {
    auto result = session->Query(sql, options);
    if (!result.ok()) {
      std::fprintf(stderr, "benchmark query failed: %s\nquery: %s\n",
                   result.status().ToString().c_str(), sql.c_str());
      std::exit(1);
    }
    Measurement m;
    m.millis = result->millis;
    m.stats = result->stats;
    m.result_rows = result->relation.NumRows();
    runs.emplace_back(m.millis, std::move(m));
  }
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return runs[runs.size() / 2].second;
}

std::vector<StrategyKind> EvaluationStrategies() {
  return {StrategyKind::kFtP, StrategyKind::kGBU, StrategyKind::kPlugInBasic,
          StrategyKind::kPlugInCombined};
}

std::vector<StrategyKind> AllStrategies() {
  return {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
          StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined};
}

namespace {
void PrintCells(const std::vector<std::string>& columns) {
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s%*s", i == 0 ? "" : "  ", i == 0 ? -24 : 16,
                columns[i].c_str());
  }
  std::printf("\n");
}
}  // namespace

void PrintTableHeader(const std::vector<std::string>& columns) {
  PrintCells(columns);
  size_t width = 24;
  for (size_t i = 1; i < columns.size(); ++i) width += 18;
  std::printf("%s\n", std::string(width, '-').c_str());
}

void PrintTableRow(const std::vector<std::string>& columns) {
  PrintCells(columns);
}

std::string FormatMillis(double ms) { return StrFormat("%.2f", ms); }

std::string FormatCount(size_t n) {
  return StrFormat("%zu", n);
}

}  // namespace bench
}  // namespace prefdb

#ifndef PREFDB_BENCH_BENCH_UTIL_H_
#define PREFDB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "exec/runner.h"

namespace prefdb {
namespace bench {

/// Benchmark environment, configurable without rebuilding:
///   PREFDB_BENCH_SF    — dataset scale factor relative to the paper's
///                        Table I sizes (default 0.01 ≈ 15.7k movies).
///   PREFDB_BENCH_REPS  — repetitions per measurement; the median is
///                        reported (default 3).
struct BenchEnv {
  double sf = 0.01;
  int repetitions = 3;
};

/// Reads the environment variables above. A value that is not a positive
/// number (a positive integer for the repetitions) is an error: the
/// process prints it and exits with status 2.
BenchEnv GetBenchEnv();

/// One measured configuration: the median run's wall time and counters.
struct Measurement {
  double millis = 0.0;
  ExecStats stats;
  size_t result_rows = 0;
};

/// Runs `sql` `repetitions` times under `options` and reports the median
/// run. Aborts the process with a message on error (benchmarks have no
/// meaningful recovery).
Measurement MeasureQuery(Session* session, const std::string& sql,
                         const QueryOptions& options, int repetitions);

/// The standard strategy lineup of the evaluation section.
std::vector<StrategyKind> EvaluationStrategies();

/// Every strategy, including BU (excluded from the paper-figure lineup
/// because it materializes each intermediate).
std::vector<StrategyKind> AllStrategies();

/// printf a row of right-aligned columns. `header` prints a rule under it.
void PrintTableHeader(const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& columns);

/// Formats helpers.
std::string FormatMillis(double ms);
std::string FormatCount(size_t n);

}  // namespace bench
}  // namespace prefdb

#endif  // PREFDB_BENCH_BENCH_UTIL_H_

// Fig. 12 [reconstructed]: scalability — total query processing time of the
// IMDB-1 workload query as the dataset scale factor grows. All strategies
// scale roughly linearly in the data size at fixed selectivities; the
// ordering between strategies is stable across scales.
//
// Thread-count and cache behaviour are measured by perfbench's
// paper_parallel and cache_stream workloads (perfbench/README.md).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "datagen/imdb_gen.h"
#include "workload/workload.h"

namespace prefdb {
namespace bench {
namespace {

// --trace-out support: one representative workload query runs traced (one
// span per operator) and the timed Chrome trace-event document is written
// to `path` — load it at
// ui.perfetto.dev or chrome://tracing. Uses the real timings (unlike the
// byte-identical untimed EXPLAIN ANALYZE FORMAT CHROME rendering): a bench
// trace exists to show where the time went.
int WriteChromeTrace(Session* session, const std::string& sql,
                     const std::string& path) {
  QueryOptions options;
  options.trace = true;
  auto result = session->Query(sql, options);
  if (!result.ok() || result->trace == nullptr) {
    std::fprintf(stderr, "--trace-out run failed: %s\n",
                 result.ok() ? "no trace collected"
                             : result.status().ToString().c_str());
    return 1;
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "--trace-out: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string doc = result->trace->ToChromeTrace(true);
  std::fwrite(doc.data(), 1, doc.size(), out);
  std::fclose(out);
  std::printf("\nWrote Chrome trace (%zu bytes) to %s\n", doc.size(),
              path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  BenchEnv env = GetBenchEnv();
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_scalability [--trace-out <chrome_trace.json>]\n");
      return 2;
    }
  }

  std::printf(
      "prefdb :: Fig. 12 [reconstructed]: scalability with dataset size "
      "(IMDB-1; base SF=%.4g)\n\n",
      env.sf);

  const std::string sql = ImdbWorkload()[0].sql;

  std::vector<std::string> header = {"scale (movies)"};
  for (StrategyKind kind : EvaluationStrategies()) {
    header.push_back(std::string(StrategyKindName(kind)) + " ms");
  }
  PrintTableHeader(header);

  // The session over the largest dataset, kept for --trace-out.
  std::unique_ptr<Session> largest;
  for (double multiplier : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    ImdbOptions options;
    options.scale = env.sf * multiplier;
    auto catalog = GenerateImdb(options);
    if (!catalog.ok()) {
      std::fprintf(stderr, "%s\n", catalog.status().ToString().c_str());
      return 1;
    }
    largest = std::make_unique<Session>(std::move(*catalog));
    size_t movies = (*largest->engine().catalog().GetTable("MOVIES"))->NumRows();

    std::vector<std::string> row = {
        StrFormat("%.2fx (%zu)", multiplier, movies)};
    for (StrategyKind kind : EvaluationStrategies()) {
      QueryOptions query_options;
      query_options.strategy = kind;
      Measurement m = MeasureQuery(largest.get(), sql, query_options,
                                   env.repetitions);
      row.push_back(FormatMillis(m.millis));
    }
    PrintTableRow(row);
  }
  std::printf(
      "\nExpected shape: near-linear growth for every strategy; the "
      "strategy ordering (hybrids ahead of plug-ins) holds at every "
      "scale.\n");
  if (!trace_out.empty()) {
    return WriteChromeTrace(largest.get(), sql, trace_out);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace prefdb

int main(int argc, char** argv) { return prefdb::bench::Main(argc, argv); }

// Per-strategy ledger of the Table II workload: for each IMDB-1..3 and
// DBLP-1..3 text × strategy, the untraced median latency and the median
// self time of every span, at a fixed data seed. perfbench's ledger sums
// spans over all strategies at once, so a span only one strategy has (GBU's
// RegisterTemp, say) shows there diluted; this one keeps the cells apart.
//
//   PREFDB_BENCH_SF=0.0025 PREFDB_BENCH_REPS=40 bench_strategy_ledger [STRATEGY]
//
// The data is perfbench's (seed 3) at the scale PREFDB_BENCH_SF; each cell
// runs PREFDB_BENCH_REPS untraced and as many traced runs. STRATEGY (a
// name such as GBU) keeps one strategy's cells; by default every strategy
// runs. Serial, cache off. Span names fold
// at '[' as in perfbench (Prefer[p1] and Prefer[p2] are one "Prefer" row).
// Under the spans, a GBU cell lists its temp tables (RegisterTemp details)
// and whether each join build over a temp probed a base table's index; a
// plug-in cell lists its delegated queries (Q_NP and each rewrite), each
// with the rows it returned and the rows its joins probed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "datagen/dblp_gen.h"
#include "datagen/imdb_gen.h"
#include "workload/workload.h"

namespace prefdb {
namespace bench {
namespace {

// perfbench's data seed.
constexpr uint64_t kSeed = 3;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Adds each span's self time (ms) to `self_ms` under its name up to '['.
void FoldSelfTimes(const obs::Span& span, std::map<std::string, double>* self_ms) {
  (*self_ms)[span.name.substr(0, span.name.find('['))] += span.SelfMicros() / 1000.0;
  for (const obs::SpanPtr& child : span.children) FoldSelfTimes(*child, self_ms);
}

// The temp tables of a trace, and each join build over a temp's scan.
void CollectTemps(const obs::Span& span, std::vector<std::string>* temps,
                  std::vector<std::string>* builds) {
  auto rows = [](size_t n) {
    return n == obs::Span::kUnset ? std::string("?") : std::to_string(n);
  };
  if (span.name == "RegisterTemp") {
    temps->push_back(StrFormat("%s rows=%s", span.detail.c_str(),
                               rows(span.rows_out).c_str()));
  }
  // A hash join's children: left input, right input, build, probe.
  if (span.name == "native.join" && span.children.size() == 4 &&
      span.children[2]->name == "native.join.build") {
    const obs::Span* right = span.children[1].get();
    const obs::Span* build = span.children[2].get();
    if (right->name == "native.scan" &&
        right->detail.find("table=<temp>") != std::string::npos) {
      const bool index = build->detail.find("index") != std::string::npos;
      builds->push_back(StrFormat("%s rows=%s", index ? "index" : "table",
                                  rows(build->rows_in).c_str()));
    }
  }
  for (const obs::SpanPtr& child : span.children) CollectTemps(*child, temps, builds);
}

// Rows probed by the hash and nested-loop joins under `span`.
size_t ProbeRows(const obs::Span& span) {
  size_t rows = span.name == "native.join.probe" && span.rows_in != obs::Span::kUnset
                    ? span.rows_in
                    : 0;
  for (const obs::SpanPtr& child : span.children) rows += ProbeRows(*child);
  return rows;
}

// A plug-in's delegated queries: Q_NP, then its rewrites, in plan order.
void CollectQueries(const obs::Span& span, std::vector<std::string>* queries) {
  for (const char* label :
       {"EngineQuery[", "RewriteQuery[", "MembershipQuery[", "CombinedQuery"}) {
    if (span.name.rfind(label, 0) != 0) continue;
    queries->push_back(StrFormat("%s rows=%zu probe=%zu", span.name.c_str(),
                                 span.rows_out, ProbeRows(span)));
    return;
  }
  for (const obs::SpanPtr& child : span.children) CollectQueries(*child, queries);
}

std::string JoinParts(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) out += (out.empty() ? "" : " | ") + part;
  return out.empty() ? "-" : out;
}

void RunCell(Session* session, const WorkloadQuery& query, StrategyKind kind,
             int runs) {
  QueryOptions untraced;
  untraced.strategy = kind;
  untraced.cache = false;
  MeasureQuery(session, query.sql, untraced, 1);  // Warm-up: first-use index builds.
  const Measurement latency = MeasureQuery(session, query.sql, untraced, runs);

  QueryOptions traced = untraced;
  traced.trace = true;
  std::map<std::string, std::vector<double>> self;
  std::vector<std::string> temps;
  std::vector<std::string> builds;
  std::vector<std::string> queries;
  for (int i = 0; i < runs; ++i) {
    StatusOr<QueryResult> result = session->Query(query.sql, traced);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", query.name.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    std::map<std::string, double> folded;
    FoldSelfTimes(*result->trace, &folded);
    for (const auto& [name, ms] : folded) self[name].push_back(ms);
    if (i == 0) {
      CollectTemps(*result->trace, &temps, &builds);
      CollectQueries(*result->trace, &queries);
    }
  }

  std::printf("== %s %s  untraced median %.3f ms (%d runs)\n", query.name.c_str(),
              std::string(StrategyKindName(kind)).c_str(), latency.millis, runs);
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, values] : self) rows.emplace_back(Median(values), name);
  std::sort(rows.rbegin(), rows.rend());
  for (const auto& [ms, name] : rows) std::printf("  %-28s %9.3f\n", name.c_str(), ms);
  if (kind == StrategyKind::kGBU) {
    std::printf("  temps: %s\n", JoinParts(temps).c_str());
    std::printf("  builds over temps: %s\n", JoinParts(builds).c_str());
  }
  if (kind == StrategyKind::kPlugInBasic || kind == StrategyKind::kPlugInCombined) {
    for (const std::string& query : queries) std::printf("  query: %s\n", query.c_str());
  }
}

void RunDataset(const char* dataset, Catalog catalog,
                const std::vector<WorkloadQuery>& queries, const BenchEnv& env,
                const std::string& strategy) {
  Session session(std::move(catalog));
  std::printf("\n# %s (scale %g)\n", dataset, env.sf);
  for (const WorkloadQuery& query : queries) {
    for (StrategyKind kind : AllStrategies()) {
      if (!strategy.empty() && strategy != StrategyKindName(kind)) continue;
      RunCell(&session, query, kind, env.repetitions);
    }
  }
}

int Main(int argc, char** argv) {
  const BenchEnv env = GetBenchEnv();
  const std::string strategy = argc > 1 ? argv[1] : "";
  bool known = strategy.empty();
  for (StrategyKind kind : AllStrategies()) known |= strategy == StrategyKindName(kind);
  if (!known) {
    std::fprintf(stderr, "unknown strategy %s\n", strategy.c_str());
    return 2;
  }
  std::printf("strategy ledger: seed %llu, %d untraced + %d traced runs per "
              "cell, ms (self time per span, median)\n",
              static_cast<unsigned long long>(kSeed), env.repetitions,
              env.repetitions);

  ImdbOptions imdb;
  imdb.scale = env.sf;
  imdb.seed = kSeed;
  StatusOr<Catalog> imdb_catalog = GenerateImdb(imdb);
  DblpOptions dblp;
  dblp.scale = env.sf;
  dblp.seed = kSeed + 1000003;
  StatusOr<Catalog> dblp_catalog = GenerateDblp(dblp);
  if (!imdb_catalog.ok() || !dblp_catalog.ok()) {
    std::fprintf(stderr, "data generation failed\n");
    return 1;
  }
  RunDataset("IMDB", std::move(*imdb_catalog), ImdbWorkload(), env, strategy);
  RunDataset("DBLP", std::move(*dblp_catalog), DblpWorkload(), env, strategy);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace prefdb

int main(int argc, char** argv) { return prefdb::bench::Main(argc, argv); }

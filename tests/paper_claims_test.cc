// The count-based shape claims of the paper's §VII, checked on every
// Table II query (IMDB-1..3, DBLP-1..3) as deterministic engine-query
// counts. Time-based claims stay in EXPERIMENTS.md.
//   * Fig. 9: the basic plug-in issues one rewritten query per preference
//     plus the non-preference query Q_NP: |λ| + 1 engine queries.
//   * The combined plug-in issues Q_NP, one disjunction query over the
//     non-membership preferences, and one query per membership preference.
//   * Fig. 13: each hybrid strategy (FtP, BU, GBU) issues no more engine
//     queries than the basic plug-in.

#include <string>
#include <vector>

#include "datagen/dblp_gen.h"
#include "datagen/imdb_gen.h"
#include "exec/runner.h"
#include "gtest/gtest.h"
#include "optimizer/extended_optimizer.h"
#include "parser/parser.h"
#include "workload/workload.h"

namespace prefdb {
namespace {

struct Workload {
  std::string dataset;
  Session* session;
  std::vector<WorkloadQuery> queries;
};

std::vector<Workload> TableTwo() {
  static Session* imdb = [] {
    ImdbOptions options;
    options.scale = 0.001;
    options.seed = 3;
    auto catalog = GenerateImdb(options);
    EXPECT_TRUE(catalog.ok());
    return new Session(std::move(catalog).value());
  }();
  static Session* dblp = [] {
    DblpOptions options;
    options.scale = 0.001;
    options.seed = 3;
    auto catalog = GenerateDblp(options);
    EXPECT_TRUE(catalog.ok());
    return new Session(std::move(catalog).value());
  }();
  return {{"IMDB", imdb, ImdbWorkload()}, {"DBLP", dblp, DblpWorkload()}};
}

size_t EngineQueries(Session* session, const std::string& sql, StrategyKind kind) {
  QueryOptions options;
  options.strategy = kind;
  auto result = session->Query(sql, options);
  EXPECT_TRUE(result.ok()) << StrategyKindName(kind) << ": "
                           << result.status().ToString();
  return result.ok() ? result->stats.engine_queries : 0;
}

TEST(PaperClaimsTest, PlugInsIssueOneQueryPerRewrite) {
  for (const Workload& workload : TableTwo()) {
    for (const WorkloadQuery& query : workload.queries) {
      SCOPED_TRACE(query.name);
      auto parsed = ParseQuery(query.sql, workload.session->engine().catalog());
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      const std::vector<PreferencePtr> prefs = CollectPrefers(*parsed->plan);
      size_t membership = 0;
      for (const PreferencePtr& pref : prefs) membership += pref->membership() != nullptr;
      const size_t plain = prefs.size() - membership;
      ASSERT_GE(prefs.size(), 2u);

      EXPECT_EQ(EngineQueries(workload.session, query.sql, StrategyKind::kPlugInBasic),
                prefs.size() + 1);
      EXPECT_EQ(EngineQueries(workload.session, query.sql, StrategyKind::kPlugInCombined),
                1 + (plain > 0 ? 1 : 0) + membership);
    }
  }
}

TEST(PaperClaimsTest, HybridStrategiesIssueNoMoreQueriesThanBasicPlugIn) {
  for (const Workload& workload : TableTwo()) {
    for (const WorkloadQuery& query : workload.queries) {
      SCOPED_TRACE(query.name);
      const size_t basic =
          EngineQueries(workload.session, query.sql, StrategyKind::kPlugInBasic);
      for (StrategyKind kind : {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU}) {
        EXPECT_LE(EngineQueries(workload.session, query.sql, kind), basic)
            << StrategyKindName(kind);
      }
    }
  }
}

}  // namespace
}  // namespace prefdb

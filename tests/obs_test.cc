// Observability layer: metrics registry (counters, fixed-bucket
// histograms), span traces (structure, determinism, zero-cost-off
// contract), EXPLAIN ANALYZE for every strategy, the Session failure
// report, and the ExecStats merge discipline the span adoption mirrors.

#include <chrono>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/imdb_gen.h"
#include "engine/exec_stats.h"
#include "exec/runner.h"
#include "gtest/gtest.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "test_util.h"
#include "workload/workload.h"

namespace prefdb {
namespace {

using testing_util::MakeMovieCatalog;

// ---------------------------------------------------------------------------
// ExecStats merge discipline.

ExecStats MakeStats(size_t base) {
  ExecStats s;
  s.tuples_materialized = base + 1;
  s.rows_scanned = base + 2;
  s.engine_queries = base + 3;
  s.operator_invocations = base + 4;
  s.score_entries_written = base + 5;
  return s;
}

TEST(ExecStatsTest, MergeAccumulatesEveryCounter) {
  ExecStats total = MakeStats(0);
  total.Merge(MakeStats(10));
  EXPECT_EQ(total.tuples_materialized, 12u);
  EXPECT_EQ(total.rows_scanned, 14u);
  EXPECT_EQ(total.engine_queries, 16u);
  EXPECT_EQ(total.operator_invocations, 18u);
  EXPECT_EQ(total.score_entries_written, 20u);
}

// ---------------------------------------------------------------------------
// Histogram bucket boundaries.

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram h({10.0, 100.0, 1000.0});
  EXPECT_EQ(h.BucketIndex(0.0), 0u);
  EXPECT_EQ(h.BucketIndex(9.99), 0u);
  EXPECT_EQ(h.BucketIndex(10.0), 0u);  // Bound is inclusive.
  EXPECT_EQ(h.BucketIndex(10.01), 1u);
  EXPECT_EQ(h.BucketIndex(100.0), 1u);
  EXPECT_EQ(h.BucketIndex(1000.0), 2u);
  EXPECT_EQ(h.BucketIndex(1000.01), 3u);  // Overflow bucket.
  EXPECT_EQ(h.bucket_count(), 4u);        // 3 bounded + overflow.
}

TEST(HistogramTest, RecordCountsSumsAndQuantiles) {
  obs::Histogram h({10.0, 100.0, 1000.0});
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0.0);  // Empty.
  for (int i = 0; i < 90; ++i) h.Record(5.0);
  for (int i = 0; i < 9; ++i) h.Record(50.0);
  h.Record(5000.0);  // Overflow sample.
  EXPECT_EQ(h.total_count(), 100u);
  EXPECT_EQ(h.bucket(0), 90u);
  EXPECT_EQ(h.bucket(1), 9u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 90 * 5.0 + 9 * 50.0 + 5000.0);
  EXPECT_EQ(h.QuantileUpperBound(0.5), 10.0);
  EXPECT_EQ(h.QuantileUpperBound(0.95), 100.0);
  // The overflow bucket reports the last finite bound.
  EXPECT_EQ(h.QuantileUpperBound(1.0), 1000.0);
}

TEST(HistogramTest, DefaultLatencyLadderIsSortedAndWide) {
  std::vector<double> bounds = obs::Histogram::DefaultLatencyBucketsMicros();
  ASSERT_GE(bounds.size(), 10u);
  EXPECT_DOUBLE_EQ(bounds.front(), 10.0);   // 10us.
  EXPECT_GE(bounds.back(), 1e7);            // >= 10s.
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistryTest, HandlesAreStableAndSharedByName) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.counter("x");
  obs::Counter* b = registry.counter("x");
  EXPECT_EQ(a, b);
  a->Increment();
  b->Increment(4);
  EXPECT_EQ(registry.counter("x")->value(), 5u);
  obs::Histogram* h1 = registry.histogram("lat");
  obs::Histogram* h2 = registry.histogram("lat");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistryTest, SnapshotsAreSortedAndDeterministic) {
  obs::MetricsRegistry registry;
  registry.counter("zeta")->Increment(2);
  registry.counter("alpha")->Increment(1);
  registry.SetGauge("gauge.mid", 3.5);
  std::string text = registry.ToString();
  EXPECT_LT(text.find("alpha"), text.find("zeta"));
  EXPECT_NE(text.find("gauge.mid"), std::string::npos);
  EXPECT_EQ(registry.ToString(), text);  // Same state, same rendering.
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"alpha\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"zeta\": 2"), std::string::npos);
}

TEST(MetricsRegistryTest, GaugesHoldLatestValue) {
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.gauge("pool.depth");
  EXPECT_EQ(g, registry.gauge("pool.depth"));  // Stable handle.
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  g->Set(42.5);
  EXPECT_DOUBLE_EQ(g->value(), 42.5);
  registry.SetGauge("pool.depth", -1.25);  // Overwrite, not accumulate.
  EXPECT_DOUBLE_EQ(g->value(), -1.25);
}

TEST(MetricsRegistryTest, RefreshHooksRunBeforeEveryExport) {
  obs::MetricsRegistry registry;
  int calls = 0;
  registry.AddRefreshHook([&registry, &calls] {
    registry.SetGauge("live.value", static_cast<double>(++calls));
  });
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"live.value\": 1"), std::string::npos) << json;
  std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("live_value 2"), std::string::npos) << prom;
  (void)registry.ToString();
  EXPECT_EQ(calls, 3);
}

TEST(MetricsRegistryTest, JsonEscapesMetricNames) {
  obs::MetricsRegistry registry;
  registry.counter("weird\"name\\with\nescapes")->Increment();
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\\\\with\\nescapes\": 1"),
            std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, HistogramJsonCarriesP99) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("lat", {10.0, 100.0, 1000.0});
  for (int i = 0; i < 98; ++i) h->Record(5.0);
  h->Record(50.0);
  h->Record(50.0);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"p50\": 10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": 100"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, PrometheusExpositionShape) {
  obs::MetricsRegistry registry;
  registry.counter("pref.cache.hits")->Increment(3);
  registry.SetGauge("pref.pool.queue_depth", 2.0);
  obs::Histogram* h = registry.histogram("query.micros", {10.0, 100.0});
  h->Record(5.0);
  h->Record(50.0);
  std::string prom = registry.ToPrometheus();
  // Names are sanitized to the Prometheus charset ('.' -> '_').
  EXPECT_NE(prom.find("# TYPE pref_cache_hits counter\npref_cache_hits 3\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE pref_pool_queue_depth gauge\n"
                      "pref_pool_queue_depth 2\n"),
            std::string::npos)
      << prom;
  // Histogram buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(prom.find("query_micros_bucket{le=\"10\"} 1"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("query_micros_bucket{le=\"100\"} 2"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("query_micros_bucket{le=\"+Inf\"} 2"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("query_micros_count 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("query_micros_sum 55"), std::string::npos) << prom;
}

// ---------------------------------------------------------------------------
// Span trees.

TEST(SpanTest, BuildsAndRendersHierarchy) {
  obs::SpanPtr root = obs::Span::Detached("Query");
  obs::Span* child = root->AddChild("Scan[MOVIES]");
  child->rows_out = 42;
  child->micros = 1500.0;
  obs::Span* prefer = root->AddChild("Prefer[p1]");
  prefer->rows_in = 42;
  prefer->rows_out = 42;
  prefer->score_entries = 7;
  prefer->detail = "index";
  EXPECT_DOUBLE_EQ(root->ChildMicros(), 1500.0);

  std::string timed = root->ToString();
  EXPECT_NE(timed.find("time=1.500ms"), std::string::npos);
  std::string untimed = root->ToString(/*include_timing=*/false);
  EXPECT_EQ(untimed.find("time="), std::string::npos);
  EXPECT_NE(untimed.find("Scan[MOVIES]  (rows=42)"), std::string::npos);
  EXPECT_NE(
      untimed.find(
          "Prefer[p1]  (rows=42 -> 42 score_entries=7 index)"),
      std::string::npos);

  std::string json = root->ToJson(/*include_timing=*/false);
  EXPECT_EQ(json.find("micros"), std::string::npos);
  EXPECT_NE(json.find("\"children\": ["), std::string::npos);
  EXPECT_NE(json.find("\"score_entries\": 7"), std::string::npos);
}

TEST(SpanTest, AdoptSplicesDetachedChildrenInOrder) {
  obs::SpanPtr root = obs::Span::Detached("join");
  obs::SpanPtr left = obs::Span::Detached("left");
  obs::SpanPtr right = obs::Span::Detached("right");
  root->Adopt(std::move(left));
  root->Adopt(nullptr);  // No-op.
  root->Adopt(std::move(right));
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->name, "left");
  EXPECT_EQ(root->children[1]->name, "right");
}

TEST(SpanTest, NullParentScopeIsANoOp) {
  obs::SpanScope scope(nullptr, "invisible");
  EXPECT_EQ(scope.get(), nullptr);
  // The annotation helpers must all tolerate null.
  obs::SetRowsIn(nullptr, 1);
  obs::SetRowsOut(nullptr, 2);
  obs::SetScoreEntries(nullptr, 3);
  obs::SetDetail(nullptr, "x");
}

TEST(SpanTest, ScopeTimesItsSpan) {
  obs::SpanPtr root = obs::Span::Detached("root");
  {
    obs::SpanScope scope(root.get(), "child");
    ASSERT_NE(scope.get(), nullptr);
  }
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_GE(root->children[0]->micros, 0.0);
}

TEST(SpanTest, SelfTimePlusChildrenTimeIsTheSpanTime) {
  obs::SpanPtr root = obs::Span::Detached("Query");
  root->micros = 4000.0;
  root->AddChild("Scan")->micros = 1500.0;
  obs::Span* join = root->AddChild("Join");
  join->micros = 1000.0;
  join->AddChild("Build")->micros = 250.0;

  EXPECT_DOUBLE_EQ(root->SelfMicros(), 1500.0);
  EXPECT_DOUBLE_EQ(join->SelfMicros(), 750.0);
  for (const obs::Span* span : {root.get(), join}) {
    EXPECT_DOUBLE_EQ(span->SelfMicros() + span->ChildMicros(), span->micros)
        << span->name;
  }

  std::string timed = root->ToString();
  EXPECT_NE(timed.find("Query  (time=4.000ms self=1.500ms)"), std::string::npos)
      << timed;
  EXPECT_NE(timed.find("Join  (time=1.000ms self=0.750ms)"), std::string::npos)
      << timed;
  std::string json = root->ToJson();
  EXPECT_NE(json.find("\"micros\": 4000.0, \"self_micros\": 1500.0"),
            std::string::npos)
      << json;
  // The timing-free renderings the determinism checks compare carry no
  // self time either.
  EXPECT_EQ(root->ToString(/*include_timing=*/false).find("self"),
            std::string::npos);
  EXPECT_EQ(root->ToJson(/*include_timing=*/false).find("self_micros"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: EXPLAIN ANALYZE, trace determinism, failure reports.

Session* SharedImdbSession() {
  static Session* instance = [] {
    ImdbOptions options;
    options.scale = 0.0008;
    options.seed = 7;
    auto catalog = GenerateImdb(options);
    EXPECT_TRUE(catalog.ok());
    return new Session(std::move(*catalog));
  }();
  return instance;
}

ParallelContext ForcedContext(size_t threads) {
  ParallelContext ctx;
  ctx.threads = threads;
  return ctx;
}

TEST(ExplainAnalyzeTest, RendersSpanTreeForEveryStrategy) {
  Session* session = SharedImdbSession();
  const std::string sql = ImdbWorkload()[0].sql;
  const StrategyKind kStrategies[] = {
      StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
      StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined};
  for (StrategyKind kind : kStrategies) {
    QueryOptions options;
    options.strategy = kind;
    auto result = session->Query("EXPLAIN ANALYZE " + sql, options);
    ASSERT_TRUE(result.ok())
        << StrategyKindName(kind) << ": " << result.status().ToString();
    ASSERT_NE(result->trace, nullptr) << StrategyKindName(kind);
    const std::string& rendered = result->explain_analyze;
    ASSERT_FALSE(rendered.empty()) << StrategyKindName(kind);
    // The tree carries the strategy span, per-phase timings and
    // cardinalities.
    EXPECT_NE(rendered.find(std::string("strategy[") +
                            std::string(StrategyKindName(kind)) + "]"),
              std::string::npos)
        << rendered;
    EXPECT_NE(rendered.find("time="), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("self="), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("rows="), std::string::npos) << rendered;
    // Every measured span splits exactly into self time plus its children.
    std::vector<const obs::Span*> spans = obs::FindSpans(*result->trace, "");
    for (const obs::Span* span : spans) {
      EXPECT_DOUBLE_EQ(span->SelfMicros() + span->ChildMicros(), span->micros)
          << span->name;
    }
    EXPECT_NE(rendered.find("FilterAndProject"), std::string::npos) << rendered;
    // EXPLAIN ANALYZE still executes: the answer comes back too.
    EXPECT_GT(result->relation.NumRows(), 0u) << StrategyKindName(kind);
  }
}

TEST(ExplainAnalyzeTest, StrategySpecificPhasesAppear) {
  Session* session = SharedImdbSession();
  const std::string sql = "EXPLAIN ANALYZE " + ImdbWorkload()[0].sql;

  QueryOptions ftp;
  ftp.strategy = StrategyKind::kFtP;
  auto r = session->Query(sql, ftp);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->explain_analyze.find("EngineQuery[Q_NP]"), std::string::npos)
      << r->explain_analyze;
  EXPECT_NE(r->explain_analyze.find("PostFilterSweep"), std::string::npos)
      << r->explain_analyze;
  EXPECT_NE(r->explain_analyze.find("Prefer["), std::string::npos)
      << r->explain_analyze;

  QueryOptions plugin;
  plugin.strategy = StrategyKind::kPlugInBasic;
  r = session->Query(sql, plugin);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->explain_analyze.find("RewriteQuery["), std::string::npos)
      << r->explain_analyze;
  EXPECT_NE(r->explain_analyze.find("MergePartial["), std::string::npos)
      << r->explain_analyze;
}

TEST(ExplainAnalyzeTest, NativeOperatorSpansAppearUnderDelegatedJoin) {
  Session* session = SharedImdbSession();
  // FtP delegates the whole non-preference fragment — joins included — so
  // the native executor's operator spans must show up as children of the
  // delegated-query span, with build/probe row counts, making visible
  // where delegated time goes.
  const std::string sql =
      "EXPLAIN ANALYZE "
      "SELECT title, year FROM MOVIES "
      "JOIN DIRECTORS ON MOVIES.d_id = DIRECTORS.d_id "
      "WHERE year >= 1990 "
      "PREFERRING (year >= 2000) SCORE recency(year, 2011) CONF 0.9 RANKED";
  QueryOptions options;
  options.strategy = StrategyKind::kFtP;
  auto r = session->Query(sql, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& rendered = r->explain_analyze;
  EXPECT_NE(rendered.find("native.join"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("native.join.build"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("native.join.probe"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("native.scan"), std::string::npos) << rendered;
  // The build/probe spans carry cardinalities (rows=IN -> OUT), and the
  // join span records its physical algorithm.
  ASSERT_NE(r->trace, nullptr);
  std::vector<const obs::Span*> builds =
      obs::FindSpans(*r->trace, "native.join.build");
  std::vector<const obs::Span*> probes =
      obs::FindSpans(*r->trace, "native.join.probe");
  ASSERT_FALSE(builds.empty());
  ASSERT_FALSE(probes.empty());
  EXPECT_NE(builds[0]->rows_in, obs::Span::kUnset);
  EXPECT_NE(builds[0]->rows_out, obs::Span::kUnset);
  EXPECT_NE(probes[0]->rows_in, obs::Span::kUnset);
  EXPECT_NE(probes[0]->rows_out, obs::Span::kUnset);
  std::vector<const obs::Span*> joins = obs::FindSpans(*r->trace, "native.join");
  EXPECT_EQ(joins[0]->detail, "hash");
  // The per-operator metrics landed in the engine registry.
  auto& metrics = session->engine().metrics();
  EXPECT_GT(metrics.counter("pref.native.scan_rows")->value(), 0u);
  EXPECT_GT(metrics.counter("pref.native.join_build_rows")->value(), 0u);
  EXPECT_GT(metrics.counter("pref.native.join_probe_rows")->value(), 0u);
}

TEST(ExplainAnalyzeTest, GbuRegionPhasesAppear) {
  Session* session = SharedImdbSession();
  // A set-operation query with prefers on both sides forces a GBU region
  // (temp materialization + delegated region query + recombination).
  const std::string sql =
      "EXPLAIN ANALYZE "
      "SELECT title, year FROM MOVIES WHERE d_id <= 20 "
      "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 0.9 "
      "UNION "
      "SELECT title, year FROM MOVIES WHERE year >= 2005 "
      "PREFERRING (duration <= 120) SCORE 0.6 CONF 0.5 "
      "RANKED";
  QueryOptions options;
  options.strategy = StrategyKind::kGBU;
  auto r = session->Query(sql, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->explain_analyze.find("Region["), std::string::npos)
      << r->explain_analyze;
  EXPECT_NE(r->explain_analyze.find("MaterializeRegionInputs"),
            std::string::npos)
      << r->explain_analyze;
  EXPECT_NE(r->explain_analyze.find("RegionQuery"), std::string::npos)
      << r->explain_analyze;
  EXPECT_NE(r->explain_analyze.find("RecombineScores"), std::string::npos)
      << r->explain_analyze;
}

// The FilterAndProject span's detail, for an EXPLAIN ANALYZE of `sql`.
std::string FilterDetail(Session* session, const std::string& sql) {
  auto r = session->Query("EXPLAIN ANALYZE " + sql, QueryOptions());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  std::vector<const obs::Span*> spans = obs::FindSpans(*r->trace, "FilterAndProject");
  EXPECT_EQ(spans.size(), 1u) << r->explain_analyze;
  EXPECT_NE(r->explain_analyze.find(spans[0]->detail), std::string::npos);
  return spans.empty() ? "" : spans[0]->detail;
}

// FilterAndProject says which ranking ran: IMDB-1's key (int and dict
// columns) is packed, and a table keyed by mostly distinct strings (an
// arena column) takes the comparator.
TEST(ExplainAnalyzeTest, FilterAndProjectSaysWhichRankingRan) {
  const std::string packed = FilterDetail(SharedImdbSession(), ImdbWorkload()[0].sql);
  EXPECT_TRUE(std::regex_match(
      packed, std::regex("rank=packed keys=[1-9][0-9]* scored=[1-9][0-9]* "
                         "default=[0-9]+ defaults=(in-order|sorted)")))
      << packed;

  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("PEOPLE",
                               Schema({{"", "name", ValueType::kString},
                                       {"", "age", ValueType::kInt}}),
                               {{testing_util::S("Ann"), testing_util::I(31)},
                                {testing_util::S("Bob"), testing_util::I(25)},
                                {testing_util::S("Cy"), testing_util::I(40)}},
                               {"name"})
                  .ok());
  Session people(std::move(catalog));
  EXPECT_EQ(FilterDetail(&people,
                         "SELECT name FROM PEOPLE "
                         "PREFERRING (age >= 30) SCORE 0.5 CONF 1 RANKED"),
            "rank=comparator(arena key)");
}

// The plug-ins' fold and align spans say which key codes their R_P read and
// how many entries it holds: IMDB-3's key (int and dict columns of the base
// tables) is read as codes; a table keyed by mostly distinct strings (an
// arena column) is interned.
TEST(ExplainAnalyzeTest, PlugInScoreSpansSayWhichKeyPathRan) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("PEOPLE",
                               Schema({{"", "name", ValueType::kString},
                                       {"", "age", ValueType::kInt}}),
                               {{testing_util::S("Ann"), testing_util::I(31)},
                                {testing_util::S("Bob"), testing_util::I(25)},
                                {testing_util::S("Cy"), testing_util::I(40)}},
                               {"name"})
                  .ok());
  Session people(std::move(catalog));
  const std::regex codes("(.* )?keys=codes entries=[1-9][0-9]*");
  for (StrategyKind kind : {StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined}) {
    QueryOptions options;
    options.strategy = kind;
    auto r = SharedImdbSession()->Query("EXPLAIN ANALYZE " + ImdbWorkload()[2].sql,
                                        options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::vector<const obs::Span*> merges = obs::FindSpans(*r->trace, "MergePartial");
    std::vector<const obs::Span*> align = obs::FindSpans(*r->trace, "AlignScores");
    ASSERT_FALSE(merges.empty());
    ASSERT_EQ(align.size(), 1u);
    for (const obs::Span* merge : merges) {
      EXPECT_TRUE(std::regex_match(merge->detail, codes)) << merge->detail;
    }
    EXPECT_TRUE(std::regex_match(align[0]->detail, codes)) << align[0]->detail;
    // Alignment reads the R_P the last merge left.
    const std::string& last = merges.back()->detail;
    EXPECT_EQ(last.substr(last.find("keys=")), align[0]->detail);
    EXPECT_NE(r->explain_analyze.find(align[0]->detail), std::string::npos);

    auto interned = people.Query(
        "EXPLAIN ANALYZE SELECT name FROM PEOPLE "
        "PREFERRING (age >= 30) SCORE 0.5 CONF 1 RANKED",
        options);
    ASSERT_TRUE(interned.ok()) << interned.status().ToString();
    align = obs::FindSpans(*interned->trace, "AlignScores");
    ASSERT_EQ(align.size(), 1u);
    EXPECT_EQ(align[0]->detail, "keys=interned entries=2");
  }
}

// Every span that scores says how S ran: a built-in over a column compiles
// (score=compiled); a comparison inside S is a fallback leaf calling
// Expr::Eval (score=fallback(1)). FtP, BU and GBU score in Prefer spans,
// the plug-ins in MergePartial spans.
TEST(ExplainAnalyzeTest, ScoringSpansSayHowTheScoreRan) {
  struct Case {
    const char* score;
    const char* detail;
  } kCases[] = {{"recency(year, 2011)", "score=compiled"},
                {"0.5 * (year > 2005)", "score=fallback(1)"}};
  for (const Case& c : kCases) {
    for (StrategyKind kind : {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
                              StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined}) {
      Session session(MakeMovieCatalog());
      QueryOptions options;
      options.strategy = kind;
      options.trace = true;
      auto r = session.Query(
          std::string("SELECT title FROM MOVIES PREFERRING (duration > 100) SCORE ") +
              c.score + " CONF 1 RANKED",
          options);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const bool plugin =
          kind == StrategyKind::kPlugInBasic || kind == StrategyKind::kPlugInCombined;
      const std::vector<const obs::Span*> spans =
          obs::FindSpans(*r->trace, plugin ? "MergePartial[" : "Prefer[");
      ASSERT_EQ(spans.size(), 1u) << StrategyKindName(kind);
      const std::string& detail = spans[0]->detail;
      EXPECT_EQ(detail.substr(0, detail.find(' ')), c.detail)
          << StrategyKindName(kind) << ": " << detail;
    }
  }
}

TEST(TraceTest, DisabledByDefault) {
  Session session(MakeMovieCatalog());
  auto result = session.Query(
      "SELECT title FROM MOVIES "
      "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 1 RANKED");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->trace, nullptr);
  EXPECT_TRUE(result->explain_analyze.empty());
}

TEST(TraceTest, OptionsTraceCollectsWithoutExplain) {
  Session session(MakeMovieCatalog());
  QueryOptions options;
  options.trace = true;
  auto result = session.Query(
      "SELECT title FROM MOVIES "
      "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 1 RANKED",
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  EXPECT_TRUE(result->explain_analyze.empty());  // Only EXPLAIN renders.
  EXPECT_EQ(result->trace->name, "Query");
  EXPECT_FALSE(result->trace->children.empty());
}

// The determinism contract: the timing-free rendering of a trace is
// byte-identical run to run — at threads=1 and equally at threads=8 (the
// plug-ins' concurrent queries are adopted in plan order, never in
// scheduling order).
TEST(TraceTest, SpanTreeIsDeterministicAcrossRunsAndThreadCounts) {
  Session* session = SharedImdbSession();
  const std::string sql = ImdbWorkload()[0].sql;
  const StrategyKind kStrategies[] = {
      StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
      StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined};
  for (StrategyKind kind : kStrategies) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      QueryOptions options;
      options.strategy = kind;
      options.trace = true;
      options.parallel = ForcedContext(threads);
      std::set<std::string> renderings;
      for (int run = 0; run < 3; ++run) {
        auto result = session->Query(sql, options);
        ASSERT_TRUE(result.ok())
            << StrategyKindName(kind) << " threads=" << threads << ": "
            << result.status().ToString();
        ASSERT_NE(result->trace, nullptr);
        renderings.insert(result->trace->ToString(/*include_timing=*/false));
      }
      EXPECT_EQ(renderings.size(), 1u)
          << StrategyKindName(kind) << " threads=" << threads
          << ": non-deterministic trace:\n" << *renderings.begin();
    }
  }
}

TEST(FailureReportTest, FailedQueryKeepsTimingAndPartialStats) {
  Session* session = SharedImdbSession();
  // FtP refuses prefer-under-set-operation plans; the Run still reports
  // what it spent.
  const std::string failing =
      "SELECT title, year FROM MOVIES WHERE d_id <= 20 "
      "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 0.9 "
      "UNION "
      "SELECT title, year FROM MOVIES WHERE year >= 2005 "
      "PREFERRING (duration <= 120) SCORE 0.6 CONF 0.5 "
      "RANKED";
  QueryOptions options;
  options.strategy = StrategyKind::kFtP;
  auto result = session->Query(failing, options);
  ASSERT_FALSE(result.ok());
  const auto& failure = session->last_failure();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->strategy, "FtP");
  EXPECT_EQ(failure->message, result.status().message());
  EXPECT_GE(failure->millis, 0.0);

  // A subsequent successful query clears the report.
  options.strategy = StrategyKind::kGBU;
  auto ok = session->Query(failing, options);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(session->last_failure().has_value());
}

TEST(MetricsIntegrationTest, SessionFoldsQueryDeltasIntoEngineRegistry) {
  Session session(MakeMovieCatalog());
  const std::string sql =
      "SELECT title FROM MOVIES "
      "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 1 RANKED";
  auto r1 = session.Query(sql);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = session.Query(sql);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();

  obs::MetricsRegistry& metrics = session.engine().metrics();
  EXPECT_EQ(metrics.counter("session.queries")->value(), 2u);
  EXPECT_GE(metrics.counter("engine.queries")->value(),
            r1->stats.engine_queries + r2->stats.engine_queries);
  EXPECT_EQ(metrics.counter("exec.score_entries_written")->value(),
            r1->stats.score_entries_written + r2->stats.score_entries_written);
  EXPECT_EQ(metrics.histogram("session.query_micros")->total_count(), 2u);
  // The cumulative ExecStats view stays in sync (compatibility contract).
  EXPECT_EQ(session.engine().stats().score_entries_written,
            r1->stats.score_entries_written + r2->stats.score_entries_written);
}

TEST(ThreadPoolTelemetryTest, ParallelQueryExecutesPoolTasks) {
  Session* session = SharedImdbSession();
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  (void)global;  // The registry is exercised implicitly via Engine.

  ThreadPoolTelemetry before = ThreadPool::Shared().telemetry();
  // IMDB-1 has two preferences: PlugInBasic issues their two rewritten
  // queries as one concurrent batch.
  QueryOptions options;
  options.strategy = StrategyKind::kPlugInBasic;
  options.parallel = ForcedContext(8);
  auto result = session->Query(ImdbWorkload()[0].sql, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // ParallelInvoke does not wait for a helper task that has not started
  // (the calling thread may have run the whole batch), so the helper may be
  // dequeued just after the query returns.
  ThreadPoolTelemetry after = ThreadPool::Shared().telemetry();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (after.tasks_executed == before.tasks_executed &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = ThreadPool::Shared().telemetry();
  }
  EXPECT_GT(after.tasks_executed, before.tasks_executed);
  EXPECT_GE(after.queue_wait_micros, before.queue_wait_micros);
  EXPECT_FALSE(after.ToString().empty());
  // An export brings the engine's pref.pool.helper_claims counter up to
  // the pool's count.
  EXPECT_NE(session->engine().metrics().ToPrometheus().find(
                "# TYPE pref_pool_helper_claims counter"),
            std::string::npos);
  EXPECT_GE(session->engine().metrics().counter(obs::kPrefPoolHelperClaims)->value(),
            after.helper_claims);
}

}  // namespace
}  // namespace prefdb

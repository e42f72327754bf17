// The correctness contract of the parallel subsystem: for every execution
// strategy, evaluating with threads ∈ {1, 2, 8} produces the same
// p-relation — the same rows with exactly the same scores, modulo row order
// (the latitude the Strategy contract already grants between strategies) —
// on every query of the IMDB and DBLP datagen workloads. The plug-ins run
// their batches of delegated queries concurrently at threads > 1; every
// other operator and strategy runs one serial body at any thread count.
//
// Prefer-under-set-operation plans (only BU and GBU can evaluate them) are
// checked across thread counts too.

#include <cmath>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/dblp_gen.h"
#include "datagen/imdb_gen.h"
#include "engine/executor.h"
#include "exec/runner.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "palgebra/p_ops.h"
#include "test_util.h"
#include "workload/workload.h"

namespace prefdb {
namespace {

using testing_util::ExpectSameRows;

struct QuerySpec {
  std::string dataset;  // "imdb" or "dblp"
  std::string name;
  std::string sql;
};

void PrintTo(const QuerySpec& spec, std::ostream* os) {
  *os << spec.dataset << ":" << spec.name;
}

Session* SharedImdbSession() {
  static Session* instance = [] {
    ImdbOptions options;
    options.scale = 0.0008;  // ≈ 1.3k movies.
    options.seed = 7;
    auto catalog = GenerateImdb(options);
    EXPECT_TRUE(catalog.ok());
    return new Session(std::move(*catalog));
  }();
  return instance;
}

Session* SharedDblpSession() {
  static Session* instance = [] {
    DblpOptions options;
    options.scale = 0.002;  // ≈ 5.3k publications.
    options.seed = 11;
    auto catalog = GenerateDblp(options);
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

class ParallelEquivalenceTest : public ::testing::TestWithParam<QuerySpec> {
 protected:
  Session* session() const {
    return GetParam().dataset == "imdb" ? SharedImdbSession()
                                        : SharedDblpSession();
  }

  /// Runs `spec` under `kind` at threads ∈ {1, 2, 8} and checks every run
  /// against the strategy's own serial answer: same schema, same rows and
  /// exactly the same scores (every pair is folded in the same order at any
  /// thread count), same counter totals (guaranteed by the ordered
  /// join-point merges).
  void CheckStrategyAcrossThreads(const QuerySpec& spec, StrategyKind kind) {
    QueryOptions reference;
    reference.strategy = kind;
    reference.parallel = ForcedContext(1);
    auto expected = session()->Query(spec.sql, reference);
    ASSERT_TRUE(expected.ok()) << StrategyKindName(kind) << " serial: "
                               << expected.status().ToString() << "\n"
                               << spec.sql;

    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      QueryOptions options;
      options.strategy = kind;
      options.parallel = ForcedContext(threads);
      auto actual = session()->Query(spec.sql, options);
      ASSERT_TRUE(actual.ok())
          << StrategyKindName(kind) << " threads=" << threads << ": "
          << actual.status().ToString() << "\n" << spec.sql;
      EXPECT_EQ(actual->relation.schema(), expected->relation.schema());
      ExpectSameRows(actual->relation, expected->relation, /*eps=*/0.0);
      // Counter semantics are preserved by the ordered join-point merges:
      // parallel runs materialize and score exactly what serial runs do.
      EXPECT_EQ(actual->stats.tuples_materialized,
                expected->stats.tuples_materialized)
          << StrategyKindName(kind) << " threads=" << threads;
      EXPECT_EQ(actual->stats.score_entries_written,
                expected->stats.score_entries_written)
          << StrategyKindName(kind) << " threads=" << threads;
      EXPECT_EQ(actual->stats.engine_queries, expected->stats.engine_queries)
          << StrategyKindName(kind) << " threads=" << threads;
    }

    // Trace determinism at threads=1: two traced serial runs render the
    // same timing-free span tree, byte for byte (structure, cardinalities
    // and score counts are all scheduling-independent).
    QueryOptions traced = reference;
    traced.trace = true;
    auto first = session()->Query(spec.sql, traced);
    auto second = session()->Query(spec.sql, traced);
    ASSERT_TRUE(first.ok() && second.ok()) << StrategyKindName(kind);
    ASSERT_NE(first->trace, nullptr);
    ASSERT_NE(second->trace, nullptr);
    EXPECT_EQ(first->trace->ToString(/*include_timing=*/false),
              second->trace->ToString(/*include_timing=*/false))
        << StrategyKindName(kind) << ": serial trace not reproducible";
  }
};

TEST_P(ParallelEquivalenceTest, SameAnswerAtEveryThreadCount) {
  const QuerySpec& spec = GetParam();
  const StrategyKind kStrategies[] = {
      StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
      StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined};
  for (StrategyKind kind : kStrategies) {
    CheckStrategyAcrossThreads(spec, kind);
  }
}

std::vector<QuerySpec> AllQueries() {
  std::vector<QuerySpec> specs;
  for (const WorkloadQuery& q : ImdbWorkload()) {
    specs.push_back({"imdb", q.name, q.sql});
  }
  // Extra IMDB shapes: many preferences (wide plug-in fan-out) and a
  // membership preference (member-relation probe inside the prefer pass).
  specs.push_back({"imdb", "PrefSweep6", ImdbPreferenceSweep(6)});
  specs.push_back(
      {"imdb", "Membership",
       "SELECT title, year FROM MOVIES PREFERRING (year >= 1990) SCORE 1.0 "
       "CONF 0.9 EXISTS IN AWARDS ON m_id = m_id RANKED"});
  for (const WorkloadQuery& q : DblpWorkload()) {
    specs.push_back({"dblp", q.name, q.sql});
  }
  return specs;
}

INSTANTIATE_TEST_SUITE_P(Workloads, ParallelEquivalenceTest,
                         ::testing::ValuesIn(AllQueries()),
                         [](const ::testing::TestParamInfo<QuerySpec>& info) {
                           std::string name =
                               info.param.dataset + "_" + info.param.name;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Prefer operators below set operations: the origin side of a result tuple
// is not recoverable from the flat non-preference result, so FtP and the
// plug-ins must refuse these plans, while BU and GBU evaluate them, with the
// same answer at every thread count.

class SetOpParallelEquivalenceTest : public ParallelEquivalenceTest {};

TEST_P(SetOpParallelEquivalenceTest, ResultStrategiesRefuse) {
  const QuerySpec& spec = GetParam();
  const StrategyKind kResultStrategies[] = {StrategyKind::kFtP,
                                            StrategyKind::kPlugInBasic,
                                            StrategyKind::kPlugInCombined};
  for (StrategyKind kind : kResultStrategies) {
    QueryOptions options;
    options.strategy = kind;
    EXPECT_FALSE(session()->Query(spec.sql, options).ok())
        << StrategyKindName(kind) << " should refuse prefer-under-set-op:\n"
        << spec.sql;
  }
}

TEST_P(SetOpParallelEquivalenceTest, PlanDrivenStrategiesSameAnswer) {
  const QuerySpec& spec = GetParam();
  for (StrategyKind kind : {StrategyKind::kBU, StrategyKind::kGBU}) {
    CheckStrategyAcrossThreads(spec, kind);
  }
}

std::vector<QuerySpec> SetOpQueries() {
  return {
      {"imdb", "UnionPrefs",
       "SELECT title, year FROM MOVIES WHERE d_id <= 20 "
       "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 0.9 "
       "UNION "
       "SELECT title, year FROM MOVIES WHERE year >= 2005 "
       "PREFERRING (duration <= 120) SCORE 0.6 CONF 0.5 "
       "RANKED"},
      {"imdb", "IntersectPrefs",
       "SELECT title, year FROM MOVIES WHERE year >= 2000 "
       "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 0.8 "
       "INTERSECT "
       "SELECT title, year FROM MOVIES WHERE duration >= 100 "
       "PREFERRING (duration BETWEEN 90 AND 150) SCORE around(duration, 120) "
       "CONF 0.5 "
       "RANKED"},
      {"imdb", "ExceptPrefs",
       "SELECT title, year FROM MOVIES WHERE year >= 2000 "
       "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 0.9 "
       "EXCEPT "
       "SELECT title, year FROM MOVIES WHERE duration > 150 "
       "RANKED"},
      {"dblp", "UnionPrefs",
       "SELECT title, year FROM PUBLICATIONS "
       "JOIN CONFERENCES ON PUBLICATIONS.p_id = CONFERENCES.p_id "
       "WHERE year >= 2005 "
       "PREFERRING (year >= 2008) SCORE recency(year, 2011) CONF 0.9 "
       "UNION "
       "SELECT title, year FROM PUBLICATIONS "
       "JOIN CONFERENCES ON PUBLICATIONS.p_id = CONFERENCES.p_id "
       "WHERE location = 'Athens' "
       "PREFERRING (name = 'Conference 1') SCORE 1.0 CONF 0.7 "
       "RANKED"},
  };
}

INSTANTIATE_TEST_SUITE_P(SetOps, SetOpParallelEquivalenceTest,
                         ::testing::ValuesIn(SetOpQueries()),
                         [](const ::testing::TestParamInfo<QuerySpec>& info) {
                           return info.param.dataset + "_" + info.param.name;
                         });

// ---------------------------------------------------------------------------
// Cold-vs-warm cache equivalence: with the result cache enabled, the first
// (cold) and second (warm) execution of every workload query must return
// exactly the rows and counters of a cache-off run — at every strategy and
// at threads ∈ {1, 8} — while the warm run actually hits. The cache
// replays the miss execution's ExecStats delta on hits, which is what makes
// the counters indistinguishable.
//
// These use their own sessions (not the shared ones above): the trace
// determinism checks there assume consecutive runs execute identically,
// which a cache hit would break.

Session* CacheSweepImdbSession() {
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

Session* CacheSweepDblpSession() {
  static Session* instance = [] {
    DblpOptions options;
    options.scale = 0.002;
    options.seed = 11;
    auto catalog = GenerateDblp(options);
    EXPECT_TRUE(catalog.ok());
    return new Session(std::move(*catalog));
  }();
  return instance;
}

class CacheColdWarmEquivalenceTest : public ParallelEquivalenceTest {
 protected:
  Session* sweep_session() const {
    return GetParam().dataset == "imdb" ? CacheSweepImdbSession()
                                        : CacheSweepDblpSession();
  }
};

TEST_P(CacheColdWarmEquivalenceTest, SameRowsAndCountersColdAndWarm) {
  const QuerySpec& spec = GetParam();
  Session* s = sweep_session();
  const StrategyKind kStrategies[] = {
      StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
      StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined};
  for (StrategyKind kind : kStrategies) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      // Entries stored at another thread count may order rows differently
      // (same latitude the parallel contract grants); start each sweep cell
      // cold so exact row comparison is meaningful.
      ASSERT_TRUE(s->Query("SET CACHE CLEAR").ok());

      QueryOptions options;
      options.strategy = kind;
      options.parallel = ForcedContext(threads);
      options.cache = false;
      auto off = s->Query(spec.sql, options);
      ASSERT_TRUE(off.ok()) << StrategyKindName(kind) << " threads=" << threads
                            << ": " << off.status().ToString() << "\n"
                            << spec.sql;

      options.cache = true;
      auto cold = s->Query(spec.sql, options);
      ASSERT_TRUE(cold.ok()) << StrategyKindName(kind)
                             << " threads=" << threads;
      uint64_t hits_before =
          s->engine().metrics().counter("pref.cache.hits")->value();
      auto warm = s->Query(spec.sql, options);
      ASSERT_TRUE(warm.ok()) << StrategyKindName(kind)
                             << " threads=" << threads;
      uint64_t hits_after =
          s->engine().metrics().counter("pref.cache.hits")->value();

      for (const QueryResult* run : {&cold.value(), &warm.value()}) {
        EXPECT_EQ(run->relation.schema(), off->relation.schema());
        EXPECT_EQ(run->relation.rows(), off->relation.rows())
            << StrategyKindName(kind) << " threads=" << threads
            << ": cached rows differ from cache-off rows\n" << spec.sql;
        EXPECT_EQ(run->stats.engine_queries, off->stats.engine_queries)
            << StrategyKindName(kind) << " threads=" << threads;
        EXPECT_EQ(run->stats.tuples_materialized,
                  off->stats.tuples_materialized)
            << StrategyKindName(kind) << " threads=" << threads;
        EXPECT_EQ(run->stats.rows_scanned, off->stats.rows_scanned)
            << StrategyKindName(kind) << " threads=" << threads;
        EXPECT_EQ(run->stats.score_entries_written,
                  off->stats.score_entries_written)
            << StrategyKindName(kind) << " threads=" << threads;
        EXPECT_EQ(run->stats.operator_invocations,
                  off->stats.operator_invocations)
            << StrategyKindName(kind) << " threads=" << threads;
      }
      EXPECT_GT(hits_after, hits_before)
          << StrategyKindName(kind) << " threads=" << threads
          << ": warm repeat produced no cache hit\n" << spec.sql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, CacheColdWarmEquivalenceTest,
                         ::testing::ValuesIn(AllQueries()),
                         [](const ::testing::TestParamInfo<QuerySpec>& info) {
                           std::string name =
                               info.param.dataset + "_" + info.param.name;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Strategy-level native-subtree equivalence: the `native.*` spans inside
// the delegated queries carry only scheduling-independent annotations, so
// their pre-order sequence must be identical at every thread count, for
// every strategy.

std::string NativeSpanFingerprint(const obs::Span& root) {
  std::string out;
  for (const obs::Span* span : obs::FindSpans(root, "native.")) {
    out += span->name;
    if (span->rows_in != obs::Span::kUnset) {
      out += " in=" + std::to_string(span->rows_in);
    }
    if (span->rows_out != obs::Span::kUnset) {
      out += " out=" + std::to_string(span->rows_out);
    }
    if (!span->detail.empty()) {
      out += ' ';
      out += span->detail;
    }
    out += '\n';
  }
  return out;
}

TEST(NativeSubtreeTraceTest, NativeSpansIdenticalAcrossThreadCounts) {
  Session* session = SharedImdbSession();
  // A join-heavy preferring query: the delegated fragments contain joins,
  // so the native.join.build / native.join.probe spans appear in the trace.
  const std::string sql =
      "SELECT title, year FROM MOVIES "
      "JOIN DIRECTORS ON MOVIES.d_id = DIRECTORS.d_id "
      "JOIN GENRES ON MOVIES.m_id = GENRES.m_id "
      "WHERE year >= 1990 "
      "PREFERRING (year >= 2000) SCORE recency(year, 2011) CONF 0.9 RANKED";
  const StrategyKind kStrategies[] = {
      StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
      StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined};
  for (StrategyKind kind : kStrategies) {
    std::string reference;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      QueryOptions options;
      options.strategy = kind;
      options.trace = true;
      options.parallel = ForcedContext(threads);
      auto result = session->Query(sql, options);
      ASSERT_TRUE(result.ok()) << StrategyKindName(kind) << " threads="
                               << threads << ": " << result.status().ToString();
      ASSERT_NE(result->trace, nullptr);
      std::string fingerprint = NativeSpanFingerprint(*result->trace);
      // Every strategy delegates at least the base scans; all but BU also
      // delegate the joins (BU evaluates joins itself with p-operators, so
      // its delegated fragments are bare scans).
      EXPECT_NE(fingerprint.find("native.scan"), std::string::npos)
          << StrategyKindName(kind) << " threads=" << threads
          << ": no native scan span in\n"
          << result->trace->ToString(/*include_timing=*/false);
      if (kind != StrategyKind::kBU) {
        EXPECT_NE(fingerprint.find("native.join.build"), std::string::npos)
            << StrategyKindName(kind) << " threads=" << threads
            << ": no join build span in\n"
            << result->trace->ToString(/*include_timing=*/false);
        EXPECT_NE(fingerprint.find("native.join.probe"), std::string::npos)
            << StrategyKindName(kind) << " threads=" << threads;
      }
      if (threads == 1) {
        reference = fingerprint;
      } else {
        EXPECT_EQ(fingerprint, reference)
            << StrategyKindName(kind) << " threads=" << threads
            << ": native subtree differs from serial";
      }
    }
  }
}

// BU and GBU ask the engine for each conventional result where their
// recursion reaches it and evaluate every operator serially, at every
// thread count. So the whole timing-free rendering — names, nesting,
// cardinalities, score counts and details — is the same at threads
// {1, 2, 8}.
TEST(StrategyTraceTest, BuGbuSpanNamesIdenticalAcrossThreadCounts) {
  Session* session = SharedImdbSession();
  std::vector<std::string> queries;
  for (const WorkloadQuery& query : ImdbWorkload()) queries.push_back(query.sql);
  queries.push_back(SetOpQueries()[0].sql);
  for (StrategyKind kind : {StrategyKind::kBU, StrategyKind::kGBU}) {
    for (const std::string& sql : queries) {
      std::string reference;
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        QueryOptions options;
        options.strategy = kind;
        options.trace = true;
        options.parallel = ForcedContext(threads);
        auto result = session->Query(sql, options);
        ASSERT_TRUE(result.ok()) << StrategyKindName(kind) << " threads="
                                 << threads << ": " << result.status().ToString();
        ASSERT_NE(result->trace, nullptr);
        std::string rendering = result->trace->ToString(/*include_timing=*/false);
        if (threads == 1) {
          reference = rendering;
        } else {
          EXPECT_EQ(rendering, reference)
              << StrategyKindName(kind) << " threads=" << threads << "\n"
              << sql;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Chrome trace export determinism. The untimed export (what EXPLAIN
// ANALYZE ... FORMAT CHROME renders) uses structural durations, so it is a
// pure function of the span tree — byte-identical across runs and thread
// counts (the operator tree is scheduling-independent, like the untimed
// ToString above).

TEST(ChromeTraceTest, OperatorLevelExportByteIdenticalAcrossThreadCounts) {
  Session* session = SharedImdbSession();
  const std::string sql = ImdbWorkload()[0].sql;
  std::string reference;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    for (int run = 0; run < 2; ++run) {
      QueryOptions options;
      options.strategy = StrategyKind::kFtP;
      options.trace = true;
      options.parallel = ForcedContext(threads);
      auto result = session->Query(sql, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_NE(result->trace, nullptr);
      std::string doc = result->trace->ToChromeTrace(/*include_timing=*/false);
      if (reference.empty()) {
        reference = doc;
        EXPECT_NE(doc.find("\"traceEvents\": ["), std::string::npos) << doc;
        EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos) << doc;
      } else {
        EXPECT_EQ(doc, reference)
            << "threads=" << threads << " run=" << run
            << ": untimed Chrome export not byte-identical";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent GBU executions against one engine. Temp-table names come from
// a process-wide atomic counter and every counter write is routed through a
// caller-provided ExecStats, so independent executions — each with its own
// strategy instance, as Session creates them — must neither collide in the
// shared catalog nor corrupt each other's answers. (Before the counter was
// process-wide, two concurrent executions both produced "__gbu_tmp_1".)

TEST(ConcurrentGbuTest, ConcurrentExecutionsDoNotCollideOnTempTables) {
  Session* session = SharedImdbSession();
  Engine& engine = session->engine();
  // A set-operation query with prefers on both sides: GBU materializes two
  // temp tables per execution.
  const std::string sql =
      "SELECT title, year FROM MOVIES WHERE d_id <= 20 "
      "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 0.9 "
      "UNION "
      "SELECT title, year FROM MOVIES WHERE year >= 2005 "
      "PREFERRING (duration <= 120) SCORE 0.6 CONF 0.5 "
      "RANKED";
  auto parsed = ParseQuery(sql, engine.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto agg = GetAggregateFunction("wsum");
  ASSERT_TRUE(agg.ok());

  // Strategies executed directly (below Session) share the engine's
  // parallel context; keep it serial so the only concurrency under test is
  // the cross-execution kind.
  engine.set_parallel_context(ParallelContext{});

  std::unique_ptr<Strategy> reference_strategy = MakeStrategy(StrategyKind::kGBU);
  ExecStats reference_stats;
  auto reference = reference_strategy->ExecuteWithStats(
      *parsed->plan, **agg, &engine, &reference_stats);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<StatusOr<PRelation>> results(kThreads,
                                           Status::Internal("not run"));
  std::vector<ExecStats> stats(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::unique_ptr<Strategy> strategy = MakeStrategy(StrategyKind::kGBU);
      for (int round = 0; round < kRounds; ++round) {
        results[t] = strategy->ExecuteWithStats(*parsed->plan, **agg, &engine,
                                                &stats[t]);
        if (!results[t].ok()) return;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok())
        << "thread " << t << ": " << results[t].status().ToString();
    ExpectSameRows(results[t]->Gather(), reference->Gather(), 1e-9);
    EXPECT_EQ(stats[t].engine_queries, kRounds * reference_stats.engine_queries)
        << "thread " << t;
    EXPECT_EQ(stats[t].score_entries_written,
              kRounds * reference_stats.score_entries_written)
        << "thread " << t;
  }
  // No temp leaked into the shared catalog.
  for (const std::string& name : engine.catalog().TableNames()) {
    EXPECT_EQ(name.find("__gbu_tmp"), std::string::npos) << name;
  }
}

// Concurrent engine queries (parallel plug-in strategies) may be the first
// to touch a base table's index at the same time: one join and one
// equality scan per thread race to build GENRES.m_id's index. Exactly one
// index must result, and every join must return the answer of a catalog
// that never raced.
TEST(ConcurrentIndexTest, FirstTouchBuildsOneIndexUnderRacingQueries) {
  auto make_catalog = [] {
    ImdbOptions options;
    options.scale = 0.0004;
    options.seed = 7;
    StatusOr<Catalog> catalog = GenerateImdb(options);
    EXPECT_TRUE(catalog.ok());
    return std::move(*catalog);
  };
  auto join = [] {
    return plan::Join(eb::Eq(eb::Col("MOVIES.m_id"), eb::Col("GENRES.m_id")),
                      plan::Scan("MOVIES"), plan::Scan("GENRES"));
  };
  Catalog quiet = make_catalog();
  ExecStats reference_stats;
  StatusOr<RowView> reference = ExecutePlan(*join(), &quiet, &reference_stats);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->NumRows(), 0u);

  Catalog catalog = make_catalog();
  Table* genres = *catalog.GetTable("GENRES");
  ASSERT_FALSE(genres->HasIndex(0));
  constexpr int kThreads = 4;
  std::vector<StatusOr<RowView>> joined(kThreads, Status::Internal("not run"));
  std::vector<StatusOr<RowView>> scanned(kThreads, Status::Internal("not run"));
  std::vector<const HashIndex*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ExecStats stats;
      PlanPtr scan = plan::Select(eb::Eq(eb::Col("m_id"), eb::Lit(int64_t{1})),
                                  plan::Scan("GENRES"));
      // Half the threads scan first, half join first.
      if (t % 2 == 0) joined[t] = ExecutePlan(*join(), &catalog, &stats);
      scanned[t] = ExecutePlan(*scan, &catalog, &stats);
      if (t % 2 == 1) joined[t] = ExecutePlan(*join(), &catalog, &stats);
      seen[t] = &genres->EnsureIndex(0);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(joined[t].ok()) << joined[t].status().ToString();
    ASSERT_TRUE(scanned[t].ok()) << scanned[t].status().ToString();
    EXPECT_EQ(joined[t]->Gather().rows(), reference->Gather().rows())
        << "thread " << t;
    EXPECT_EQ(scanned[t]->Gather().rows(), scanned[0]->Gather().rows())
        << "thread " << t;
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace prefdb

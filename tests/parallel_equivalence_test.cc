// The correctness contract of the parallel subsystem: for every execution
// strategy, evaluating with threads ∈ {1, 2, 8} produces the same
// p-relation — the same rows with exactly the same scores, modulo row order
// (the latitude the Strategy contract already grants between strategies). The
// morsel knobs are shrunk so even the small test datasets split into many
// morsels, forcing the parallel code paths on every query of the IMDB and
// DBLP datagen workloads.
//
// Prefer-under-set-operation plans (only BU and GBU can evaluate them)
// additionally exercise the concurrent-subtree paths: BU's binary-operator
// children and GBU's per-prefer-subtree temp materializations run as
// independent tasks when threads > 1.

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

/// A context that forces morsel parallelism at test scale: tiny morsels,
/// no serial fallback threshold.
ParallelContext ForcedContext(size_t threads) {
  ParallelContext ctx;
  ctx.threads = threads;
  ctx.morsel_size = 64;
  ctx.min_parallel_rows = 64;
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
  // membership preference (member-relation probe inside the morsel loop).
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
// plug-ins must refuse these plans, while BU and GBU evaluate them — and
// at threads > 1 their set-operation children / prefer subtrees run
// concurrently.

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
// The native executor's own morsel-parallel operators, exercised directly at
// the ExecutePlan level: full-scan filtering, the hash/nested-loop join
// probe (regular and semi), set-operation membership and DISTINCT hashing.
// The contract is stricter than the strategy-level checks above: rows must
// be BIT-IDENTICAL *including order* (morsel-order concatenation reproduces
// the serial order exactly), every ExecStats counter must match, and the
// timing-free `native.*` span tree must render byte-identically at every
// thread count (the annotations carry no scheduling-dependent detail).

Catalog* NativeOpCatalog() {
  static Catalog* instance = [] {
    ImdbOptions options;
    options.scale = 0.0008;
    options.seed = 7;
    auto catalog = GenerateImdb(options);
    EXPECT_TRUE(catalog.ok());
    return new Catalog(std::move(*catalog));
  }();
  return instance;
}

struct NativeRun {
  Relation rel;
  ExecStats stats;
  std::string trace;  // Timing-free rendering; all spans here are native.*.
};

NativeRun RunNativePlan(const PlanNode& plan, size_t threads) {
  NativeRun run;
  ParallelContext ctx = ForcedContext(threads);
  obs::SpanPtr root = obs::Span::Detached("root");
  NativeExecOptions options;
  options.parallel = &ctx;
  options.span = root.get();
  auto result = ExecutePlan(plan, NativeOpCatalog(), &run.stats, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) run.rel = result->Gather();
  run.trace = root->ToString(/*include_timing=*/false);
  return run;
}

TEST(NativeOperatorEquivalenceTest, OperatorsBitIdenticalAcrossThreadCounts) {
  using namespace eb;  // NOLINT
  struct PlanCase {
    const char* name;
    PlanPtr plan;
  };
  std::vector<PlanCase> cases;
  cases.push_back({"scan_filter",
                   plan::Select(Ge(Col("year"), Lit(int64_t{1990})),
                                plan::Scan("MOVIES"))});
  cases.push_back(
      {"hash_join",
       plan::Join(Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
                  plan::Scan("MOVIES"), plan::Scan("DIRECTORS"))});
  cases.push_back(
      {"hash_join_residual",
       plan::Join(And(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                      Ge(Col("year"), Lit(int64_t{2000}))),
                  plan::Scan("MOVIES"), plan::Scan("GENRES"))});
  cases.push_back(
      {"semi_join",
       plan::SemiJoin(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                      plan::Scan("MOVIES"), plan::Scan("GENRES"))});
  cases.push_back(
      {"nested_loop_join",
       plan::Join(Lt(Col("DIRECTORS.d_id"), Col("MOVIES.d_id")),
                  plan::Select(Le(Col("d_id"), Lit(int64_t{20})),
                               plan::Scan("DIRECTORS")),
                  plan::Select(Ge(Col("year"), Lit(int64_t{2005})),
                               plan::Scan("MOVIES")))});
  cases.push_back(
      {"nested_loop_semi_join",
       plan::SemiJoin(Gt(Col("MOVIES.year"), Col("AWARDS.year")),
                      plan::Select(Le(Col("m_id"), Lit(int64_t{200})),
                                   plan::Scan("MOVIES")),
                      plan::Scan("AWARDS"))});
  cases.push_back(
      {"union",
       plan::Union(plan::Select(Ge(Col("year"), Lit(int64_t{2000})),
                                plan::Scan("MOVIES")),
                   plan::Select(Le(Col("year"), Lit(int64_t{2005})),
                                plan::Scan("MOVIES")))});
  cases.push_back(
      {"intersect",
       plan::Intersect(plan::Select(Ge(Col("year"), Lit(int64_t{2000})),
                                    plan::Scan("MOVIES")),
                       plan::Select(Le(Col("year"), Lit(int64_t{2005})),
                                    plan::Scan("MOVIES")))});
  cases.push_back(
      {"except",
       plan::Except(plan::Select(Ge(Col("year"), Lit(int64_t{2000})),
                                 plan::Scan("MOVIES")),
                    plan::Select(Le(Col("year"), Lit(int64_t{2005})),
                                 plan::Scan("MOVIES")))});
  // Projecting away the key makes the remaining rows duplicate-heavy, so
  // the parallel hash precompute + serial bucket dedup actually collapses
  // rows rather than passing everything through.
  cases.push_back(
      {"distinct", plan::Distinct(plan::Project({"year"}, plan::Scan("MOVIES")))});
  cases.push_back(
      {"sort_limit",
       plan::Limit(50, plan::Sort({{"year", /*descending=*/true},
                                   {"title", /*descending=*/false}},
                                  plan::Select(Ge(Col("year"), Lit(int64_t{1990})),
                                               plan::Scan("MOVIES"))))});

  for (const PlanCase& c : cases) {
    NativeRun serial = RunNativePlan(*c.plan, 1);
    EXPECT_NE(serial.trace.find("native."), std::string::npos) << c.name;
    for (size_t threads : {size_t{2}, size_t{8}}) {
      NativeRun parallel = RunNativePlan(*c.plan, threads);
      EXPECT_EQ(parallel.rel.schema(), serial.rel.schema()) << c.name;
      EXPECT_EQ(parallel.rel.rows(), serial.rel.rows())
          << c.name << " threads=" << threads
          << ": rows (or their order) differ from serial";
      EXPECT_EQ(parallel.stats.rows_scanned, serial.stats.rows_scanned)
          << c.name << " threads=" << threads;
      EXPECT_EQ(parallel.stats.tuples_materialized,
                serial.stats.tuples_materialized)
          << c.name << " threads=" << threads;
      EXPECT_EQ(parallel.stats.operator_invocations,
                serial.stats.operator_invocations)
          << c.name << " threads=" << threads;
      EXPECT_EQ(parallel.trace, serial.trace)
          << c.name << " threads=" << threads
          << ": native span tree differs from serial";
    }
  }
}

// ---------------------------------------------------------------------------
// The p-algebra operators, called directly under a forced parallel context:
// selection, the equi and nested-loop join and semijoin probes, the set
// operations' membership probes and the prefer operator's in-place scoring
// pass. As for the native operators, rows and their order must be
// bit-identical at every thread count — and so must every pair (score,
// confidence and match count) and every ExecStats counter.

// A base table as a p-relation whose every third tuple carries a distinct
// pair, so a pair attached to the wrong row shows.
PRelation ScoredTable(const std::string& name, double salt) {
  Table* table = *NativeOpCatalog()->GetTable(name);
  PRelation p(table->Gather());
  for (size_t i = 0; i < p.pairs.size(); i += 3) {
    p.pairs[i] =
        ScoreConf::Known(std::fmod(0.37 * static_cast<double>(i) + salt, 1.0),
                         0.2 + 0.1 * static_cast<double>(i % 7));
  }
  return p;
}

PRelation Selected(const Expr& predicate, const PRelation& input) {
  ExecStats stats;
  auto out = PSelect(predicate, input, &stats);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::move(*out) : PRelation();
}

TEST(POperatorEquivalenceTest, OperatorsBitIdenticalAcrossThreadCounts) {
  using namespace eb;  // NOLINT
  const Catalog* catalog = NativeOpCatalog();
  FSum fsum;
  const PRelation movies = ScoredTable("MOVIES", 0.1);
  const PRelation rescored_movies = ScoredTable("MOVIES", 0.6);
  const PRelation directors = ScoredTable("DIRECTORS", 0.3);
  const PRelation genres = ScoredTable("GENRES", 0.5);
  const PRelation awards = ScoredTable("AWARDS", 0.7);
  const PRelation recent = Selected(*Ge(Col("year"), Lit(int64_t{2000})), movies);
  const PRelation older =
      Selected(*Le(Col("year"), Lit(int64_t{2005})), rescored_movies);
  const PRelation few_directors =
      Selected(*Le(Col("d_id"), Lit(int64_t{20})), directors);
  const PRelation newest = Selected(*Ge(Col("year"), Lit(int64_t{2005})), movies);
  const PRelation first_movies =
      Selected(*Le(Col("m_id"), Lit(int64_t{200})), movies);
  PreferencePtr recency = Preference::Generic(
      "recency", "MOVIES", Ge(Col("year"), Lit(int64_t{2000})),
      ScoringFunction(Fn("recency", [] {
        std::vector<ExprPtr> args;
        args.push_back(Col("year"));
        args.push_back(Lit(int64_t{2011}));
        return args;
      }())),
      0.9);
  PreferencePtr awarded = Preference::Membership(
      "awarded", "MOVIES", MembershipSpec{"AWARDS", "m_id", "m_id"},
      Ge(Col("year"), Lit(int64_t{1990})), ScoringFunction::Constant(1.0), 0.8);

  using Op = std::function<StatusOr<PRelation>(const ParallelContext*,
                                               ExecStats*)>;
  struct OpCase {
    const char* name;
    Op run;
  };
  ExprPtr select_pred = Ge(Col("year"), Lit(int64_t{1990}));
  ExprPtr equi = Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id"));
  ExprPtr residual = And(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                         Ge(Col("year"), Lit(int64_t{2000})));
  ExprPtr theta = Lt(Col("DIRECTORS.d_id"), Col("MOVIES.d_id"));
  ExprPtr semi_equi = Eq(Col("MOVIES.m_id"), Col("GENRES.m_id"));
  ExprPtr semi_theta = Gt(Col("MOVIES.year"), Col("AWARDS.year"));
  std::vector<OpCase> cases = {
      {"select",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return PSelect(*select_pred, movies, stats, ctx);
       }},
      {"hash_join",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return PJoin(*equi, movies, directors, fsum, stats, ctx);
       }},
      {"hash_join_residual",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return PJoin(*residual, movies, genres, fsum, stats, ctx);
       }},
      {"nested_loop_join",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return PJoin(*theta, few_directors, newest, fsum, stats, ctx);
       }},
      {"semi_join",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return PSemiJoin(*semi_equi, movies, genres, stats, ctx);
       }},
      {"nested_loop_semi_join",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return PSemiJoin(*semi_theta, first_movies, awards, stats, ctx);
       }},
      {"union",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return PUnion(recent, older, fsum, stats, ctx);
       }},
      {"intersect",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return PIntersect(recent, older, fsum, stats, ctx);
       }},
      {"except",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return PDiff(recent, older, stats, ctx);
       }},
      {"prefer",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return EvalPrefer(*recency, movies, fsum, catalog, stats, ctx);
       }},
      {"prefer_membership",
       [&](const ParallelContext* ctx, ExecStats* stats) {
         return EvalPrefer(*awarded, movies, fsum, catalog, stats, ctx);
       }},
  };

  for (const OpCase& c : cases) {
    ParallelContext serial_ctx = ForcedContext(1);
    ExecStats serial_stats;
    auto serial = c.run(&serial_ctx, &serial_stats);
    ASSERT_TRUE(serial.ok()) << c.name << ": " << serial.status().ToString();
    EXPECT_GT(serial->NumRows(), 0u) << c.name;
    for (size_t threads : {size_t{2}, size_t{8}}) {
      ParallelContext ctx = ForcedContext(threads);
      ExecStats stats;
      auto parallel = c.run(&ctx, &stats);
      ASSERT_TRUE(parallel.ok()) << c.name << " threads=" << threads;
      EXPECT_EQ(parallel->schema(), serial->schema()) << c.name;
      EXPECT_EQ(parallel->key_columns(), serial->key_columns())
          << c.name;
      EXPECT_EQ(parallel->Gather().rows(), serial->Gather().rows())
          << c.name << " threads=" << threads
          << ": rows (or their order) differ from serial";
      ASSERT_EQ(parallel->pairs.size(), serial->pairs.size()) << c.name;
      for (size_t i = 0; i < serial->pairs.size(); ++i) {
        const ScoreConf& a = parallel->pairs[i];
        const ScoreConf& e = serial->pairs[i];
        EXPECT_TRUE(a == e && a.count() == e.count())
            << c.name << " threads=" << threads << " row " << i << ": "
            << a.ToString() << " vs " << e.ToString();
      }
      EXPECT_EQ(stats.tuples_materialized, serial_stats.tuples_materialized)
          << c.name << " threads=" << threads;
      EXPECT_EQ(stats.rows_scanned, serial_stats.rows_scanned)
          << c.name << " threads=" << threads;
      EXPECT_EQ(stats.engine_queries, serial_stats.engine_queries)
          << c.name << " threads=" << threads;
      EXPECT_EQ(stats.operator_invocations, serial_stats.operator_invocations)
          << c.name << " threads=" << threads;
      EXPECT_EQ(stats.score_entries_written, serial_stats.score_entries_written)
          << c.name << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Strategy-level native-subtree equivalence: whole-query span details
// legitimately differ across thread counts ("morsels=" annotations), but the
// `native.*` spans inside the delegated queries carry only
// scheduling-independent annotations — so their pre-order sequence must be
// identical at every thread count, for every strategy.

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
// recursion reaches it, at every thread count: a second thread runs subtrees
// concurrently but adds, drops or reorders no span. So the pre-order
// sequence of all span names (details aside, and per-morsel slices
// skipped) is the same at threads {1, 2, 8}.
std::string SpanNameSequence(const obs::Span& root) {
  std::string out;
  for (const obs::Span* span : obs::FindSpans(root, "")) {
    if (span->name.rfind("morsel[", 0) == 0) continue;
    out += span->name;
    out += '\n';
  }
  return out;
}

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
        std::string names = SpanNameSequence(*result->trace);
        if (threads == 1) {
          reference = names;
        } else {
          EXPECT_EQ(names, reference)
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
// pure function of the span tree — byte-identical across runs, and at
// TraceLevel::kOperator across thread counts too (the operator tree is
// scheduling-independent, like the untimed ToString above).

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
        EXPECT_EQ(doc.find("morsel["), std::string::npos)
            << "morsel spans at kOperator:\n" << doc;
      } else {
        EXPECT_EQ(doc, reference)
            << "threads=" << threads << " run=" << run
            << ": untimed Chrome export not byte-identical";
      }
    }
  }
}

TEST(ChromeTraceTest, MorselLevelFormatChromeDeterministicSerially) {
  Session* session = SharedImdbSession();
  // The acceptance contract: EXPLAIN ANALYZE ... FORMAT CHROME at
  // TraceLevel::kMorsel is byte-identical across repeated threads=1 runs
  // (one covering morsel in the serial plan, adopted at index 0).
  const std::string sql = "EXPLAIN ANALYZE " + ImdbWorkload()[0].sql +
                          " FORMAT CHROME";
  QueryOptions options;
  options.strategy = StrategyKind::kFtP;
  options.trace_level = obs::TraceLevel::kMorsel;
  options.parallel = ForcedContext(1);
  std::string reference;
  for (int run = 0; run < 3; ++run) {
    auto result = session->Query(sql, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->explain_analyze.empty());
    if (run == 0) {
      reference = result->explain_analyze;
      EXPECT_NE(reference.find("\"traceEvents\": ["), std::string::npos)
          << reference;
      EXPECT_NE(reference.find("morsel[0]"), std::string::npos) << reference;
      // The timed tree is still available alongside the rendering.
      ASSERT_NE(result->trace, nullptr);
      EXPECT_NE(result->trace->ToChromeTrace(/*include_timing=*/true)
                    .find("\"traceEvents\": ["),
                std::string::npos);
    } else {
      EXPECT_EQ(result->explain_analyze, reference)
          << "run " << run << ": FORMAT CHROME not byte-identical";
    }
  }
  // At threads=8 the same query still answers identically (rows are merged
  // in morsel order) and every morsel span carries its range detail.
  options.parallel = ForcedContext(8);
  auto parallel_result = session->Query(sql, options);
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status().ToString();
  EXPECT_NE(parallel_result->explain_analyze.find("morsel["),
            std::string::npos);
  EXPECT_NE(parallel_result->explain_analyze.find("range=["),
            std::string::npos);
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

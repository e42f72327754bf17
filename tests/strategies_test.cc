#include "exec/strategy.h"

#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "obs/metric_names.h"
#include "optimizer/extended_optimizer.h"
#include "test_util.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT
using testing_util::I;
using testing_util::KeyedPairs;
using testing_util::MakeMovieCatalog;
using testing_util::S;
using testing_util::ScoresByKey;

class StrategiesTest : public ::testing::Test {
 protected:
  StrategiesTest()
      : engine_(MakeMovieCatalog()), agg_(**GetAggregateFunction("wsum")) {}

  PRelation Run(StrategyKind kind, const PlanNode& plan) {
    auto strategy = MakeStrategy(kind);
    auto result = strategy->Execute(plan, agg_, &engine_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : PRelation();
  }

  PreferencePtr GenrePref() {
    return Preference::Generic("p_genre", "GENRES",
                               Eq(Col("genre"), Lit("Comedy")),
                               ScoringFunction::Constant(1.0), 0.8);
  }

  PlanPtr SimpleExtendedPlan() {
    // λ_genre(σ_{year >= 2005}(MOVIES ⋈ GENRES)).
    return plan::Prefer(
        GenrePref(),
        plan::Select(Ge(Col("year"), Lit(int64_t{2005})),
                     plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                                plan::Scan("MOVIES"), plan::Scan("GENRES"))));
  }

  Engine engine_;
  const AggregateFunction& agg_;
};

TEST_F(StrategiesTest, NamesAndFactory) {
  EXPECT_EQ(StrategyKindName(StrategyKind::kFtP), "FtP");
  EXPECT_EQ(StrategyKindName(StrategyKind::kGBU), "GBU");
  for (StrategyKind kind :
       {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
        StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined}) {
    auto strategy = MakeStrategy(kind);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), StrategyKindName(kind));
  }
}

TEST_F(StrategiesTest, FtPScoresCorrectTuples) {
  PRelation result = Run(StrategyKind::kFtP, *SimpleExtendedPlan());
  // year >= 2005: m1 (Drama), m2 (Drama), m4 (Thriller), m5 (Comedy).
  EXPECT_EQ(result.NumRows(), 4u);
  EXPECT_EQ(ScoresByKey(result).size(), 1u);
  // Scoop/Comedy got ⟨1.0, 0.8⟩.
  bool found = false;
  for (size_t i = 0; i < result.NumRows(); ++i) {
    if (result.Gather().rows()[i][1] == S("Scoop")) {
      EXPECT_NEAR(result.pairs[i].score(), 1.0, 1e-12);
      EXPECT_NEAR(result.pairs[i].conf(), 0.8, 1e-12);
      found = true;
    } else {
      EXPECT_TRUE(result.pairs[i].IsDefault());
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(StrategiesTest, FtPIssuesSingleEngineQuery) {
  engine_.ResetStats();
  Run(StrategyKind::kFtP, *SimpleExtendedPlan());
  EXPECT_EQ(engine_.stats().engine_queries, 1u);
}

TEST_F(StrategiesTest, GBUGroupsNonPreferenceSubtrees) {
  engine_.ResetStats();
  Run(StrategyKind::kGBU, *SimpleExtendedPlan());
  // One grouped query for σ(⋈) below the prefer; the prefer itself runs in
  // the middle layer (the root here is the prefer).
  EXPECT_EQ(engine_.stats().engine_queries, 1u);
}

TEST_F(StrategiesTest, GBUDropsTemporaryTables) {
  size_t tables_before = engine_.catalog().TableNames().size();
  // Plan with an operator above the prefer forces a temp registration.
  PlanPtr p = plan::Project({"title", "genre"}, SimpleExtendedPlan());
  Run(StrategyKind::kGBU, *p);
  EXPECT_EQ(engine_.catalog().TableNames().size(), tables_before);
}

TEST_F(StrategiesTest, GBUHandlesOperatorsAbovePrefer) {
  PlanPtr p = plan::Project({"title", "genre"}, SimpleExtendedPlan());
  PRelation result = Run(StrategyKind::kGBU, *p);
  EXPECT_EQ(result.NumRows(), 4u);
  EXPECT_EQ(ScoresByKey(result).size(), 1u);
}

TEST_F(StrategiesTest, PlugInBasicIssuesOneQueryPerPreference) {
  PlanPtr two_prefs = plan::Prefer(
      Preference::Generic("p_year", "MOVIES", Ge(Col("year"), Lit(int64_t{2006})),
                          ScoringFunction::Constant(0.5), 0.9),
      SimpleExtendedPlan());
  engine_.ResetStats();
  Run(StrategyKind::kPlugInBasic, *two_prefs);
  // Q_NP + one rewritten query per preference = 3.
  EXPECT_EQ(engine_.stats().engine_queries, 3u);

  engine_.ResetStats();
  Run(StrategyKind::kPlugInCombined, *two_prefs);
  // Q_NP + one disjunctive query = 2.
  EXPECT_EQ(engine_.stats().engine_queries, 2u);
}

TEST_F(StrategiesTest, SetOpsBelowPreferHandledByBUAndGBU) {
  PlanPtr left = plan::Prefer(
      Preference::Generic("p", "MOVIES", Ge(Col("year"), Lit(int64_t{2006})),
                          ScoringFunction::Constant(1.0), 1.0),
      plan::Scan("MOVIES"));
  PlanPtr p = plan::Union(std::move(left), plan::Scan("MOVIES"));

  for (StrategyKind kind : {StrategyKind::kBU, StrategyKind::kGBU}) {
    PRelation result = Run(kind, *p);
    EXPECT_EQ(result.NumRows(), 5u) << StrategyKindName(kind);
    EXPECT_EQ(ScoresByKey(result).size(), 3u) << StrategyKindName(kind);
  }

  // FtP and the plug-ins refuse: tuple origin is lost in the flat result.
  for (StrategyKind kind : {StrategyKind::kFtP, StrategyKind::kPlugInBasic,
                            StrategyKind::kPlugInCombined}) {
    auto strategy = MakeStrategy(kind);
    auto result = strategy->Execute(*p, agg_, &engine_);
    ASSERT_FALSE(result.ok()) << StrategyKindName(kind);
    EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  }
}

// A union that keeps right-only rows copies its rows into a new source, so
// GBU's region result no longer names the temp rows by id and finds their
// pairs by key instead; overlapping rows combine both sides' pairs.
TEST_F(StrategiesTest, GBUUnionWithRightOnlyRowsMatchesBU) {
  auto side = [](const char* name, ExprPtr range, double score) {
    return plan::Prefer(
        Preference::Generic(name, "MOVIES", Ge(Col("year"), Lit(int64_t{2005})),
                            ScoringFunction::Constant(score), 0.9),
        plan::Select(std::move(range), plan::Scan("MOVIES")));
  };
  PlanPtr p = plan::Union(side("p_old", Le(Col("year"), Lit(int64_t{2006})), 0.4),
                          side("p_new", Ge(Col("year"), Lit(int64_t{2004})), 0.8));
  PRelation bu = Run(StrategyKind::kBU, *p);
  PRelation gbu = Run(StrategyKind::kGBU, *p);
  ASSERT_EQ(gbu.NumRows(), bu.NumRows());
  EXPECT_TRUE(gbu.Gather().rows() == bu.Gather().rows());
  size_t scored = 0;
  for (size_t i = 0; i < bu.NumRows(); ++i) {
    EXPECT_EQ(gbu.pairs[i].ToString(), bu.pairs[i].ToString()) << i;
    scored += bu.pairs[i].IsDefault() ? 0 : 1;
  }
  EXPECT_GT(scored, 0u);
}

// GBU registers each prefer subtree as a temp table that is its row-id
// view, and finds each temp row's pair by the ids of the region inputs the
// temp's scan contributed, or by key where those inputs cannot be told
// apart from others. These plans put other inputs over the same base rows
// next to a temp; GBU must match BU bit for bit (rows, order, score, conf)
// at every thread count.
class GBUViewTempTest : public StrategiesTest {
 protected:
  static PlanPtr PreferOn(const char* name, const char* year_column,
                          int64_t since, double score, PlanPtr input) {
    return plan::Prefer(
        Preference::Generic(name, "MOVIES", Ge(Col(year_column), Lit(since)),
                            ScoringFunction::Constant(score), 0.9),
        std::move(input));
  }

  // Runs `plan` under GBU and BU at threads {1, 2, 8} and compares them.
  void ExpectGbuMatchesBu(const PlanNode& plan) {
    for (size_t threads : {1, 2, 8}) {
      ParallelContext ctx;
      ctx.threads = threads;
      engine_.set_parallel_context(ctx);
      PRelation bu = Run(StrategyKind::kBU, plan);
      PRelation gbu = Run(StrategyKind::kGBU, plan);
      ASSERT_EQ(gbu.NumRows(), bu.NumRows()) << threads;
      EXPECT_TRUE(gbu.Gather().rows() == bu.Gather().rows()) << threads;
      size_t scored = 0;
      for (size_t i = 0; i < bu.NumRows(); ++i) {
        EXPECT_EQ(gbu.pairs[i].ToString(), bu.pairs[i].ToString())
            << "row " << i << ", threads " << threads;
        scored += bu.pairs[i].IsDefault() ? 0 : 1;
      }
      EXPECT_GT(scored, 0u) << threads;
    }
    engine_.set_parallel_context(ParallelContext{});
  }

  // The timing-free GBU trace of `plan`.
  std::string GbuTrace(const PlanNode& plan) {
    obs::SpanPtr root = obs::Span::Detached("root");
    ExecStats stats;
    auto result = MakeStrategy(StrategyKind::kGBU)
                      ->ExecuteWithStats(plan, agg_, &engine_, &stats, root.get());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return root->ToString(/*include_timing=*/false);
  }
};

// Two preferred subtrees over MOVIES, aliased A and B: both temps are views
// over the same rows (A filtered, B the identity), so both find their pairs
// by key.
TEST_F(GBUViewTempTest, AliasedSelfJoinOfPreferredSubtrees) {
  PlanPtr p = plan::Join(
      Eq(Col("A.d_id"), Col("B.d_id")),
      PreferOn("p_a", "year", 2005, 0.4,
               plan::Select(Ne(Col("title"), Lit("Match Point")),
                            plan::Scan("MOVIES", "A"))),
      PreferOn("p_b", "year", 2008, 0.8, plan::Scan("MOVIES", "B")));
  ExpectGbuMatchesBu(*p);
}

// A region that also scans the temp's base table directly: the direct
// scan reads the same rows as the temp but contributes no pairs.
TEST_F(GBUViewTempTest, RegionScanningTheTempsBaseTable) {
  PlanPtr p = plan::Join(Eq(Col("MOVIES.d_id"), Col("M2.d_id")),
                         PreferOn("p_new", "year", 2006, 0.7, plan::Scan("MOVIES")),
                         plan::Scan("MOVIES", "M2"));
  ExpectGbuMatchesBu(*p);
}

// A union keeps the left input's ids when the right adds no rows, so the
// region output reads MOVIES through the direct scan only; the temp on the
// right must not take that scan's ids for its own.
TEST_F(GBUViewTempTest, UnionDroppingTheTempsInputs) {
  PlanPtr p = plan::Union(
      plan::Scan("MOVIES"),
      PreferOn("p_new", "year", 2000, 0.7,
               plan::Select(Ge(Col("year"), Lit(int64_t{2006})), plan::Scan("MOVIES"))));
  ExpectGbuMatchesBu(*p);
}

// An equality selection directly over a temp's scan filters the temp's
// view in place: the scan is no index scan (a temp has no indexes).
TEST_F(GBUViewTempTest, EqualitySelectionOverATempFiltersItsView) {
  PlanPtr p = plan::Join(
      Eq(Col("A.d_id"), Col("B.d_id")),
      plan::Select(Eq(Col("A.d_id"), Lit(int64_t{2})),
                   PreferOn("p_a", "A.year", 2006, 0.4, plan::Scan("MOVIES", "A"))),
      PreferOn("p_b", "B.year", 2005, 0.8, plan::Scan("MOVIES", "B")));
  ExpectGbuMatchesBu(*p);
  std::string trace = GbuTrace(*p);
  // A's temp (five rows, two with d_id = 2) is filtered by the scan itself.
  EXPECT_NE(trace.find("native.scan  (rows=5 -> 2 table=<temp>)"), std::string::npos)
      << trace;
  size_t temp_scans = 0;
  for (size_t at = trace.find("table=<temp>"); at != std::string::npos;
       at = trace.find("table=<temp>", at + 1)) {
    ++temp_scans;
    const size_t line_end = trace.find('\n', at);
    EXPECT_EQ(trace.substr(at, line_end - at).find("index"), std::string::npos)
        << trace;
  }
  EXPECT_EQ(temp_scans, 2u) << trace;
}

// Nested regions: the outer region's temp is the view of an inner region's
// join, several inputs wide. Over MOVIES ⋈ GENRES one input (GENRES) names
// each temp row; over the self-join on d_id the inputs share MOVIES's rows
// and repeat ids, and the pairs are found by key.
TEST_F(GBUViewTempTest, NestedRegionOverMultiInputTemp) {
  auto outer = [this](PlanPtr inner) {
    return plan::Join(
        Eq(Col("DIRECTORS.d_id"), Col("MOVIES.d_id")),
        plan::Prefer(Preference::Generic("p_dir", "DIRECTORS",
                                         Eq(Col("director"), Lit("W. Allen")),
                                         ScoringFunction::Constant(0.6), 0.5),
                     plan::Scan("DIRECTORS")),
        plan::Prefer(GenrePref(), std::move(inner)));
  };
  ExpectGbuMatchesBu(*outer(plan::Join(
      Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
      PreferOn("p_year", "year", 2005, 0.3, plan::Scan("MOVIES")),
      plan::Scan("GENRES"))));
  ExpectGbuMatchesBu(*outer(plan::Join(
      Eq(Col("MOVIES.d_id"), Col("M2.d_id")),
      PreferOn("p_year", "MOVIES.year", 2005, 0.3, plan::Scan("MOVIES")),
      plan::Join(Eq(Col("M2.m_id"), Col("GENRES.m_id")), plan::Scan("MOVIES", "M2"),
                 plan::Scan("GENRES")))));
}

// A temp that is a whole base table keeps the table's identity view, so a
// region join building on it probes the table's persistent index.
TEST_F(GBUViewTempTest, BuildOverIdentityTempProbesTheBaseTableIndex) {
  PlanPtr p = plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                         PreferOn("p_new", "year", 2006, 0.7, plan::Scan("MOVIES")),
                         plan::Prefer(GenrePref(), plan::Scan("GENRES")));
  obs::Counter* hits = engine_.metrics().counter(obs::kPrefNativeJoinIndexHits);
  const uint64_t before = hits->value();
  std::string trace = GbuTrace(*p);
  EXPECT_NE(trace.find("RegisterTemp  (rows=6 -> 6 view base=GENRES)"),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("native.join.build  (rows=6 -> 5 index dense)"), std::string::npos)
      << trace;
  EXPECT_EQ(hits->value() - before, 1u);
  ExpectGbuMatchesBu(*p);
}

TEST_F(StrategiesTest, MembershipPreferenceAcrossStrategies) {
  PlanPtr p = plan::Prefer(
      Preference::Membership("p7", "MOVIES",
                             MembershipSpec{"AWARDS", "m_id", "m_id"}, True(),
                             ScoringFunction::Constant(1.0), 0.9),
      plan::Scan("MOVIES"));
  for (StrategyKind kind :
       {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
        StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined}) {
    PRelation result = Run(kind, *p);
    EXPECT_EQ(result.NumRows(), 5u) << StrategyKindName(kind);
    ASSERT_EQ(ScoresByKey(result).size(), 1u) << StrategyKindName(kind);
    EXPECT_NEAR(ScoresByKey(result).Lookup({I(3)}).conf(), 0.9, 1e-12)
        << StrategyKindName(kind);
  }
}

// Membership is the SQL `=` of the plug-ins' semijoin: a NULL local key has
// no member even when the member relation holds a NULL key, so every
// strategy leaves that tuple at the default pair.
TEST(MembershipNullTest, NullLocalKeyHasNoMemberInAnyStrategy) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("MOVIES",
                               Schema({{"", "m_id", ValueType::kInt},
                                       {"", "title", ValueType::kString}}),
                               {{I(1), S("a")}, {testing_util::N(), S("b")}, {I(3), S("c")}},
                               {"title"})
                  .ok());
  ASSERT_TRUE(catalog
                  .CreateTable("AWARDS",
                               Schema({{"", "m_id", ValueType::kInt},
                                       {"", "award", ValueType::kString}}),
                               {{I(1), S("x")}, {testing_util::N(), S("y")}}, {"award"})
                  .ok());
  Engine engine(std::move(catalog));
  const AggregateFunction& agg = **GetAggregateFunction("wsum");
  PlanPtr p = plan::Prefer(
      Preference::Membership("p_award", "MOVIES",
                             MembershipSpec{"AWARDS", "m_id", "m_id"}, True(),
                             ScoringFunction::Constant(1.0), 0.9),
      plan::Scan("MOVIES"));
  for (StrategyKind kind :
       {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
        StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined}) {
    auto result = MakeStrategy(kind)->Execute(*p, agg, &engine);
    ASSERT_TRUE(result.ok()) << StrategyKindName(kind) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->NumRows(), 3u) << StrategyKindName(kind);
    KeyedPairs scores = ScoresByKey(*result);
    const ScoreConf& a = scores.Lookup({S("a")});
    EXPECT_TRUE(a.has_score()) << StrategyKindName(kind);
    EXPECT_DOUBLE_EQ(a.score(), 1.0) << StrategyKindName(kind);
    EXPECT_DOUBLE_EQ(a.conf(), 0.9) << StrategyKindName(kind);
    EXPECT_TRUE(scores.Lookup({S("b")}).IsDefault()) << StrategyKindName(kind);
    EXPECT_TRUE(scores.Lookup({S("c")}).IsDefault()) << StrategyKindName(kind);
  }
}

TEST_F(StrategiesTest, MultiRelationalPreferenceAcrossStrategies) {
  PreferencePtr multi = Preference::MultiRelational(
      "p6", {"MOVIES", "GENRES"},
      And(Eq(Col("genre"), Lit("Drama")), Ge(Col("year"), Lit(int64_t{2008}))),
      ScoringFunction::Constant(0.7), 0.8);
  PlanPtr p = plan::Prefer(
      multi, plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                        plan::Scan("MOVIES"), plan::Scan("GENRES")));
  for (StrategyKind kind :
       {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
        StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined}) {
    PRelation result = Run(kind, *p);
    // Dramas from >= 2008: m1 and m2.
    EXPECT_EQ(ScoresByKey(result).size(), 2u) << StrategyKindName(kind);
  }
}

}  // namespace
}  // namespace prefdb

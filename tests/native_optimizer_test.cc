#include "engine/native_optimizer.h"

#include "engine/executor.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT
using testing_util::ExpectSameRows;
using testing_util::MakeMovieCatalog;

class NativeOptimizerTest : public ::testing::Test {
 protected:
  NativeOptimizerTest() : catalog_(MakeMovieCatalog()) {}

  // Differential check: the optimized plan must return exactly the rows of
  // the original plan.
  void ExpectEquivalent(const PlanNode& original) {
    auto optimized = NativeOptimize(original, catalog_);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    ExecStats s1;
    ExecStats s2;
    auto v1 = ExecutePlan(original, &catalog_, &s1);
    auto v2 = ExecutePlan(*optimized->plan, &catalog_, &s2);
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    ASSERT_TRUE(v2.ok()) << v2.status().ToString();
    Relation r1 = v1->Gather();
    Relation r2 = v2->Gather();
    EXPECT_EQ(r1.schema(), r2.schema())
        << "optimized:\n" << optimized->plan->ToString();
    EXPECT_EQ(r1.key_columns(), r2.key_columns());
    ExpectSameRows(r2, r1);
  }

  Catalog catalog_;
};

PlanPtr ThreeWayJoin() {
  // ((MOVIES ⋈ GENRES) ⋈ DIRECTORS) with a selection on top.
  return plan::Select(
      Ge(Col("year"), Lit(int64_t{2005})),
      plan::Join(Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
                 plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                            plan::Scan("MOVIES"), plan::Scan("GENRES")),
                 plan::Scan("DIRECTORS")));
}

TEST_F(NativeOptimizerTest, RejectsExtendedPlans) {
  PreferencePtr pref = Preference::Generic(
      "p", "GENRES", Eq(Col("genre"), Lit("Comedy")),
      ScoringFunction::Constant(1.0), 0.8);
  PlanPtr p = plan::Prefer(pref, plan::Scan("GENRES"));
  EXPECT_FALSE(NativeOptimize(*p, catalog_).ok());
}

TEST_F(NativeOptimizerTest, PushesSelectionOntoScan) {
  PlanPtr p = plan::Select(
      Ge(Col("year"), Lit(int64_t{2005})),
      plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                 plan::Scan("MOVIES"), plan::Scan("GENRES")));
  auto optimized = NativeOptimize(*p, catalog_);
  ASSERT_TRUE(optimized.ok());
  std::string plan_str = optimized->plan->ToString();
  // The year predicate must sit directly on the MOVIES scan.
  size_t select_pos = plan_str.find("Select[year >= 2005]");
  size_t scan_pos = plan_str.find("Scan[MOVIES]");
  ASSERT_NE(select_pos, std::string::npos) << plan_str;
  ASSERT_NE(scan_pos, std::string::npos) << plan_str;
  EXPECT_LT(select_pos, scan_pos);
  ExpectEquivalent(*p);
}

TEST_F(NativeOptimizerTest, ReportsJoinOrder) {
  PlanPtr p = ThreeWayJoin();
  auto optimized = NativeOptimize(*p, catalog_);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(optimized->join_order.size(), 3u);
  // DIRECTORS (3 rows) is the smallest unit and should lead.
  EXPECT_EQ(optimized->join_order[0], "DIRECTORS");
}

TEST_F(NativeOptimizerTest, ReorderedJoinPreservesResults) {
  ExpectEquivalent(*ThreeWayJoin());
}

TEST_F(NativeOptimizerTest, RestoresOriginalSchemaAfterReorder) {
  PlanPtr p = ThreeWayJoin();
  auto original_shape = DerivePlanShape(*p, catalog_);
  auto optimized = NativeOptimize(*p, catalog_);
  ASSERT_TRUE(optimized.ok());
  auto new_shape = DerivePlanShape(*optimized->plan, catalog_);
  ASSERT_TRUE(new_shape.ok());
  EXPECT_EQ(new_shape->schema, original_shape->schema);
  EXPECT_EQ(new_shape->key_columns, original_shape->key_columns);
}

TEST_F(NativeOptimizerTest, HandlesCrossJoin) {
  // No connecting predicate at all: pure cross product must survive.
  PlanPtr p = plan::Join(Lit(int64_t{1}), plan::Scan("DIRECTORS"),
                         plan::Scan("AWARDS"));
  ExpectEquivalent(*p);
}

TEST_F(NativeOptimizerTest, CrossPredicateFoldedIntoJoin) {
  // Selection references both sides: becomes the join condition.
  PlanPtr p = plan::Select(
      Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
      plan::Join(Lit(int64_t{1}), plan::Scan("MOVIES"), plan::Scan("DIRECTORS")));
  auto optimized = NativeOptimize(*p, catalog_);
  ASSERT_TRUE(optimized.ok());
  ExecStats stats;
  auto rel = ExecutePlan(*optimized->plan, &catalog_, &stats);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 5u);
}

TEST_F(NativeOptimizerTest, OptimizesBeneathSetOps) {
  PlanPtr left = plan::Select(
      Ge(Col("year"), Lit(int64_t{2006})),
      plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                 plan::Scan("MOVIES"), plan::Scan("GENRES")));
  PlanPtr right = plan::Select(
      Eq(Col("genre"), Lit("Drama")),
      plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                 plan::Scan("MOVIES"), plan::Scan("GENRES")));
  PlanPtr p = plan::Union(std::move(left), std::move(right));
  ExpectEquivalent(*p);
}

TEST_F(NativeOptimizerTest, SemiJoinTreatedAsUnit) {
  PlanPtr p = plan::SemiJoin(Eq(Col("MOVIES.m_id"), Col("AWARDS.m_id")),
                             plan::Scan("MOVIES"), plan::Scan("AWARDS"));
  ExpectEquivalent(*p);
}

TEST_F(NativeOptimizerTest, UnboundPredicateIsRejected) {
  PlanPtr p = plan::Select(Eq(Col("no_such"), Lit(int64_t{1})),
                           plan::Scan("MOVIES"));
  EXPECT_FALSE(NativeOptimize(*p, catalog_).ok());
}

TEST_F(NativeOptimizerTest, FourWayJoinEquivalence) {
  PlanPtr p = plan::Select(
      Gt(Col("votes"), Lit(int64_t{100000})),
      plan::Join(
          Eq(Col("MOVIES.m_id"), Col("RATINGS.m_id")),
          plan::Join(Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
                     plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                                plan::Scan("MOVIES"), plan::Scan("GENRES")),
                     plan::Scan("DIRECTORS")),
          plan::Scan("RATINGS")));
  ExpectEquivalent(*p);
}

// Filters over a Project sink through it into the join cluster under it
// (the plug-ins' rewrite queries). `Optimized` renders the native plan.
class FilterSinkTest : public NativeOptimizerTest {
 protected:
  std::string Optimized(const PlanNode& plan) {
    auto optimized = NativeOptimize(plan, catalog_);
    EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();
    ExpectEquivalent(plan);
    return optimized.ok() ? optimized->plan->ToString() : "";
  }
};

// MOVIES ⋈ GENRES under a projection: Q_NP's shape.
PlanPtr MoviesGenres(std::vector<std::string> columns) {
  return plan::Project(std::move(columns),
                       plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                                  plan::Scan("MOVIES"), plan::Scan("GENRES")));
}

TEST_F(FilterSinkTest, SelectOverProjectSinksOntoItsScan) {
  // The filtered GENRES is now the smaller unit, so it leads the join.
  PlanPtr p = plan::Select(Eq(Col("genre"), Lit("Drama")),
                           MoviesGenres({"title", "genre"}));
  EXPECT_EQ(Optimized(*p),
            "Project[title, genre]\n"
            "  Project[MOVIES.m_id, MOVIES.title, MOVIES.year, MOVIES.duration, "
            "MOVIES.d_id, GENRES.m_id, GENRES.genre]\n"
            "    Join[MOVIES.m_id = GENRES.m_id]\n"
            "      Select[genre = 'Drama']\n"
            "        Scan[GENRES]\n"
            "      Scan[MOVIES]\n");
}

TEST_F(FilterSinkTest, MixedConjunctionSinksOnlyItsBindingHalf) {
  // Above the projection `year` is MOVIES.year; below it, MOVIES.year and
  // AWARDS.year are both in scope, so that conjunct stays above.
  PlanPtr p = plan::Select(
      And(Ge(Col("year"), Lit(int64_t{2004})), Eq(Col("award"), Lit("Oscar"))),
      plan::Project({"title", "MOVIES.year", "award"},
                    plan::Join(Eq(Col("MOVIES.m_id"), Col("AWARDS.m_id")),
                               plan::Scan("MOVIES"), plan::Scan("AWARDS"))));
  EXPECT_EQ(Optimized(*p),
            "Select[year >= 2004]\n"
            "  Project[title, MOVIES.year, award]\n"
            "    Project[MOVIES.m_id, MOVIES.title, MOVIES.year, MOVIES.duration, "
            "MOVIES.d_id, AWARDS.m_id, AWARDS.award, AWARDS.year]\n"
            "      Join[MOVIES.m_id = AWARDS.m_id]\n"
            "        Select[award = 'Oscar']\n"
            "          Scan[AWARDS]\n"
            "        Scan[MOVIES]\n");
}

TEST_F(FilterSinkTest, NameAmbiguousBelowTheProjectStaysAbove) {
  // `year` is AWARDS.year above the projection. Sinking it would push it
  // onto MOVIES, the first unit where it binds, and lose Million Dollar
  // Baby (MOVIES.year 2004, AWARDS.year 2005).
  PlanPtr p = plan::Select(
      Ge(Col("year"), Lit(int64_t{2005})),
      plan::Project({"title", "AWARDS.year"},
                    plan::Join(Eq(Col("MOVIES.m_id"), Col("AWARDS.m_id")),
                               plan::Scan("MOVIES"), plan::Scan("AWARDS"))));
  const std::string optimized = Optimized(*p);
  EXPECT_EQ(optimized.rfind("Select[year >= 2005]\n  Project[title, AWARDS.year]\n", 0), 0u)
      << optimized;
  EXPECT_EQ(optimized.find("Select", 1), std::string::npos) << optimized;
  ExecStats stats;
  auto rows = ExecutePlan(*NativeOptimize(*p, catalog_)->plan, &catalog_, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->NumRows(), 1u);
}

TEST_F(FilterSinkTest, ConstantTrueIsDropped) {
  PlanPtr p = plan::Select(And(Lit(int64_t{1}), Ge(Col("year"), Lit(int64_t{2006}))),
                           plan::Select(Lit(int64_t{1}), plan::Scan("MOVIES")));
  EXPECT_EQ(Optimized(*p), "Select[year >= 2006]\n  Scan[MOVIES]\n");
  // A membership preference's `(true)` condition over Q_NP leaves nothing.
  p = plan::Select(Lit(int64_t{1}), MoviesGenres({"title", "genre"}));
  EXPECT_EQ(Optimized(*p),
            "Project[title, genre]\n"
            "  Join[MOVIES.m_id = GENRES.m_id]\n"
            "    Scan[MOVIES]\n"
            "    Scan[GENRES]\n");
}

TEST_F(FilterSinkTest, ConjunctsOnOneUnitMakeOneSelect) {
  PlanPtr p = plan::Select(
      And(Ge(Col("duration"), Lit(int64_t{100})), Le(Col("duration"), Lit(int64_t{130}))),
      plan::Project({"title", "duration", "genre"},
                    plan::Select(Ge(Col("year"), Lit(int64_t{2004})),
                                 plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                                            plan::Scan("MOVIES"), plan::Scan("GENRES")))));
  EXPECT_EQ(Optimized(*p),
            "Project[title, duration, genre]\n"
            "  Join[MOVIES.m_id = GENRES.m_id]\n"
            "    Select[((year >= 2004 AND duration >= 100) AND duration <= 130)]\n"
            "      Scan[MOVIES]\n"
            "    Scan[GENRES]\n");
}

TEST_F(FilterSinkTest, SemiJoinSitsOnTheFirstUnit) {
  // MOVIES (one row after its filter) leads: the semi-join filters it
  // before any join.
  PlanPtr p = plan::SemiJoin(
      Eq(Col("MOVIES.m_id"), Col("AWARDS.m_id")),
      plan::Select(Lit(int64_t{1}),
                   plan::Project({"title", "genre"},
                                 plan::Select(Eq(Col("MOVIES.m_id"), Lit(int64_t{3})),
                                              plan::Join(Eq(Col("MOVIES.m_id"),
                                                            Col("GENRES.m_id")),
                                                         plan::Scan("MOVIES"),
                                                         plan::Scan("GENRES"))))),
      plan::Scan("AWARDS"));
  EXPECT_EQ(Optimized(*p),
            "Project[title, genre]\n"
            "  Join[MOVIES.m_id = GENRES.m_id]\n"
            "    SemiJoin[MOVIES.m_id = AWARDS.m_id]\n"
            "      Select[MOVIES.m_id = 3]\n"
            "        Scan[MOVIES]\n"
            "      Scan[AWARDS]\n"
            "    Scan[GENRES]\n");
}

TEST_F(FilterSinkTest, SemiJoinOnABuildSideGoesAboveItsJoin) {
  // DBLP-3's shape: the semi-join's local column is on the unit the join
  // builds on (MOVIES, after the smaller DIRECTORS). It goes right above
  // that join, never under the build side, whose scan probes the table's
  // persistent index only while it is a bare scan.
  PlanPtr p = plan::SemiJoin(
      Eq(Col("MOVIES.m_id"), Col("AWARDS.m_id")),
      plan::Project({"title", "director"},
                    plan::Join(Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
                               plan::Scan("MOVIES"), plan::Scan("DIRECTORS"))),
      plan::Scan("AWARDS"));
  EXPECT_EQ(Optimized(*p),
            "Project[title, director]\n"
            "  Project[MOVIES.m_id, MOVIES.title, MOVIES.year, MOVIES.duration, "
            "MOVIES.d_id, DIRECTORS.d_id, DIRECTORS.director]\n"
            "    SemiJoin[MOVIES.m_id = AWARDS.m_id]\n"
            "      Join[MOVIES.d_id = DIRECTORS.d_id]\n"
            "        Scan[DIRECTORS]\n"
            "        Scan[MOVIES]\n"
            "      Scan[AWARDS]\n");
}

TEST_F(FilterSinkTest, SemiJoinOverSeveralUnitsStaysAbove) {
  // No one unit holds its local columns.
  PlanPtr p = plan::SemiJoin(
      And(Eq(Col("MOVIES.m_id"), Col("AWARDS.m_id")), Eq(Col("genre"), Col("award"))),
      MoviesGenres({"title", "genre"}), plan::Scan("AWARDS"));
  const std::string optimized = Optimized(*p);
  EXPECT_EQ(optimized.rfind("SemiJoin[", 0), 0u) << optimized;
  EXPECT_EQ(optimized.find("SemiJoin", 1), std::string::npos) << optimized;
}

}  // namespace
}  // namespace prefdb

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

}  // namespace
}  // namespace prefdb

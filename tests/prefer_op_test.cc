// Tests for the prefer operator λ_{p,F} (paper §IV-C), including the
// paper's Example 8 evaluated end to end with exact expected numbers.

#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "palgebra/p_ops.h"
#include "test_util.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT
using testing_util::I;
using testing_util::MakeMovieCatalog;
using testing_util::S;
using testing_util::ScoresByKey;

class PreferOpTest : public ::testing::Test {
 protected:
  PreferOpTest() : catalog_(MakeMovieCatalog()) {}

  PRelation Movies() { return PRelation((*catalog_.GetTable("MOVIES"))->Gather()); }
  PRelation Genres() { return PRelation((*catalog_.GetTable("GENRES"))->Gather()); }

  static std::vector<ExprPtr> Args(ExprPtr a, ExprPtr b) {
    std::vector<ExprPtr> v;
    v.push_back(std::move(a));
    v.push_back(std::move(b));
    return v;
  }

  Catalog catalog_;
  ExecStats stats_;
  FSum fsum_;
};

TEST_F(PreferOpTest, Example8PaAssignsRecencyScores) {
  // Paper Example 8: p_a[MOVIES] = (σ_{year >= 2000}, S_m(year, 2011), 1).
  PreferencePtr pa = Preference::Generic(
      "pa", "MOVIES", Ge(Col("year"), Lit(int64_t{2000})),
      ScoringFunction(Fn("recency", Args(Col("year"), Lit(int64_t{2011})))), 1.0);
  auto out = EvalPrefer(*pa, Movies(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  // Every movie is from >= 2000, so all five are scored S_m = year/2011.
  EXPECT_EQ(ScoresByKey(*out).size(), 5u);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1)}).score(), 2008.0 / 2011.0, 1e-12);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1)}).conf(), 1.0, 1e-12);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(3)}).score(), 2004.0 / 2011.0, 1e-12);
}

TEST_F(PreferOpTest, Example8PbStacksOnPa) {
  // λ_pb(λ_pa(MOVIES)) with p_b = (σ_{duration <= 120}, S_d(duration,120), 0.5).
  PreferencePtr pa = Preference::Generic(
      "pa", "MOVIES", Ge(Col("year"), Lit(int64_t{2000})),
      ScoringFunction(Fn("recency", Args(Col("year"), Lit(int64_t{2011})))), 1.0);
  PreferencePtr pb = Preference::Generic(
      "pb", "MOVIES", Le(Col("duration"), Lit(int64_t{120})),
      ScoringFunction(Fn("around", Args(Col("duration"), Lit(int64_t{120})))), 0.5);
  auto after_pa = EvalPrefer(*pa, Movies(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(after_pa.ok());
  auto out = EvalPrefer(*pb, *after_pa, fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());

  // Gran Torino (m1): year 2008, duration 116 <= 120 — both apply.
  // F_S(⟨2008/2011, 1⟩, ⟨1 - 4/120, 0.5⟩):
  double s_pa = 2008.0 / 2011.0;
  double s_pb = 1.0 - 4.0 / 120.0;
  double expected_score = (1.0 * s_pa + 0.5 * s_pb) / 1.5;
  ScoreConf m1 = ScoresByKey(*out).Lookup({I(1)});
  EXPECT_NEAR(m1.score(), expected_score, 1e-12);
  EXPECT_NEAR(m1.conf(), 1.5, 1e-12);

  // Wall Street (m2): 133 min — only p_a applies.
  ScoreConf m2 = ScoresByKey(*out).Lookup({I(2)});
  EXPECT_NEAR(m2.score(), 2010.0 / 2011.0, 1e-12);
  EXPECT_NEAR(m2.conf(), 1.0, 1e-12);
}

TEST_F(PreferOpTest, ConditionalNeverFiltersTuples) {
  // The central model point: λ scores, σ filters. Cardinality is invariant.
  PreferencePtr p = Preference::Generic(
      "p", "GENRES", Eq(Col("genre"), Lit("Comedy")),
      ScoringFunction::Constant(1.0), 0.8);
  PRelation genres = Genres();
  size_t before = genres.NumRows();
  auto out = EvalPrefer(*p, genres, fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), before);
  EXPECT_EQ(ScoresByKey(*out).size(), 1u);  // Only (m5, Comedy) scored.
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(5), S("Comedy")}).score(), 1.0, 1e-12);
}

TEST_F(PreferOpTest, AtomicPreferenceScoresExactlyOneTuple) {
  // Paper p_1: Alice rated Million Dollar Baby 8/10 — ⟨0.8, 1⟩ on m3.
  PreferencePtr p1 = Preference::Atomic("MOVIES", "m_id", Value::Int(3), 0.8);
  auto out = EvalPrefer(*p1, Movies(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(ScoresByKey(*out).size(), 1u);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(3)}).score(), 0.8, 1e-12);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(3)}).conf(), 1.0, 1e-12);
}

TEST_F(PreferOpTest, NullScoringAttributeContributesNothing) {
  // A preference whose scoring yields ⊥ for a tuple leaves it untouched.
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("T",
                               Schema({{"", "id", ValueType::kInt},
                                       {"", "x", ValueType::kInt}}),
                               {{I(1), I(10)}, {I(2), testing_util::N()}},
                               {"id"})
                  .ok());
  PreferencePtr p = Preference::Generic("p", "T", True(),
                                        ScoringFunction(Col("x")), 0.9);
  PRelation input((*catalog.GetTable("T"))->Gather());
  ExecStats stats;
  auto out = EvalPrefer(*p, input, FSum(), &catalog, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(ScoresByKey(*out).size(), 1u);
  EXPECT_TRUE(ScoresByKey(*out).Lookup({I(2)}).IsDefault());
}

TEST_F(PreferOpTest, MembershipPreferenceScoresJoinPartners) {
  // Paper p_7: award-winning movies preferred; m3 has the only award.
  PreferencePtr p7 = Preference::Membership(
      "p7", "MOVIES", MembershipSpec{"AWARDS", "m_id", "m_id"}, True(),
      ScoringFunction::Constant(1.0), 0.9);
  auto out = EvalPrefer(*p7, Movies(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 5u);  // Nothing filtered.
  EXPECT_EQ(ScoresByKey(*out).size(), 1u);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(3)}).score(), 1.0, 1e-12);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(3)}).conf(), 0.9, 1e-12);
}

TEST_F(PreferOpTest, MembershipWithExtraCondition) {
  PreferencePtr p = Preference::Membership(
      "p", "MOVIES", MembershipSpec{"AWARDS", "m_id", "m_id"},
      Ge(Col("year"), Lit(int64_t{2010})), ScoringFunction::Constant(1.0), 0.9);
  auto out = EvalPrefer(*p, Movies(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  // m3 is 2004, fails the extra condition: nothing scored.
  EXPECT_EQ(ScoresByKey(*out).size(), 0u);
}

TEST_F(PreferOpTest, MembershipRequiresCatalog) {
  PreferencePtr p7 = Preference::Membership(
      "p7", "MOVIES", MembershipSpec{"AWARDS", "m_id", "m_id"}, True(),
      ScoringFunction::Constant(1.0), 0.9);
  auto out = EvalPrefer(*p7, Movies(), fsum_, /*catalog=*/nullptr, &stats_);
  EXPECT_FALSE(out.ok());
}

TEST_F(PreferOpTest, UnboundPreferenceIsAnError) {
  PreferencePtr p = Preference::Generic(
      "p", "GENRES", Eq(Col("genre"), Lit("Comedy")),
      ScoringFunction::Constant(1.0), 0.8);
  auto out = EvalPrefer(*p, Movies(), fsum_, &catalog_, &stats_);
  EXPECT_FALSE(out.ok());  // MOVIES has no `genre` column.
}

TEST_F(PreferOpTest, MaxConfAggregateKeepsStrongestEvidence) {
  FMaxConf fmax;
  PreferencePtr strong = Preference::Generic(
      "strong", "MOVIES", True(), ScoringFunction::Constant(0.3), 0.9);
  PreferencePtr weak = Preference::Generic(
      "weak", "MOVIES", True(), ScoringFunction::Constant(1.0), 0.4);
  auto first = EvalPrefer(*weak, Movies(), fmax, &catalog_, &stats_);
  ASSERT_TRUE(first.ok());
  auto out = EvalPrefer(*strong, *first, fmax, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1)}).score(), 0.3, 1e-12);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1)}).conf(), 0.9, 1e-12);
}

TEST_F(PreferOpTest, KeylessRelationScoresEachTuple) {
  // Without key columns every row used to share the empty key, so one match
  // scored every row. Row-aligned pairs give each tuple its own pair.
  Relation rel(Schema({{"T", "x", ValueType::kInt}}));
  rel.AddRow({I(1)});
  rel.AddRow({I(2)});
  PreferencePtr p = Preference::Generic("p", "T", Eq(Col("x"), Lit(int64_t{1})),
                                        ScoringFunction::Constant(0.7), 0.9);
  auto out = EvalPrefer(*p, PRelation(std::move(rel)), fsum_, nullptr, &stats_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->pairs.size(), 2u);
  EXPECT_NEAR(out->pairs[0].score(), 0.7, 1e-12);
  EXPECT_NEAR(out->pairs[0].conf(), 0.9, 1e-12);
  EXPECT_TRUE(out->pairs[1].IsDefault());
  EXPECT_EQ(out->pairs[1].conf(), 0.0);
}

}  // namespace
}  // namespace prefdb

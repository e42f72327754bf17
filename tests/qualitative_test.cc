#include "prefs/qualitative.h"

#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "palgebra/p_ops.h"
#include "test_util.h"

namespace prefdb {
namespace {

using testing_util::I;
using testing_util::MakeMovieCatalog;
using testing_util::S;
using testing_util::ScoresByKey;

class QualitativeTest : public ::testing::Test {
 protected:
  QualitativeTest() : catalog_(MakeMovieCatalog()) {}

  PRelation Genres() {
    return PRelation((*catalog_.GetTable("GENRES"))->Gather());
  }
  PRelation Movies() {
    return PRelation((*catalog_.GetTable("MOVIES"))->Gather());
  }

  ScoreConf Eval(const PreferencePtr& pref, const PRelation& input,
                 Tuple key) {
    auto out = EvalPrefer(*pref, input, fsum_, &catalog_, &stats_);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? ScoresByKey(*out).Lookup(key) : ScoreConf();
  }

  Catalog catalog_;
  ExecStats stats_;
  FSum fsum_;
};

TEST_F(QualitativeTest, LikeScoresOne) {
  PreferencePtr like =
      qualitative::Like("GENRES", "genre", Value::String("Comedy"), 0.8);
  ScoreConf pair = Eval(like, Genres(), {I(5), S("Comedy")});
  EXPECT_NEAR(pair.score(), 1.0, 1e-12);
  EXPECT_NEAR(pair.conf(), 0.8, 1e-12);
  // Non-matching tuples untouched.
  auto out = EvalPrefer(*like, Genres(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(ScoresByKey(*out).size(), 1u);
}

TEST_F(QualitativeTest, DislikeScoresZeroNotBottom) {
  PreferencePtr dislike =
      qualitative::Dislike("GENRES", "genre", Value::String("Drama"), 0.6);
  ScoreConf pair = Eval(dislike, Genres(), {I(1), S("Drama")});
  // Score 0 with positive confidence — active evidence against, distinct
  // from the unscored default ⟨⊥, 0⟩.
  EXPECT_TRUE(pair.has_score());
  EXPECT_NEAR(pair.score(), 0.0, 1e-12);
  EXPECT_NEAR(pair.conf(), 0.6, 1e-12);
}

TEST_F(QualitativeTest, DislikeDragsCombinedScoreDown) {
  PreferencePtr like =
      qualitative::Like("GENRES", "genre", Value::String("Drama"), 1.0);
  PreferencePtr dislike =
      qualitative::Dislike("GENRES", "genre", Value::String("Drama"), 1.0);
  auto liked = EvalPrefer(*like, Genres(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(liked.ok());
  auto out = EvalPrefer(*dislike, *liked, fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  // F_S(⟨1,1⟩, ⟨0,1⟩) = ⟨0.5, 2⟩.
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1), S("Drama")}).score(), 0.5, 1e-12);
}

TEST_F(QualitativeTest, RankingSpacesScoresEvenly) {
  PreferencePtr ranking = qualitative::Ranking(
      "GENRES", "genre",
      {Value::String("Comedy"), Value::String("Drama"), Value::String("Sport")},
      0.9);
  auto out = EvalPrefer(*ranking, Genres(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(5), S("Comedy")}).score(), 1.0, 1e-12);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1), S("Drama")}).score(), 0.5, 1e-12);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(3), S("Sport")}).score(), 0.0, 1e-12);
  // Thriller is not ranked: unaffected (⊥).
  EXPECT_TRUE(ScoresByKey(*out).Lookup({I(4), S("Thriller")}).IsDefault());
}

TEST_F(QualitativeTest, RankingSingleValueScoresOne) {
  PreferencePtr ranking = qualitative::Ranking(
      "GENRES", "genre", {Value::String("Comedy")}, 0.5);
  ScoreConf pair = Eval(ranking, Genres(), {I(5), S("Comedy")});
  EXPECT_NEAR(pair.score(), 1.0, 1e-12);
}

TEST_F(QualitativeTest, PreferOverIsBinaryRanking) {
  // Paper §II: "value a is preferred over b".
  PreferencePtr p = qualitative::PreferOver(
      "GENRES", "genre", Value::String("Comedy"), Value::String("Drama"), 1.0);
  auto out = EvalPrefer(*p, Genres(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(5), S("Comedy")}).score(), 1.0, 1e-12);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1), S("Drama")}).score(), 0.0, 1e-12);
}

TEST_F(QualitativeTest, WithContextRestrictsScope) {
  // "I prefer long movies, but only in the context of recent ones"
  // (paper §II context-dependent preferences).
  PreferencePtr base = Preference::Generic(
      "long", "MOVIES", eb::Ge(eb::Col("duration"), eb::Lit(int64_t{120})),
      ScoringFunction::Constant(1.0), 0.8);
  PreferencePtr contextual = qualitative::WithContext(
      base, eb::Ge(eb::Col("year"), eb::Lit(int64_t{2008})), "recent");
  EXPECT_EQ(contextual->name(), "long@recent");
  auto out = EvalPrefer(*contextual, Movies(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  // Wall Street (2010, 133 min): in context and long — scored.
  EXPECT_FALSE(ScoresByKey(*out).Lookup({I(2)}).IsDefault());
  // Million Dollar Baby (2004, 132 min): long but out of context.
  EXPECT_TRUE(ScoresByKey(*out).Lookup({I(3)}).IsDefault());
}

TEST_F(QualitativeTest, WithContextPreservesMembership) {
  PreferencePtr base = Preference::Membership(
      "awarded", "MOVIES", MembershipSpec{"AWARDS", "m_id", "m_id"},
      eb::True(), ScoringFunction::Constant(1.0), 0.9);
  PreferencePtr contextual = qualitative::WithContext(
      base, eb::Lt(eb::Col("year"), eb::Lit(int64_t{2005})), "old");
  ASSERT_NE(contextual->membership(), nullptr);
  auto out = EvalPrefer(*contextual, Movies(), fsum_, &catalog_, &stats_);
  ASSERT_TRUE(out.ok());
  // m3 (2004, has award): in context — scored; nothing else is.
  EXPECT_EQ(ScoresByKey(*out).size(), 1u);
  EXPECT_FALSE(ScoresByKey(*out).Lookup({I(3)}).IsDefault());
}

TEST_F(QualitativeTest, NamesAreDescriptive) {
  EXPECT_NE(qualitative::Like("GENRES", "genre", Value::String("Comedy"), 1.0)
                ->name()
                .find("like[genre='Comedy']"),
            std::string::npos);
  EXPECT_NE(qualitative::Ranking("GENRES", "genre",
                                 {Value::String("A"), Value::String("B")}, 1.0)
                ->name()
                .find("'A' > 'B'"),
            std::string::npos);
}

}  // namespace
}  // namespace prefdb

#include "palgebra/score_relation.h"

#include "gtest/gtest.h"
#include "palgebra/p_relation.h"
#include "test_util.h"

namespace prefdb {
namespace {

using testing_util::D;
using testing_util::I;
using testing_util::S;

TEST(ScoreRelationTest, LookupMissYieldsDefault) {
  ScoreRelation sr;
  EXPECT_TRUE(sr.Lookup({I(1)}).IsDefault());
  EXPECT_TRUE(sr.empty());
}

TEST(ScoreRelationTest, SetAndLookup) {
  ScoreRelation sr;
  sr.Set({I(1)}, ScoreConf::Known(0.8, 1.0));
  EXPECT_EQ(sr.size(), 1u);
  EXPECT_DOUBLE_EQ(sr.Lookup({I(1)}).score(), 0.8);
  EXPECT_TRUE(sr.Lookup({I(2)}).IsDefault());
}

TEST(ScoreRelationTest, DefaultPairsNotStored) {
  // The paper's invariant: R_P holds only non-default pairs, |R_P| <= |R|.
  ScoreRelation sr;
  sr.Set({I(1)}, ScoreConf::Identity());
  EXPECT_TRUE(sr.empty());
  sr.Set({I(1)}, ScoreConf::Known(0.5, 0.5));
  EXPECT_EQ(sr.size(), 1u);
  // Overwriting with the default erases the entry.
  sr.Set({I(1)}, ScoreConf::Identity());
  EXPECT_TRUE(sr.empty());
}

TEST(ScoreRelationTest, CompositeKeys) {
  ScoreRelation sr;
  sr.Set({I(1), S("Comedy")}, ScoreConf::Known(1.0, 0.8));
  sr.Set({I(1), S("Drama")}, ScoreConf::Known(0.4, 0.6));
  EXPECT_EQ(sr.size(), 2u);
  EXPECT_DOUBLE_EQ(sr.Lookup({I(1), S("Comedy")}).score(), 1.0);
  EXPECT_DOUBLE_EQ(sr.Lookup({I(1), S("Drama")}).score(), 0.4);
}

TEST(ScoreRelationTest, ToStringShowsEntries) {
  ScoreRelation sr;
  sr.Set({I(7)}, ScoreConf::Known(0.5, 0.9));
  std::string s = sr.ToString();
  EXPECT_NE(s.find("(7)"), std::string::npos);
  EXPECT_NE(s.find("0.500"), std::string::npos);
}

TEST(ScoreRelationTest, ViewKeyProbesLikeProjectedKey) {
  ScoreRelation sr;
  sr.Set({I(1), S("Drama")}, ScoreConf::Known(0.4, 0.6));
  Relation rel(Schema({{"T", "a", ValueType::kString},
                       {"T", "b", ValueType::kString},
                       {"T", "c", ValueType::kInt}}));
  rel.AddRow({S("ignored"), S("Drama"), I(1)});
  rel.AddRow({S("x"), S("Comedy"), I(1)});
  rel.AddRow({S("x"), S("Horror"), I(1)});
  const RowView view = RowView::Wrap(rel);
  const std::vector<size_t> key_columns = {2, 1};
  EXPECT_DOUBLE_EQ(sr.Lookup(ViewKey{view, 0, key_columns}).score(), 0.4);
  const std::vector<size_t> wrong_order = {1, 2};
  EXPECT_TRUE(sr.Lookup(ViewKey{view, 0, wrong_order}).IsDefault());
  // Fold through a ViewKey combines into the existing entry, and inserts a
  // copy of the key for a new one.
  FSum fsum;
  sr.Fold(ViewKey{view, 0, key_columns}, ScoreConf::Known(0.8, 0.6), fsum);
  EXPECT_EQ(sr.size(), 1u);
  const ScoreConf& folded = sr.Lookup({I(1), S("Drama")});
  EXPECT_NEAR(folded.score(), 0.6, 1e-12);
  EXPECT_NEAR(folded.conf(), 1.2, 1e-12);
  EXPECT_EQ(folded.count(), 2u);
  sr.Fold(ViewKey{view, 1, key_columns}, ScoreConf::Known(0.2, 1.0), fsum);
  EXPECT_EQ(sr.size(), 2u);
  EXPECT_DOUBLE_EQ(sr.Lookup({I(1), S("Comedy")}).score(), 0.2);
  // Folding the identity into a missing key stores nothing.
  sr.Fold(ViewKey{view, 2, key_columns}, ScoreConf::Identity(), fsum);
  EXPECT_EQ(sr.size(), 2u);
}

TEST(PRelationTest, PairsAreRowAlignedAndBuiltByKey) {
  Relation rel(
      Schema({{"T", "id", ValueType::kInt}, {"T", "x", ValueType::kString}}));
  rel.set_key_columns({0});
  rel.AddRow({I(1), S("a")});
  rel.AddRow({I(2), S("b")});
  ScoreRelation scores;
  scores.Set({I(2)}, ScoreConf::Known(0.9, 1.0));
  PRelation p(std::move(rel), scores);
  ASSERT_EQ(p.pairs.size(), 2u);
  EXPECT_TRUE(p.pairs[0].IsDefault());
  EXPECT_DOUBLE_EQ(p.pairs[1].score(), 0.9);
  // And back: R_P holds the non-default pairs only.
  ScoreRelation round_trip = p.ToScoreRelation();
  EXPECT_EQ(round_trip.size(), 1u);
  EXPECT_DOUBLE_EQ(round_trip.Lookup({I(2)}).score(), 0.9);
}

TEST(PRelationTest, ToScoredRelationAppendsColumns) {
  Relation rel(Schema({{"T", "id", ValueType::kInt}}));
  rel.set_key_columns({0});
  rel.AddRow({I(1)});
  rel.AddRow({I(2)});
  ScoreRelation scores;
  scores.Set({I(1)}, ScoreConf::Known(0.8, 1.2));
  PRelation p(std::move(rel), scores);

  Relation scored = ToScoredRelation(p);
  ASSERT_EQ(scored.schema().size(), 3u);
  EXPECT_EQ(scored.schema().column(1).name, "score");
  EXPECT_EQ(scored.schema().column(2).name, "conf");
  // Scored tuple.
  EXPECT_EQ(scored.rows()[0][1], D(0.8));
  EXPECT_EQ(scored.rows()[0][2], D(1.2));
  // Default tuple: NULL score (⊥), zero confidence.
  EXPECT_TRUE(scored.rows()[1][1].is_null());
  EXPECT_EQ(scored.rows()[1][2], D(0.0));
  // Keys carried through.
  EXPECT_EQ(scored.key_columns(), std::vector<size_t>{0});
}

TEST(PRelationTest, ToStringShowsScores) {
  Relation rel(Schema({{"T", "id", ValueType::kInt}}));
  rel.set_key_columns({0});
  rel.AddRow({I(1)});
  ScoreRelation scores;
  scores.Set({I(1)}, ScoreConf::Known(0.8, 1.0));
  PRelation p(std::move(rel), scores);
  std::string s = p.ToString();
  EXPECT_NE(s.find("1 rows, 1 scored"), std::string::npos);
  EXPECT_NE(s.find("<0.800, 1.000>"), std::string::npos);
}

}  // namespace
}  // namespace prefdb

#include "palgebra/p_ops.h"

#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT
using testing_util::I;
using testing_util::KeyedPairs;
using testing_util::MakeMovieCatalog;
using testing_util::S;
using testing_util::ScoresByKey;
using testing_util::WithPairs;

class POpsTest : public ::testing::Test {
 protected:
  POpsTest() : catalog_(MakeMovieCatalog()) {}

  // A p-relation over a base table, optionally pre-scored by key.
  PRelation Load(const std::string& table,
                 std::vector<std::pair<Tuple, ScoreConf>> scores = {}) {
    Table* t = *catalog_.GetTable(table);
    KeyedPairs by_key;
    for (auto& [key, pair] : scores) by_key.Set(key, pair);
    return WithPairs(t->Gather(), by_key);
  }

  Catalog catalog_;
  ExecStats stats_;
  FSum fsum_;
};

TEST_F(POpsTest, SelectKeepsPairsOfSurvivors) {
  PRelation movies = Load("MOVIES", {{{I(1)}, ScoreConf::Known(0.9, 1.0)},
                                     {{I(3)}, ScoreConf::Known(0.5, 0.5)}});
  auto out = PSelect(*Ge(Col("year"), Lit(int64_t{2006})), movies, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 3u);  // m1, m2, m5.
  // m1 survives with its pair; m3's entry is pruned.
  EXPECT_DOUBLE_EQ(ScoresByKey(*out).Lookup({I(1)}).score(), 0.9);
  EXPECT_TRUE(ScoresByKey(*out).Lookup({I(3)}).IsDefault());
  EXPECT_EQ(ScoresByKey(*out).size(), 1u);
}

TEST_F(POpsTest, ProjectPreservesScoresThroughKeyPermutation) {
  PRelation movies = Load("MOVIES", {{{I(2)}, ScoreConf::Known(0.7, 0.8)}});
  auto out = PProject({"title"}, movies, &stats_);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->schema().size(), 2u);  // title + implicit m_id.
  // Row for m2 is (title, m_id) = ('Wall Street', 2).
  const Tuple row = out->view.GatherRow(1);
  EXPECT_EQ(row[0], S("Wall Street"));
  EXPECT_DOUBLE_EQ(out->pairs[1].score(), 0.7);
}

TEST_F(POpsTest, JoinCombinesPairsWithAggregate) {
  PRelation movies = Load("MOVIES", {{{I(1)}, ScoreConf::Known(1.0, 0.8)}});
  PRelation directors =
      Load("DIRECTORS", {{{I(1)}, ScoreConf::Known(0.5, 0.2)}});
  auto out = PJoin(*Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")), movies,
                   directors, fsum_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 5u);
  // Gran Torino (m1, d1): F_S(⟨1.0, 0.8⟩, ⟨0.5, 0.2⟩) = ⟨0.9, 1.0⟩.
  for (size_t i = 0; i < out->NumRows(); ++i) {
    const Tuple row = out->view.GatherRow(i);
    if (row[1] == S("Gran Torino")) {
      const ScoreConf& pair = out->pairs[i];
      EXPECT_NEAR(pair.score(), 0.9, 1e-12);
      EXPECT_NEAR(pair.conf(), 1.0, 1e-12);
    } else if (row[1] == S("Million Dollar Baby")) {
      // m3 joins d1: only the director's pair contributes.
      const ScoreConf& pair = out->pairs[i];
      EXPECT_NEAR(pair.score(), 0.5, 1e-12);
      EXPECT_NEAR(pair.conf(), 0.2, 1e-12);
    } else if (row[1] == S("Wall Street")) {
      EXPECT_TRUE(out->pairs[i].IsDefault());
    }
  }
}

TEST_F(POpsTest, JoinKeepsPerTuplePairsWithoutKeys) {
  // Key-less inputs: every output row must carry the fold of its own input
  // rows' pairs, not one pair shared through the (empty) key.
  Relation l(Schema({{"L", "x", ValueType::kInt}}));
  l.AddRow({I(1)});
  l.AddRow({I(2)});
  Relation r(Schema({{"R", "y", ValueType::kInt}}));
  r.AddRow({I(1)});
  r.AddRow({I(2)});
  PRelation left(std::move(l));
  left.pairs[0] = ScoreConf::Known(0.8, 1.0);
  PRelation right(std::move(r));
  right.pairs[1] = ScoreConf::Known(0.2, 0.5);
  auto out = PJoin(*Eq(Col("L.x"), Col("R.y")), left, right, fsum_, &stats_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->NumRows(), 2u);
  ASSERT_EQ(out->pairs.size(), 2u);
  EXPECT_EQ(out->Gather().rows()[0][0], I(1));
  EXPECT_NEAR(out->pairs[0].score(), 0.8, 1e-12);
  EXPECT_NEAR(out->pairs[0].conf(), 1.0, 1e-12);
  EXPECT_EQ(out->Gather().rows()[1][0], I(2));
  EXPECT_NEAR(out->pairs[1].score(), 0.2, 1e-12);
  EXPECT_NEAR(out->pairs[1].conf(), 0.5, 1e-12);
}

TEST_F(POpsTest, MisalignedPairsAreRejected) {
  PRelation movies = Load("MOVIES");
  movies.pairs.pop_back();
  EXPECT_FALSE(PSelect(*Lit(int64_t{1}), movies, &stats_).ok());
  EXPECT_FALSE(PUnion(movies, Load("MOVIES"), fsum_, &stats_).ok());
}

TEST_F(POpsTest, JoinFallsBackToNestedLoop) {
  PRelation movies = Load("MOVIES", {{{I(3)}, ScoreConf::Known(0.8, 1.0)}});
  PRelation awards = Load("AWARDS");
  auto out = PJoin(*Lt(Col("MOVIES.year"), Col("AWARDS.year")), movies, awards,
                   fsum_, &stats_);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);  // Only m3 (2004) predates the 2005 award.
  EXPECT_NEAR(out->pairs[0].score(), 0.8, 1e-12);
}

TEST_F(POpsTest, SemiJoinKeepsLeftPairsOnly) {
  PRelation movies = Load("MOVIES", {{{I(3)}, ScoreConf::Known(0.6, 0.4)}});
  PRelation awards = Load("AWARDS", {{{I(3), S("Oscar")},
                                      ScoreConf::Known(1.0, 1.0)}});
  auto out = PSemiJoin(*Eq(Col("MOVIES.m_id"), Col("AWARDS.m_id")), movies,
                       awards, &stats_);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  // The right side's pair does not contaminate the output.
  EXPECT_NEAR(out->pairs[0].score(), 0.6, 1e-12);
  EXPECT_NEAR(out->pairs[0].conf(), 0.4, 1e-12);
}

TEST_F(POpsTest, UnionCombinesSharedTuples) {
  // Example 6 of the paper: movies Alice and Bob could see jointly.
  PRelation alice = Load("MOVIES", {{{I(1)}, ScoreConf::Known(0.8, 1.0)},
                                    {{I(2)}, ScoreConf::Known(0.4, 0.5)}});
  PRelation bob = Load("MOVIES", {{{I(1)}, ScoreConf::Known(0.2, 1.0)}});
  auto out = PUnion(alice, bob, fsum_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 5u);  // Same five movies, deduplicated.
  // m1 in both: F_S(⟨0.8,1⟩, ⟨0.2,1⟩) = ⟨0.5, 2⟩.
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1)}).score(), 0.5, 1e-12);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1)}).conf(), 2.0, 1e-12);
  // m2 only scored on Alice's side.
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(2)}).score(), 0.4, 1e-12);
}

TEST_F(POpsTest, UnionOfDisjointSelectionsKeepsAllTuples) {
  PRelation all = Load("MOVIES");
  auto recent = PSelect(*Ge(Col("year"), Lit(int64_t{2008})), all, &stats_);
  auto old = PSelect(*Lt(Col("year"), Lit(int64_t{2005})), all, &stats_);
  ASSERT_TRUE(recent.ok());
  ASSERT_TRUE(old.ok());
  auto out = PUnion(*recent, *old, fsum_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 3u);  // m1, m2 recent; m3 old.
}

TEST_F(POpsTest, IntersectCombinesWithAggregate) {
  PRelation a = Load("MOVIES", {{{I(1)}, ScoreConf::Known(1.0, 1.0)}});
  PRelation b = Load("MOVIES", {{{I(1)}, ScoreConf::Known(0.0, 1.0)}});
  auto out = PIntersect(a, b, fsum_, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 5u);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1)}).score(), 0.5, 1e-12);
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1)}).conf(), 2.0, 1e-12);
}

TEST_F(POpsTest, DiffKeepsLeftPairs) {
  PRelation a = Load("MOVIES", {{{I(1)}, ScoreConf::Known(0.9, 0.9)}});
  PRelation recent = *PSelect(*Ge(Col("year"), Lit(int64_t{2010})), a, &stats_);
  auto out = PDiff(a, recent, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 4u);  // Everything except Wall Street (2010).
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1)}).score(), 0.9, 1e-12);
}

TEST_F(POpsTest, SetOpsRejectIncompatibleInputs) {
  PRelation movies = Load("MOVIES");
  PRelation genres = Load("GENRES");
  EXPECT_FALSE(PUnion(movies, genres, fsum_, &stats_).ok());
  EXPECT_FALSE(PIntersect(movies, genres, fsum_, &stats_).ok());
  EXPECT_FALSE(PDiff(movies, genres, &stats_).ok());
}

TEST_F(POpsTest, DistinctSharesPairAcrossDuplicates) {
  PRelation movies = Load("MOVIES", {{{I(1)}, ScoreConf::Known(0.9, 1.0)}});
  auto doubled = PUnion(movies, movies, fsum_, &stats_);
  ASSERT_TRUE(doubled.ok());
  auto out = PDistinct(*doubled, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 5u);
}

TEST_F(POpsTest, SortKeepsScores) {
  PRelation movies = Load("MOVIES", {{{I(3)}, ScoreConf::Known(0.8, 1.0)}});
  auto out = PSort({{"year", false}}, movies, &stats_);
  ASSERT_TRUE(out.ok());
  // First row is the oldest movie, m3 (2004), still scored.
  EXPECT_EQ(out->Gather().rows()[0][0], I(3));
  EXPECT_NEAR(out->pairs[0].score(), 0.8, 1e-12);
}

TEST_F(POpsTest, LimitPrunesDroppedScores) {
  PRelation movies = Load("MOVIES", {{{I(1)}, ScoreConf::Known(0.9, 1.0)},
                                     {{I(5)}, ScoreConf::Known(0.2, 0.5)}});
  auto out = PLimit(2, movies, &stats_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);  // m1, m2 in storage order.
  EXPECT_EQ(ScoresByKey(*out).size(), 1u);  // m5's pair pruned.
  EXPECT_NEAR(ScoresByKey(*out).Lookup({I(1)}).score(), 0.9, 1e-12);
}

TEST_F(POpsTest, StatsCountScoreEntries) {
  ExecStats stats;
  PRelation movies = Load("MOVIES", {{{I(1)}, ScoreConf::Known(0.9, 1.0)}});
  auto out = PSelect(*Lit(int64_t{1}), movies, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.score_entries_written, 1u);
  EXPECT_EQ(stats.tuples_materialized, 5u);
}

}  // namespace
}  // namespace prefdb

// Edge-case battery: empty relations, NULL-heavy data, single-row tables,
// degenerate filters and non-ASCII strings, run through the full pipeline
// under every strategy. These inputs are where materializing executors
// usually hide off-by-ones.

#include "exec/runner.h"
#include "gtest/gtest.h"
#include "storage/csv_loader.h"
#include "test_util.h"

namespace prefdb {
namespace {

using testing_util::I;
using testing_util::N;
using testing_util::S;

Catalog EdgeCatalog() {
  Catalog catalog;
  // EMPTY: a table with no rows at all.
  EXPECT_TRUE(catalog
                  .CreateTable("EMPTY",
                               Schema({{"", "id", ValueType::kInt},
                                       {"", "x", ValueType::kInt}}),
                               {}, {"id"})
                  .ok());
  // SINGLE: exactly one row.
  EXPECT_TRUE(catalog
                  .CreateTable("SINGLE",
                               Schema({{"", "id", ValueType::kInt},
                                       {"", "x", ValueType::kInt}}),
                               {{I(1), I(42)}}, {"id"})
                  .ok());
  // NULLY: NULLs in data columns and join keys.
  EXPECT_TRUE(catalog
                  .CreateTable("NULLY",
                               Schema({{"", "id", ValueType::kInt},
                                       {"", "ref", ValueType::kInt},
                                       {"", "v", ValueType::kDouble}}),
                               {{I(1), I(1), N()},
                                {I(2), N(), testing_util::D(0.5)},
                                {I(3), I(99), testing_util::D(1.5)}},
                               {"id"})
                  .ok());
  // UNI: non-ASCII strings.
  EXPECT_TRUE(catalog
                  .CreateTable("UNI",
                               Schema({{"", "id", ValueType::kInt},
                                       {"", "name", ValueType::kString}}),
                               {{I(1), S("café")},
                                {I(2), S("Ωmega")},
                                {I(3), S("naïve—dash")}},
                               {"id"})
                  .ok());
  return catalog;
}

class EdgeCasesTest : public ::testing::Test {
 protected:
  EdgeCasesTest() : session_(EdgeCatalog()) {}

  QueryResult RunAll(const std::string& sql) {
    QueryResult last;
    for (StrategyKind kind :
         {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
          StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined}) {
      QueryOptions options;
      options.strategy = kind;
      auto result = session_.Query(sql, options);
      EXPECT_TRUE(result.ok())
          << StrategyKindName(kind) << ": " << result.status().ToString()
          << "\n" << sql;
      if (result.ok()) {
        if (last.relation.schema().empty()) {
          last = std::move(*result);
        } else {
          EXPECT_EQ(result->relation.NumRows(), last.relation.NumRows())
              << StrategyKindName(kind);
        }
      }
    }
    return last;
  }

  Session session_;
};

TEST_F(EdgeCasesTest, EmptyTableWithPreferences) {
  QueryResult result = RunAll(
      "SELECT id FROM EMPTY PREFERRING (x > 0) SCORE 1.0 CONF 1 RANKED");
  EXPECT_EQ(result.relation.NumRows(), 0u);
}

TEST_F(EdgeCasesTest, EmptyJoinSide) {
  QueryResult result = RunAll(
      "SELECT SINGLE.id FROM SINGLE JOIN EMPTY ON SINGLE.id = EMPTY.id "
      "PREFERRING (SINGLE.x >= 0) SCORE 1.0 CONF 1 RANKED");
  EXPECT_EQ(result.relation.NumRows(), 0u);
}

TEST_F(EdgeCasesTest, TopKOnEmptyResult) {
  QueryResult result = RunAll(
      "SELECT id FROM SINGLE WHERE x > 100 "
      "PREFERRING (x > 0) SCORE 1.0 CONF 1 TOP 5 BY SCORE");
  EXPECT_EQ(result.relation.NumRows(), 0u);
}

TEST_F(EdgeCasesTest, SingleRowAllOperators) {
  QueryResult result = RunAll(
      "SELECT id, x FROM SINGLE "
      "PREFERRING (x = 42) SCORE 1.0 CONF 0.9 "
      "NOT DOMINATED TOP 1 BY CONF");
  ASSERT_EQ(result.relation.NumRows(), 1u);
  EXPECT_NEAR(result.relation.rows()[0][3].NumericValue(), 0.9, 1e-12);
}

TEST_F(EdgeCasesTest, NullJoinKeysNeverMatch) {
  // SQL semantics: NULL = anything is not true, so row 2 joins nothing.
  QueryResult result = RunAll(
      "SELECT NULLY.id FROM NULLY "
      "JOIN SINGLE ON NULLY.ref = SINGLE.id "
      "PREFERRING (v >= 0) SCORE 1.0 CONF 1 RANKED");
  EXPECT_EQ(result.relation.NumRows(), 1u);  // Only ref=1 matches.
}

TEST_F(EdgeCasesTest, NullScoringAttributeStaysUnscored) {
  QueryResult result = RunAll(
      "SELECT id, v FROM NULLY PREFERRING (true) SCORE v CONF 1 RANKED");
  ASSERT_EQ(result.relation.NumRows(), 3u);
  // Ranked by score desc: 1.5, 0.5, then the NULL-scored row last.
  EXPECT_EQ(result.relation.rows()[0][0], I(3));
  EXPECT_EQ(result.relation.rows()[1][0], I(2));
  EXPECT_TRUE(result.relation.rows()[2][2].is_null());  // score ⊥.
}

TEST_F(EdgeCasesTest, NullComparisonIsNotTruthy) {
  // v > 0 is NULL for row 1 — excluded by WHERE, unaffected by PREFERRING.
  QueryResult where_result = RunAll(
      "SELECT id FROM NULLY WHERE v > 0 "
      "PREFERRING (true) SCORE 1.0 CONF 1 RANKED");
  EXPECT_EQ(where_result.relation.NumRows(), 2u);
  QueryResult pref_result = RunAll(
      "SELECT id FROM NULLY PREFERRING (v > 0) SCORE 1.0 CONF 1 RANKED");
  EXPECT_EQ(pref_result.relation.NumRows(), 3u);  // Soft: nothing dropped.
}

TEST_F(EdgeCasesTest, UnicodeStringsRoundTrip) {
  QueryResult result = RunAll(
      "SELECT id, name FROM UNI WHERE name = 'café' "
      "PREFERRING (name LIKE '%af%') SCORE 1.0 CONF 1 RANKED");
  ASSERT_EQ(result.relation.NumRows(), 1u);
  EXPECT_EQ(result.relation.rows()[0][1], S("café"));
}

TEST_F(EdgeCasesTest, UnicodeSurvivesCsvRoundTrip) {
  Relation rel = (*session_.engine().catalog().GetTable("UNI"))->Gather();
  std::string csv = RelationToCsv(rel);
  Catalog catalog;
  Schema schema({{"", "id", ValueType::kInt}, {"", "name", ValueType::kString}});
  ASSERT_TRUE(LoadCsvString(&catalog, "UNI2", schema, csv, {"id"}).ok());
  testing_util::ExpectSameRows((*catalog.GetTable("UNI2"))->Gather(), rel);
}

TEST_F(EdgeCasesTest, ZeroConfidencePreferenceIsInert) {
  QueryResult result = RunAll(
      "SELECT id FROM SINGLE PREFERRING (true) SCORE 1.0 CONF 0 RANKED");
  ASSERT_EQ(result.relation.NumRows(), 1u);
  EXPECT_TRUE(result.relation.rows()[0][1].is_null());  // Still ⟨⊥, 0⟩.
}

TEST_F(EdgeCasesTest, SelfJoinWithAliases) {
  QueryResult result = RunAll(
      "SELECT A.id, B.id FROM NULLY AS A JOIN NULLY AS B ON A.id = B.ref "
      "PREFERRING (A.v >= 0) SCORE 1.0 CONF 0.5 RANKED");
  EXPECT_EQ(result.relation.NumRows(), 1u);  // (1, 1) via ref=1.
}

TEST_F(EdgeCasesTest, LimitZero) {
  QueryResult result = RunAll(
      "SELECT id FROM SINGLE PREFERRING (true) SCORE 1 CONF 1 LIMIT 0");
  EXPECT_EQ(result.relation.NumRows(), 0u);
}

}  // namespace
}  // namespace prefdb

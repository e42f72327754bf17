#include "types/schema.h"

#include "gtest/gtest.h"

namespace prefdb {
namespace {

Schema MovieSchema() {
  return Schema({{"MOVIES", "m_id", ValueType::kInt},
                 {"MOVIES", "title", ValueType::kString},
                 {"MOVIES", "year", ValueType::kInt}});
}

TEST(SchemaTest, FindUnqualified) {
  Schema s = MovieSchema();
  auto idx = s.FindColumn("title");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
}

TEST(SchemaTest, FindQualified) {
  Schema s = MovieSchema();
  auto idx = s.FindColumn("MOVIES.year");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 2u);
}

TEST(SchemaTest, FindIsCaseInsensitive) {
  Schema s = MovieSchema();
  EXPECT_TRUE(s.FindColumn("TITLE").ok());
  EXPECT_TRUE(s.FindColumn("movies.M_ID").ok());
}

TEST(SchemaTest, MissingColumnIsNotFound) {
  Schema s = MovieSchema();
  auto idx = s.FindColumn("director");
  EXPECT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(s.FindColumnOrNegative("director"), -1);
}

TEST(SchemaTest, WrongQualifierIsNotFound) {
  Schema s = MovieSchema();
  EXPECT_FALSE(s.FindColumn("GENRES.m_id").ok());
}

TEST(SchemaTest, AmbiguousUnqualifiedReferenceFails) {
  Schema joined = MovieSchema().Concat(
      Schema({{"GENRES", "m_id", ValueType::kInt},
              {"GENRES", "genre", ValueType::kString}}));
  auto idx = joined.FindColumn("m_id");
  EXPECT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kInvalidArgument);
  // Qualification resolves the ambiguity.
  EXPECT_EQ(*joined.FindColumn("GENRES.m_id"), 3u);
  EXPECT_EQ(*joined.FindColumn("MOVIES.m_id"), 0u);
}

TEST(SchemaTest, ConcatPreservesOrder) {
  Schema joined = MovieSchema().Concat(
      Schema({{"GENRES", "genre", ValueType::kString}}));
  ASSERT_EQ(joined.size(), 4u);
  EXPECT_EQ(joined.column(3).name, "genre");
}

TEST(SchemaTest, SelectSubset) {
  Schema s = MovieSchema().Select({2, 0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.column(0).name, "year");
  EXPECT_EQ(s.column(1).name, "m_id");
}

TEST(SchemaTest, WithQualifier) {
  Schema s = MovieSchema().WithQualifier("M");
  EXPECT_EQ(s.column(0).qualifier, "M");
  EXPECT_TRUE(s.FindColumn("M.title").ok());
  EXPECT_FALSE(s.FindColumn("MOVIES.title").ok());
}

TEST(SchemaTest, FullNameAndToString) {
  Column c{"T", "x", ValueType::kInt};
  EXPECT_EQ(c.FullName(), "T.x");
  Column bare{"", "y", ValueType::kDouble};
  EXPECT_EQ(bare.FullName(), "y");
  EXPECT_EQ(Schema({c}).ToString(), "(T.x INT)");
}

TEST(SchemaTest, Equality) {
  EXPECT_EQ(MovieSchema(), MovieSchema());
  Schema other = MovieSchema().WithQualifier("M");
  EXPECT_FALSE(MovieSchema() == other);
}

// The lookup compares case-folded name hashes before names: every case
// spelling of qualifier and name still resolves, and the error text is the
// one a failed lookup always had.
TEST(SchemaLookupTest, MixedCaseQualifierAndName) {
  Schema s = MovieSchema();
  EXPECT_EQ(*s.FindColumn("MoViEs.TiTlE"), 1u);
  EXPECT_EQ(*s.FindColumn("movies.year"), 2u);
  EXPECT_EQ(*s.FindColumn("Year"), 2u);
  EXPECT_EQ(s.FindColumnOrNegative("mOvIeS.m_Id"), 0);
}

TEST(SchemaLookupTest, SelfJoinAliasMakesBareNameAmbiguous) {
  Schema joined = MovieSchema().WithQualifier("A").Concat(
      MovieSchema().WithQualifier("B"));
  auto idx = joined.FindColumn("title");
  ASSERT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(idx.status().message(), "ambiguous column reference: title");
  EXPECT_EQ(joined.FindColumnOrNegative("title"), -1);
  EXPECT_FALSE(joined.HasColumn("TITLE"));
  EXPECT_EQ(*joined.FindColumn("a.TITLE"), 1u);
  EXPECT_EQ(*joined.FindColumn("B.title"), 4u);
}

TEST(SchemaLookupTest, DottedNameNotFound) {
  Schema s = MovieSchema();
  for (const char* name :
       {"MOVIES.rating", "RATINGS.year", "MOVIES.", "MOVIES.year.x"}) {
    auto idx = s.FindColumn(name);
    ASSERT_FALSE(idx.ok()) << name;
    EXPECT_EQ(idx.status().code(), StatusCode::kNotFound) << name;
    EXPECT_EQ(idx.status().message(), std::string("column not found: ") + name);
    EXPECT_EQ(s.FindColumnOrNegative(name), -1) << name;
  }
}

TEST(SchemaLookupTest, LookupsAfterConcatSelectWithQualifierAndAddColumn) {
  Schema genres({{"GENRES", "m_id", ValueType::kInt},
                 {"GENRES", "genre", ValueType::kString}});
  Schema joined = MovieSchema().Concat(genres);
  EXPECT_EQ(*joined.FindColumn("GENRE"), 4u);
  EXPECT_EQ(*joined.FindColumn("genres.M_ID"), 3u);
  // The rvalue Concat appends in place and resolves the same way.
  Schema appended = MovieSchema().Concat(genres);
  EXPECT_EQ(appended, joined);
  EXPECT_EQ(*appended.FindColumn("Genres.Genre"), 4u);

  Schema selected = joined.Select({4, 3, 1});
  EXPECT_EQ(*selected.FindColumn("genre"), 0u);
  EXPECT_EQ(*selected.FindColumn("m_id"), 1u);  // MOVIES.m_id was dropped.
  EXPECT_EQ(*selected.FindColumn("TITLE"), 2u);
  EXPECT_FALSE(selected.HasColumn("year"));

  Schema aliased = joined.WithQualifier("X");
  EXPECT_EQ(aliased.FindColumnOrNegative("m_id"), -1);  // Now ambiguous.
  EXPECT_EQ(*aliased.FindColumn("x.Genre"), 4u);
  EXPECT_FALSE(aliased.HasColumn("GENRES.genre"));

  Schema grown = MovieSchema();
  grown.AddColumn({"", "Score", ValueType::kDouble});
  EXPECT_EQ(*grown.FindColumn("score"), 3u);
  EXPECT_EQ(*grown.FindColumn("SCORE"), 3u);
  EXPECT_FALSE(grown.HasColumn("MOVIES.score"));
}

}  // namespace
}  // namespace prefdb

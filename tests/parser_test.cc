#include "parser/parser.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace prefdb {
namespace {

using testing_util::MakeMovieCatalog;

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : catalog_(MakeMovieCatalog()) {}

  ParsedQuery Parse(std::string_view sql) {
    auto parsed = ParseQuery(sql, catalog_);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << sql;
    return parsed.ok() ? std::move(*parsed) : ParsedQuery{};
  }

  // Asserts that `sql` fails to parse. Use ParseErrorStatus when the test
  // also inspects the error message; the Status return is [[nodiscard]],
  // so the pure-failure checks use this void wrapper instead.
  void ParseError(std::string_view sql) { (void)ParseErrorStatus(sql); }

  Status ParseErrorStatus(std::string_view sql) {
    auto parsed = ParseQuery(sql, catalog_);
    EXPECT_FALSE(parsed.ok()) << "expected parse failure for: " << sql;
    return parsed.ok() ? Status::OK() : parsed.status();
  }

  Catalog catalog_;
};

TEST_F(ParserTest, MinimalSelect) {
  ParsedQuery q = Parse("SELECT title FROM MOVIES");
  ASSERT_NE(q.plan, nullptr);
  EXPECT_EQ(q.plan->kind, PlanKind::kProject);
  EXPECT_EQ(q.plan->child().kind, PlanKind::kScan);
  EXPECT_EQ(q.output_columns, std::vector<std::string>{"title"});
  EXPECT_EQ(q.agg->name(), "wsum");  // Default aggregate.
  EXPECT_TRUE(q.filters.empty());
  EXPECT_TRUE(q.preferences.empty());
}

TEST_F(ParserTest, SelectStarHasNoProjection) {
  ParsedQuery q = Parse("SELECT * FROM MOVIES");
  EXPECT_EQ(q.plan->kind, PlanKind::kScan);
  EXPECT_TRUE(q.output_columns.empty());
}

TEST_F(ParserTest, JoinsBuildLeftDeepTree) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES "
      "JOIN GENRES ON MOVIES.m_id = GENRES.m_id "
      "JOIN DIRECTORS ON MOVIES.d_id = DIRECTORS.d_id");
  const PlanNode* join = &q.plan->child();
  ASSERT_EQ(join->kind, PlanKind::kJoin);
  EXPECT_EQ(join->child(0).kind, PlanKind::kJoin);
  EXPECT_EQ(join->child(1).kind, PlanKind::kScan);
  EXPECT_EQ(join->child(1).table_name, "DIRECTORS");
}

TEST_F(ParserTest, TableAliases) {
  ParsedQuery q = Parse("SELECT M.title FROM MOVIES AS M WHERE M.year = 2008");
  const PlanNode* node = q.plan.get();
  while (node->kind != PlanKind::kScan) node = &node->child();
  EXPECT_EQ(node->alias, "M");
  // Implicit alias without AS.
  Parse("SELECT M.title FROM MOVIES M");
}

TEST_F(ParserTest, WhereBecomesSelect) {
  ParsedQuery q = Parse("SELECT title FROM MOVIES WHERE year >= 2005 AND d_id = 2");
  const PlanNode& select = q.plan->child();
  ASSERT_EQ(select.kind, PlanKind::kSelect);
  EXPECT_EQ(select.predicate->ToString(), "(year >= 2005 AND d_id = 2)");
}

TEST_F(ParserTest, PreferringClauseCreatesPreferNodes) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES "
      "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 0.9, "
      "           (duration <= 120) SCORE 0.5 CONF 0.4");
  EXPECT_EQ(q.preferences.size(), 2u);
  EXPECT_EQ(q.plan->CountKind(PlanKind::kPrefer), 2u);
  EXPECT_EQ(q.preferences[0]->name(), "p1");
  EXPECT_NEAR(q.preferences[0]->confidence(), 0.9, 1e-12);
  EXPECT_EQ(q.preferences[0]->relations(), std::vector<std::string>{"MOVIES"});
}

TEST_F(ParserTest, NamedPreference) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES "
      "PREFERRING fav: (year >= 2005) SCORE 1.0 CONF 1");
  ASSERT_EQ(q.preferences.size(), 1u);
  EXPECT_EQ(q.preferences[0]->name(), "fav");
}

TEST_F(ParserTest, ProjectionIncludesPreferenceAttributes) {
  // The paper's parser adds projections for all prefer-operator attributes.
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES "
      "PREFERRING (duration <= 120) SCORE around(duration, 120) CONF 0.5");
  ASSERT_EQ(q.plan->kind, PlanKind::kProject);
  const std::vector<std::string>& cols = q.plan->project_columns;
  EXPECT_NE(std::find(cols.begin(), cols.end(), "duration"), cols.end());
  // But the user-visible output is just `title`.
  EXPECT_EQ(q.output_columns, std::vector<std::string>{"title"});
}

TEST_F(ParserTest, MultiRelationalPreferenceDerivesRelations) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES JOIN GENRES ON MOVIES.m_id = GENRES.m_id "
      "PREFERRING (genre = 'Action') SCORE recency(year, 2011) CONF 0.8");
  ASSERT_EQ(q.preferences.size(), 1u);
  EXPECT_TRUE(q.preferences[0]->IsMultiRelational());
  EXPECT_EQ(q.preferences[0]->relations().size(), 2u);
}

TEST_F(ParserTest, MembershipPreference) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES "
      "PREFERRING (true) SCORE 1.0 CONF 0.9 EXISTS IN AWARDS ON m_id = m_id");
  ASSERT_EQ(q.preferences.size(), 1u);
  const MembershipSpec* m = q.preferences[0]->membership();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->member_relation, "AWARDS");
  EXPECT_EQ(m->local_column, "m_id");
}

TEST_F(ParserTest, MembershipUnknownRelationFails) {
  ParseError(
      "SELECT title FROM MOVIES "
      "PREFERRING (true) SCORE 1.0 CONF 0.9 EXISTS IN NOPE ON m_id = m_id");
}

TEST_F(ParserTest, AggregateFunctionClause) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES "
      "PREFERRING (true) SCORE 1.0 CONF 1 USING AGG maxconf");
  EXPECT_EQ(q.agg->name(), "maxconf");
  ParseError("SELECT title FROM MOVIES USING AGG bogus");
}

TEST_F(ParserTest, FilterClauses) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES "
      "PREFERRING (true) SCORE 1.0 CONF 1 "
      "WITH CONF >= 0.5 TOP 10 BY SCORE");
  ASSERT_EQ(q.filters.size(), 2u);
  EXPECT_EQ(q.filters[0].kind, FilterSpec::Kind::kThreshold);
  EXPECT_EQ(q.filters[0].target, FilterTarget::kConf);
  EXPECT_FALSE(q.filters[0].strict);
  EXPECT_EQ(q.filters[1].kind, FilterSpec::Kind::kTopK);
  EXPECT_EQ(q.filters[1].k, 10u);
}

TEST_F(ParserTest, RankedAndNotDominated) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES PREFERRING (true) SCORE 1.0 CONF 1 "
      "NOT DOMINATED RANKED");
  ASSERT_EQ(q.filters.size(), 2u);
  EXPECT_EQ(q.filters[0].kind, FilterSpec::Kind::kNotDominated);
  EXPECT_EQ(q.filters[1].kind, FilterSpec::Kind::kRankAll);
}

TEST_F(ParserTest, StrictThreshold) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES PREFERRING (true) SCORE 1.0 CONF 1 "
      "WITH SCORE > 0.25");
  ASSERT_EQ(q.filters.size(), 1u);
  EXPECT_TRUE(q.filters[0].strict);
  EXPECT_DOUBLE_EQ(q.filters[0].threshold, 0.25);
}

TEST_F(ParserTest, WithMatchesFilter) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES PREFERRING (true) SCORE 1.0 CONF 1 "
      "WITH MATCHES >= 2 RANKED");
  ASSERT_EQ(q.filters.size(), 2u);
  EXPECT_EQ(q.filters[0].kind, FilterSpec::Kind::kMinMatches);
  EXPECT_EQ(q.filters[0].k, 2u);
  ParseError(
      "SELECT title FROM MOVIES PREFERRING (true) SCORE 1 CONF 1 "
      "WITH MATCHES > 2");
}

TEST_F(ParserTest, OrderByAndLimitBecomePlanNodes) {
  ParsedQuery q = Parse("SELECT title FROM MOVIES ORDER BY year DESC LIMIT 3");
  ASSERT_EQ(q.plan->kind, PlanKind::kLimit);
  EXPECT_EQ(q.plan->limit, 3u);
  ASSERT_EQ(q.plan->child().kind, PlanKind::kSort);
  EXPECT_TRUE(q.plan->child().sort_keys[0].descending);
}

TEST_F(ParserTest, DistinctBecomesPlanNode) {
  ParsedQuery q = Parse("SELECT DISTINCT d_id FROM MOVIES");
  EXPECT_EQ(q.plan->kind, PlanKind::kDistinct);
}

TEST_F(ParserTest, UnionOfBlocks) {
  ParsedQuery q = Parse(
      "SELECT title, year FROM MOVIES WHERE year >= 2008 "
      "UNION "
      "SELECT title, year FROM MOVIES WHERE d_id = 2");
  EXPECT_EQ(q.plan->kind, PlanKind::kUnion);
}

TEST_F(ParserTest, SemijoinClause) {
  ParsedQuery q = Parse(
      "SELECT title FROM MOVIES "
      "SEMIJOIN AWARDS ON MOVIES.m_id = AWARDS.m_id");
  EXPECT_EQ(q.plan->child().kind, PlanKind::kSemiJoin);
}

TEST_F(ParserTest, ExpressionPrecedence) {
  auto e = ParseExpression("1 + 2 * 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(1 + (2 * 3))");
  e = ParseExpression("a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(a = 1 OR (b = 2 AND c = 3))");
  e = ParseExpression("NOT a = 1");
  ASSERT_TRUE(e.ok());
  // NOT binds looser than comparison.
  EXPECT_EQ((*e)->ToString(), "NOT (a = 1)");
}

TEST_F(ParserTest, BetweenDesugarsToRange) {
  auto e = ParseExpression("x BETWEEN 2 AND 5");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(x >= 2 AND x <= 5)");
}

TEST_F(ParserTest, InListAndUnaryMinus) {
  auto e = ParseExpression("g IN ('a', 'b', 3)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "g IN ('a', 'b', 3)");
  e = ParseExpression("-5 + x");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(-5 + x)");
  e = ParseExpression("-x");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(0 - x)");
}

TEST_F(ParserTest, ErrorsAreInformative) {
  Status st = ParseErrorStatus("SELECT title FROM NOPE");
  EXPECT_NE(st.message().find("unknown table"), std::string::npos);
  ParseError("SELECT FROM MOVIES");
  ParseError("SELECT title MOVIES");
  ParseError("SELECT title FROM MOVIES PREFERRING year > 2 SCORE 1 CONF 1");
  ParseError("SELECT title FROM MOVIES WHERE nonexistent = 1");
  ParseError("SELECT title FROM MOVIES TRAILING GARBAGE");
  ParseError("SELECT title FROM MOVIES TOP x BY SCORE");
  ParseError("SELECT title FROM MOVIES PREFERRING (x = ) SCORE 1 CONF 1");
}

TEST_F(ParserTest, PreferenceConditionMustBind) {
  Status st = ParseErrorStatus(
      "SELECT title FROM MOVIES PREFERRING (genre = 'Comedy') SCORE 1 CONF 1");
  EXPECT_NE(st.message().find("preference condition"), std::string::npos);
}

// The exact error text of a column or function that does not bind, in each
// place an expression can stand: binding checks run without cloning, and
// build the message only when they fail.
TEST_F(ParserTest, BindFailureMessagesAreExact) {
  const std::string join =
      "SELECT title FROM MOVIES JOIN GENRES ON MOVIES.m_id = GENRES.m_id ";
  const std::pair<std::string, std::string> cases[] = {
      // WHERE
      {"SELECT title FROM MOVIES WHERE nope = 1",
       "InvalidArgument: selection does not bind: column not found: nope"},
      {join + "WHERE m_id = 1",
       "InvalidArgument: selection does not bind: ambiguous column reference: "
       "m_id"},
      {"SELECT title FROM MOVIES WHERE abs(year, 1) > 0",
       "InvalidArgument: selection does not bind: function abs expects 1..1 "
       "arguments, got 2"},
      // JOIN ... ON
      {"SELECT title FROM MOVIES JOIN GENRES ON MOVIES.m_id = GENRES.nope",
       "InvalidArgument: join condition does not bind: column not found: "
       "GENRES.nope"},
      {"SELECT title FROM MOVIES JOIN GENRES ON m_id = GENRES.m_id",
       "InvalidArgument: join condition does not bind: ambiguous column "
       "reference: m_id"},
      {"SELECT title FROM MOVIES JOIN GENRES ON abs(MOVIES.m_id, 2) = "
       "GENRES.m_id",
       "InvalidArgument: join condition does not bind: function abs expects "
       "1..1 arguments, got 2"},
      // Preference condition
      {"SELECT title FROM MOVIES PREFERRING (nope = 1) SCORE 1 CONF 1",
       "InvalidArgument: parse error at offset 61: preference condition: "
       "column not found: nope"},
      {join + "PREFERRING (m_id = 1) SCORE 1 CONF 1",
       "InvalidArgument: parse error at offset 102: preference condition: "
       "ambiguous column reference: m_id"},
      {"SELECT title FROM MOVIES PREFERRING (recency(year) > 0) SCORE 1 CONF 1",
       "InvalidArgument: parse error at offset 70: preference condition: "
       "function recency expects 2..2 arguments, got 1"},
      // Preference scoring expression
      {"SELECT title FROM MOVIES PREFERRING (year > 2000) "
       "SCORE recency(nope, 2011) CONF 1",
       "InvalidArgument: parse error at offset 82: preference scoring: column "
       "not found: nope"},
      {join + "PREFERRING (year > 2000) SCORE recency(m_id, 3) CONF 1",
       "InvalidArgument: parse error at offset 120: preference scoring: "
       "ambiguous column reference: m_id"},
      {"SELECT title FROM MOVIES PREFERRING (year > 2000) "
       "SCORE recency(year) CONF 1",
       "InvalidArgument: parse error at offset 76: preference scoring: "
       "function recency expects 2..2 arguments, got 1"},
  };
  for (const auto& [sql, message] : cases) {
    EXPECT_EQ(ParseErrorStatus(sql).ToString(), message) << sql;
  }
}

// The parser derives the plan's shape node by node as it builds it, and
// reports a failure there only after the whole text has parsed, as a
// validation of the finished plan would.
TEST_F(ParserTest, PlanValidationFailsAfterParsing) {
  EXPECT_EQ(ParseErrorStatus(
                "SELECT title FROM MOVIES UNION SELECT title, year FROM MOVIES")
                .ToString(),
            "InvalidArgument: Union inputs have different arity (2 vs 3)");
  EXPECT_EQ(ParseErrorStatus("SELECT title FROM MOVIES ORDER BY nope").ToString(),
            "NotFound: column not found: nope");
  EXPECT_EQ(ParseErrorStatus("SELECT * FROM MOVIES ORDER BY nope").ToString(),
            "NotFound: column not found: nope");
  // A syntax error later in the text wins over the plan's validation.
  EXPECT_EQ(
      ParseErrorStatus("SELECT title FROM MOVIES ORDER BY nope LIMIT x").ToString(),
      "InvalidArgument: parse error at offset 45: expected integer LIMIT count");
}

TEST_F(ParserTest, FullKitchenSinkQueryParses) {
  ParsedQuery q = Parse(
      "SELECT title, director FROM MOVIES "
      "JOIN DIRECTORS ON MOVIES.d_id = DIRECTORS.d_id "
      "JOIN GENRES ON MOVIES.m_id = GENRES.m_id "
      "WHERE year BETWEEN 2004 AND 2011 AND genre IN ('Drama', 'Comedy') "
      "PREFERRING "
      "  eastwood: (director LIKE '%Eastwood') SCORE 0.9 CONF 0.8, "
      "  (year >= 2005) SCORE 0.5 * recency(year, 2011) + 0.5 CONF 0.9, "
      "  (true) SCORE 1.0 CONF 0.9 EXISTS IN AWARDS ON MOVIES.m_id = m_id "
      "USING AGG wsum "
      "WITH CONF >= 0.5 "
      "TOP 5 BY SCORE");
  EXPECT_EQ(q.preferences.size(), 3u);
  EXPECT_EQ(q.filters.size(), 2u);
  EXPECT_EQ(q.plan->CountKind(PlanKind::kPrefer), 3u);
  EXPECT_EQ(q.plan->CountKind(PlanKind::kJoin), 2u);
}

}  // namespace
}  // namespace prefdb

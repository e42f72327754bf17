#include "engine/executor.h"

#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "test_util.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT
using testing_util::D;
using testing_util::I;
using testing_util::MakeMovieCatalog;
using testing_util::N;
using testing_util::S;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : catalog_(MakeMovieCatalog()) {}

  Relation Run(const PlanPtr& plan) {
    auto result = ExecutePlan(*plan, &catalog_, &stats_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return Relation();
    Relation rel = result->Gather();
    EXPECT_TRUE(rel.CheckWellFormed().ok());
    return rel;
  }

  Catalog catalog_;
  ExecStats stats_;
};

TEST_F(ExecutorTest, ScanReturnsAllRowsWithKeys) {
  Relation rel = Run(plan::Scan("MOVIES"));
  EXPECT_EQ(rel.NumRows(), 5u);
  EXPECT_EQ(rel.key_columns(), std::vector<size_t>{0});
  EXPECT_EQ(stats_.rows_scanned, 5u);
}

TEST_F(ExecutorTest, ScanWithAliasRequalifies) {
  Relation rel = Run(plan::Scan("MOVIES", "M"));
  EXPECT_EQ(rel.schema().column(0).qualifier, "M");
}

TEST_F(ExecutorTest, SelectFilters) {
  Relation rel = Run(plan::Select(Ge(Col("year"), Lit(int64_t{2006})),
                                  plan::Scan("MOVIES")));
  EXPECT_EQ(rel.NumRows(), 3u);  // Gran Torino 2008, Wall Street 2010, Scoop 2006.
}

TEST_F(ExecutorTest, SelectOverScanUsesIndexForEquality) {
  PlanPtr p = plan::Select(Eq(Col("m_id"), Lit(int64_t{3})), plan::Scan("MOVIES"));
  Relation rel = Run(p);
  ASSERT_EQ(rel.NumRows(), 1u);
  EXPECT_EQ(rel.rows()[0][1], S("Million Dollar Baby"));
  // Index scan touches only matching rows, not the whole table.
  EXPECT_EQ(stats_.rows_scanned, 1u);
  EXPECT_TRUE((*catalog_.GetTable("MOVIES"))->HasIndex(0));
}

TEST_F(ExecutorTest, SelectWithResidualConjunct) {
  // Equality served by index, the residual year conjunct still applied.
  PlanPtr p = plan::Select(
      And(Eq(Col("d_id"), Lit(int64_t{2})), Ge(Col("year"), Lit(int64_t{2006}))),
      plan::Scan("MOVIES"));
  Relation rel = Run(p);
  ASSERT_EQ(rel.NumRows(), 1u);  // Scoop (2006, d2); Match Point is 2005.
  EXPECT_EQ(rel.rows()[0][1], S("Scoop"));
}

TEST_F(ExecutorTest, ProjectKeepsKeys) {
  Relation rel = Run(plan::Project({"title"}, plan::Scan("MOVIES")));
  EXPECT_EQ(rel.schema().size(), 2u);  // title + implicit m_id.
  EXPECT_EQ(rel.schema().column(1).name, "m_id");
  EXPECT_EQ(rel.key_columns(), std::vector<size_t>{1});
}

TEST_F(ExecutorTest, HashJoinOnEquiPredicate) {
  PlanPtr p = plan::Join(Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
                         plan::Scan("MOVIES"), plan::Scan("DIRECTORS"));
  Relation rel = Run(p);
  EXPECT_EQ(rel.NumRows(), 5u);
  EXPECT_EQ(rel.schema().size(), 7u);
  EXPECT_EQ(rel.key_columns(), (std::vector<size_t>{0, 5}));
}

TEST_F(ExecutorTest, JoinWithResidualPredicate) {
  PlanPtr p = plan::Join(
      And(Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
          Ge(Col("year"), Lit(int64_t{2006}))),
      plan::Scan("MOVIES"), plan::Scan("DIRECTORS"));
  EXPECT_EQ(Run(p).NumRows(), 3u);
}

TEST_F(ExecutorTest, NestedLoopJoinWithoutEquiConjunct) {
  PlanPtr p = plan::Join(Lt(Col("MOVIES.year"), Col("AWARDS.year")),
                         plan::Scan("MOVIES"), plan::Scan("AWARDS"));
  // Award year 2005; movies before 2005: Million Dollar Baby (2004).
  EXPECT_EQ(Run(p).NumRows(), 1u);
}

TEST_F(ExecutorTest, SemiJoinKeepsLeftColumnsOnce) {
  PlanPtr p = plan::SemiJoin(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                             plan::Scan("MOVIES"), plan::Scan("GENRES"));
  Relation rel = Run(p);
  // Every movie has at least one genre; m3 has two but appears once.
  EXPECT_EQ(rel.NumRows(), 5u);
  EXPECT_EQ(rel.schema().size(), 5u);
}

TEST_F(ExecutorTest, UnionDeduplicates) {
  PlanPtr p = plan::Union(
      plan::Select(Ge(Col("year"), Lit(int64_t{2006})), plan::Scan("MOVIES")),
      plan::Select(Eq(Col("d_id"), Lit(int64_t{2})), plan::Scan("MOVIES")));
  // {m1, m2, m5} ∪ {m4, m5} = 4 rows.
  EXPECT_EQ(Run(p).NumRows(), 4u);
}

TEST_F(ExecutorTest, IntersectAndExcept) {
  PlanPtr both = plan::Intersect(
      plan::Select(Ge(Col("year"), Lit(int64_t{2006})), plan::Scan("MOVIES")),
      plan::Select(Eq(Col("d_id"), Lit(int64_t{2})), plan::Scan("MOVIES")));
  Relation rel = Run(both);
  ASSERT_EQ(rel.NumRows(), 1u);
  EXPECT_EQ(rel.rows()[0][1], S("Scoop"));

  PlanPtr diff = plan::Except(
      plan::Select(Ge(Col("year"), Lit(int64_t{2006})), plan::Scan("MOVIES")),
      plan::Select(Eq(Col("d_id"), Lit(int64_t{2})), plan::Scan("MOVIES")));
  EXPECT_EQ(Run(diff).NumRows(), 2u);  // m1, m2.
}

TEST_F(ExecutorTest, DistinctRemovesDuplicates) {
  PlanPtr p = plan::Distinct(plan::Project({"genre"}, plan::Scan("GENRES")));
  // Project keeps keys (m_id, genre), so rows stay distinct; drop to plain
  // genre via a relation without keys is not possible here — instead verify
  // Distinct over a duplicate-producing union of identical inputs.
  PlanPtr dup = plan::Distinct(
      plan::Union(plan::Scan("MOVIES"), plan::Scan("MOVIES")));
  EXPECT_EQ(Run(dup).NumRows(), 5u);
  EXPECT_EQ(Run(p).NumRows(), 6u);
}

TEST_F(ExecutorTest, SortOrdersRows) {
  PlanPtr p = plan::Sort({{"year", /*descending=*/true}}, plan::Scan("MOVIES"));
  Relation rel = Run(p);
  ASSERT_EQ(rel.NumRows(), 5u);
  EXPECT_EQ(rel.rows()[0][2], I(2010));
  EXPECT_EQ(rel.rows()[4][2], I(2004));
}

TEST_F(ExecutorTest, SortWithSecondaryKey) {
  PlanPtr p = plan::Sort({{"d_id", false}, {"year", true}}, plan::Scan("MOVIES"));
  Relation rel = Run(p);
  // d1 movies first (2008 before 2004 due to DESC year).
  EXPECT_EQ(rel.rows()[0][1], S("Gran Torino"));
  EXPECT_EQ(rel.rows()[1][1], S("Million Dollar Baby"));
}

TEST_F(ExecutorTest, SortWithDuplicateKeysAndNanAndNullIsDeterministic) {
  // Regression: Value::Compare used to report NaN "equal" to every other
  // numeric, a non-transitive relation that made ExecSort's comparator
  // violate std::stable_sort's strict-weak-ordering precondition (UB, and
  // in practice NaN-keyed rows landing anywhere). Duplicate keys, NULL and
  // NaN must all land in one deterministic order: NULL first (lowest type
  // rank), then numerics, then NaN, duplicates tie-broken by primary key.
  double nan = std::numeric_limits<double>::quiet_NaN();
  Status st = catalog_.CreateTable(
      "RATINGS_EDGE",
      Schema({{"", "r_id", ValueType::kInt}, {"", "score", ValueType::kDouble}}),
      {
          {I(1), D(2.0)},
          {I(2), D(nan)},
          {I(3), N()},
          {I(4), D(2.0)},
          {I(5), D(1.0)},
          {I(6), D(nan)},
      },
      {"r_id"});
  ASSERT_TRUE(st.ok()) << st.ToString();

  Relation asc =
      Run(plan::Sort({{"score", /*descending=*/false}}, plan::Scan("RATINGS_EDGE")));
  ASSERT_EQ(asc.NumRows(), 6u);
  std::vector<int64_t> asc_ids;
  for (const Tuple& row : asc.rows()) asc_ids.push_back(row[0].AsInt());
  EXPECT_EQ(asc_ids, (std::vector<int64_t>{3, 5, 1, 4, 2, 6}));

  Relation desc =
      Run(plan::Sort({{"score", /*descending=*/true}}, plan::Scan("RATINGS_EDGE")));
  std::vector<int64_t> desc_ids;
  for (const Tuple& row : desc.rows()) desc_ids.push_back(row[0].AsInt());
  EXPECT_EQ(desc_ids, (std::vector<int64_t>{2, 6, 1, 4, 5, 3}));
}

TEST_F(ExecutorTest, LimitTruncates) {
  PlanPtr p = plan::Limit(2, plan::Sort({{"m_id", false}}, plan::Scan("MOVIES")));
  Relation rel = Run(p);
  ASSERT_EQ(rel.NumRows(), 2u);
  EXPECT_EQ(rel.rows()[1][0], I(2));
  // Limit larger than input is a no-op.
  EXPECT_EQ(Run(plan::Limit(99, plan::Scan("MOVIES"))).NumRows(), 5u);
}

TEST_F(ExecutorTest, PreferNodeRejected) {
  PreferencePtr pref = Preference::Generic(
      "p", "GENRES", Eq(Col("genre"), Lit("Comedy")),
      ScoringFunction::Constant(1.0), 0.8);
  PlanPtr p = plan::Prefer(pref, plan::Scan("GENRES"));
  ExecStats stats;
  auto result = ExecutePlan(*p, &catalog_, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST_F(ExecutorTest, StatsCountMaterializedTuples) {
  ExecStats stats;
  auto result = ExecutePlan(
      *plan::Select(Ge(Col("year"), Lit(int64_t{2006})), plan::Scan("MOVIES")),
      &catalog_, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.tuples_materialized, 3u);
  EXPECT_GT(stats.operator_invocations, 0u);
}

// ---------------------------------------------------------------------------
// Row-id join and view edge cases. Every plan runs traced; each result must
// be well formed and match the expected rows.

class RowIdEdgeTest : public ::testing::Test {
 protected:
  using PairList = std::vector<std::pair<int64_t, int64_t>>;

  RowIdEdgeTest() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Schema l({{"", "id", ValueType::kInt}, {"", "k", ValueType::kDouble}});
    Schema r({{"", "rid", ValueType::kInt},
              {"", "k", ValueType::kDouble},
              {"", "tag", ValueType::kString}});
    Create("L", l,
           {{I(1), I(2)}, {I(2), N()}, {I(3), D(2.0)}, {I(4), D(nan)},
            {I(5), I(7)}, {I(6), S("x")}},
           {"id"});
    // Duplicate build keys (2, 2.0, 2) keep their insertion order.
    Create("R", r,
           {{I(1), I(2), S("a")}, {I(2), N(), S("null")}, {I(3), D(nan), S("nan")},
            {I(4), D(2.0), S("b")}, {I(5), I(2), S("c")}, {I(6), S("x"), S("s")},
            {I(7), I(9), S("z")}},
           {"rid"});
    Create("EMPTY", l, {}, {"id"});
    // No primary key, duplicate rows: projections cannot re-add a key.
    Create("DUP", Schema({{"", "k", ValueType::kInt}, {"", "tag", ValueType::kString}}),
           {{I(2), S("a")}, {I(2), S("a")}, {I(7), S("b")}}, {});
  }

  void Create(const std::string& name, Schema schema, std::vector<Tuple> rows,
              std::vector<std::string> keys) {
    Status st = catalog_.CreateTable(name, std::move(schema), std::move(rows),
                                     std::move(keys));
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  // Runs `plan` traced, keeping the timing-free trace in last_trace_.
  Relation Run(const PlanPtr& plan) {
    obs::SpanPtr root = obs::Span::Detached("root");
    NativeExecOptions options;
    options.span = root.get();
    ExecStats stats;
    auto view = ExecutePlan(*plan, &catalog_, &stats, options);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    if (!view.ok()) return Relation();
    StatusOr<Relation> result = view->Gather();
    EXPECT_TRUE(result->CheckWellFormed().ok());
    last_trace_ = root->ToString(/*include_timing=*/false);
    return std::move(*result);
  }

  // (first column, column `c`) of every row: e.g. (L.id, R.rid) pairs.
  static PairList Pairs(const Relation& rel, size_t c) {
    PairList out;
    for (const Tuple& row : rel.rows()) out.push_back({row[0].AsInt(), row[c].AsInt()});
    return out;
  }

  static ExprPtr KeyEq() { return Eq(Col("L.k"), Col("R.k")); }
  static PlanPtr KeyJoin() {
    return plan::Join(KeyEq(), plan::Scan("L"), plan::Scan("R"));
  }

  Catalog catalog_;
  std::string last_trace_;
};

TEST_F(RowIdEdgeTest, NullKeysNeverMatchAndIntMatchesDoubleAndNanMatchesNan) {
  Relation rel = Run(KeyJoin());
  // L2's NULL key matches nothing (not even R2's NULL); Int(2) and
  // Double(2.0) are one key; NaN equals NaN under Value's total order;
  // each probe row's matches come in build insertion order.
  EXPECT_EQ(Pairs(rel, 2), (PairList{{1, 1}, {1, 4}, {1, 5}, {3, 1}, {3, 4},
                                     {3, 5}, {4, 3}, {6, 6}}));
  EXPECT_EQ(rel.key_columns(), (std::vector<size_t>{0, 2}));
  // Seven build rows hold five distinct keys: 2, NULL, NaN, 'x', 9. R is a
  // base table, so its index serves the build, and says so.
  EXPECT_NE(last_trace_.find("native.join.build  (rows=7 -> 5 index)"),
            std::string::npos)
      << last_trace_;
}

// Registers a strategy-style temporary table over every row of R, in
// order (qualifiers kept as R's): a view whose ids were kept by a filter,
// so it is not marked as the identity over R.
void AddTemporaryViewOfR(Catalog* catalog, const std::string& name) {
  std::shared_ptr<Table> source = *catalog->PinTable("R");
  RowView view = testing_util::TableView(source);
  std::vector<uint32_t> all(source->NumRows());
  std::iota(all.begin(), all.end(), 0u);
  view.Keep(all);
  std::unique_ptr<Table> table = Table::CreateView(name, std::move(view));
  table->MarkTemporary();
  ASSERT_TRUE(catalog->AddTable(std::move(table)).ok());
}

TEST_F(RowIdEdgeTest, IndexServedJoinMatchesPerQueryBuild) {
  Relation indexed = Run(KeyJoin());
  ASSERT_NE(last_trace_.find("(rows=7 -> 5 index)"), std::string::npos);
  // A temporary table, a filtered scan and a join output as build sides all
  // take the per-query build, with the same rows in the same order.
  AddTemporaryViewOfR(&catalog_, "__gbu_tmp_r");
  Relation temp = Run(plan::Join(KeyEq(), plan::Scan("L"), plan::Scan("__gbu_tmp_r")));
  EXPECT_NE(last_trace_.find("native.join.build  (rows=7 -> 5)"), std::string::npos)
      << last_trace_;
  EXPECT_EQ(temp.rows(), indexed.rows());
  Relation filtered = Run(plan::Join(
      KeyEq(), plan::Scan("L"),
      plan::Select(Ge(Col("rid"), Lit(int64_t{0})), plan::Scan("R"))));
  EXPECT_NE(last_trace_.find("native.join.build  (rows=7 -> 5)"), std::string::npos)
      << last_trace_;
  EXPECT_EQ(filtered.rows(), indexed.rows());
  Relation nested = Run(plan::Join(
      Eq(Col("L.k"), Col("R.k")), plan::Scan("L"),
      plan::Join(Eq(Col("R.rid"), Col("R2.rid")), plan::Scan("R"),
                 plan::Scan("R", "R2"))));
  EXPECT_NE(last_trace_.find("native.join.build  (rows=7 -> 5)"), std::string::npos)
      << last_trace_;
  EXPECT_EQ(Pairs(nested, 2), Pairs(indexed, 2));
}

TEST_F(RowIdEdgeTest, IndexServedSemiJoinAndResidualConjunct) {
  Relation semi = Run(plan::SemiJoin(KeyEq(), plan::Scan("L"), plan::Scan("R")));
  EXPECT_NE(last_trace_.find("index"), std::string::npos) << last_trace_;
  EXPECT_EQ(Pairs(semi, 0), (PairList{{1, 1}, {3, 3}, {4, 4}, {6, 6}}));
  // A residual conjunct that rejects a left row's first matches: the semi
  // join still finds the later one.
  Relation residual = Run(plan::SemiJoin(And(KeyEq(), Gt(Col("rid"), Lit(int64_t{4}))),
                                            plan::Scan("L"), plan::Scan("R")));
  EXPECT_EQ(Pairs(residual, 0), (PairList{{1, 1}, {3, 3}, {6, 6}}));
}

TEST_F(RowIdEdgeTest, AliasedSelfJoinThroughIndex) {
  Relation rel = Run(plan::Join(Eq(Col("A.k"), Col("B.k")), plan::Scan("R", "A"),
                                   plan::Scan("R", "B")));
  EXPECT_NE(last_trace_.find("(rows=7 -> 5 index)"), std::string::npos) << last_trace_;
  // Each non-NULL row meets every row sharing its key, in row order.
  EXPECT_EQ(Pairs(rel, 3), (PairList{{1, 1}, {1, 4}, {1, 5}, {3, 3}, {4, 1}, {4, 4},
                                     {4, 5}, {5, 1}, {5, 4}, {5, 5}, {6, 6}, {7, 7}}));
}

TEST_F(RowIdEdgeTest, IndexBuiltByEqualityScanServesLaterJoin) {
  Table* r = *catalog_.GetTable("R");
  ASSERT_FALSE(r->HasIndex(1));
  Relation scanned = Run(plan::Select(Eq(Col("k"), Lit(int64_t{2})), plan::Scan("R")));
  EXPECT_EQ(Pairs(scanned, 0), (PairList{{1, 1}, {4, 4}, {5, 5}}));
  ASSERT_TRUE(r->HasIndex(1));
  const HashIndex* built = &r->EnsureIndex(1);
  obs::Counter hits;
  obs::Counter build_rows;
  NativeExecMetrics metrics;
  metrics.join_index_hits = &hits;
  metrics.join_build_rows = &build_rows;
  NativeExecOptions options;
  options.metrics = &metrics;
  ExecStats stats;
  auto joined = ExecutePlan(*KeyJoin(), &catalog_, &stats, options);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->Gather().rows(), Run(KeyJoin()).rows());
  EXPECT_EQ(&r->EnsureIndex(1), built);  // Reused, not rebuilt.
  EXPECT_EQ(hits.value(), 1u);
  EXPECT_EQ(build_rows.value(), 7u);  // Build-side input rows, as before.
}

TEST_F(RowIdEdgeTest, ExtraNonEquiConjunctIsStillApplied) {
  Relation rel = Run(plan::Join(And(KeyEq(), Ne(Col("tag"), Lit("b"))),
                                   plan::Scan("L"), plan::Scan("R")));
  EXPECT_EQ(Pairs(rel, 2),
            (PairList{{1, 1}, {1, 5}, {3, 1}, {3, 5}, {4, 3}, {6, 6}}));
  // The equi-conjunct may also sit to the right of the residual one.
  Relation right = Run(plan::Join(And(Gt(Col("rid"), Lit(int64_t{1})), KeyEq()),
                                     plan::Scan("L"), plan::Scan("R")));
  EXPECT_EQ(Pairs(right, 2), (PairList{{1, 4}, {1, 5}, {3, 4}, {3, 5}, {4, 3}, {6, 6}}));
}

TEST_F(RowIdEdgeTest, EmptyBuildAndEmptyProbeSides) {
  Relation no_build = Run(plan::Join(Eq(Col("L.k"), Col("EMPTY.k")),
                                        plan::Scan("L"), plan::Scan("EMPTY")));
  EXPECT_EQ(no_build.NumRows(), 0u);
  EXPECT_EQ(no_build.schema().size(), 4u);
  Relation no_probe = Run(plan::Join(Eq(Col("EMPTY.k"), Col("R.k")),
                                        plan::Scan("EMPTY"), plan::Scan("R")));
  EXPECT_EQ(no_probe.NumRows(), 0u);
  EXPECT_EQ(Run(plan::SemiJoin(Eq(Col("L.k"), Col("EMPTY.k")), plan::Scan("L"),
                                  plan::Scan("EMPTY")))
                .NumRows(),
            0u);
}

TEST_F(RowIdEdgeTest, SemiJoinKeepsEachLeftRowOnceInOrder) {
  Relation rel = Run(plan::SemiJoin(KeyEq(), plan::Scan("L"), plan::Scan("R")));
  ASSERT_EQ(rel.schema().size(), 2u);
  EXPECT_EQ(Pairs(rel, 0), (PairList{{1, 1}, {3, 3}, {4, 4}, {6, 6}}));
}

TEST_F(RowIdEdgeTest, NestedLoopJoinAndSemiJoin) {
  Relation rel = Run(plan::Join(Gt(Col("L.id"), Col("R.rid")), plan::Scan("L"),
                                   plan::Scan("R")));
  PairList expected;
  for (int64_t l = 1; l <= 6; ++l) {
    for (int64_t r = 1; r <= 7; ++r) {
      if (l > r) expected.push_back({l, r});
    }
  }
  EXPECT_EQ(Pairs(rel, 2), expected);
  EXPECT_NE(last_trace_.find("nested_loop"), std::string::npos);
  Relation semi = Run(plan::SemiJoin(Gt(Col("L.id"), Col("R.rid")),
                                        plan::Scan("L"), plan::Scan("R")));
  EXPECT_EQ(Pairs(semi, 0), (PairList{{2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}}));
}

TEST_F(RowIdEdgeTest, PredicateFreeScanOfTemporaryTable) {
  Schema schema({{"M", "m_id", ValueType::kInt}, {"M", "title", ValueType::kString}});
  std::vector<Tuple> rows = {{I(3), S("Million Dollar Baby")}, {I(1), S("Gran Torino")}};
  Relation temp_rows(schema, rows);
  temp_rows.set_key_columns({0});
  std::unique_ptr<Table> table =
      Table::CreateView("__gbu_tmp_edge", RowView::Wrap(std::move(temp_rows)));
  table->MarkTemporary();
  ASSERT_TRUE(catalog_.AddTable(std::move(table)).ok());
  Relation rel = Run(plan::Scan("__gbu_tmp_edge"));
  EXPECT_EQ(rel.schema(), schema);
  EXPECT_EQ(rel.rows(), rows);
  EXPECT_EQ(rel.key_columns(), std::vector<size_t>{0});
  EXPECT_NE(last_trace_.find("table=<temp>"), std::string::npos) << last_trace_;
}

TEST_F(RowIdEdgeTest, SortAndLimitOverJoinOutput) {
  Relation sorted = Run(plan::Sort({{"tag", /*descending=*/true}}, KeyJoin()));
  // tag desc: s, nan, c, c, b, b, a, a; ties broken by key (L.id, R.rid).
  EXPECT_EQ(Pairs(sorted, 2), (PairList{{6, 6}, {4, 3}, {1, 5}, {3, 5}, {1, 4},
                                        {3, 4}, {1, 1}, {3, 1}}));
  Relation limited = Run(plan::Limit(3, KeyJoin()));
  EXPECT_EQ(Pairs(limited, 2), (PairList{{1, 1}, {1, 4}, {1, 5}}));
}

TEST_F(RowIdEdgeTest, DistinctOverJoinOutput) {
  // DUP's two identical (2, 'a') rows make duplicate join rows per probe.
  PlanPtr join = plan::Join(Eq(Col("L.k"), Col("DUP.k")), plan::Scan("L"),
                            plan::Scan("DUP"));
  EXPECT_EQ(Run(join->Clone()).NumRows(), 5u);  // L1 x2, L3 x2, L5 x1.
  Relation rel = Run(plan::Distinct(std::move(join)));
  EXPECT_EQ(Pairs(rel, 2), (PairList{{1, 2}, {3, 2}, {5, 7}}));
}

TEST_F(RowIdEdgeTest, IntersectAndExceptOverJoinOutput) {
  auto without_b = [] {
    return plan::Join(And(KeyEq(), Ne(Col("tag"), Lit("b"))), plan::Scan("L"),
                      plan::Scan("R"));
  };
  Relation both = Run(plan::Intersect(KeyJoin(), without_b()));
  EXPECT_EQ(Pairs(both, 2),
            (PairList{{1, 1}, {1, 5}, {3, 1}, {3, 5}, {4, 3}, {6, 6}}));
  Relation diff = Run(plan::Except(KeyJoin(), without_b()));
  EXPECT_EQ(Pairs(diff, 2), (PairList{{1, 4}, {3, 4}}));
  Relation all = Run(plan::Union(without_b(), KeyJoin()));
  EXPECT_EQ(Pairs(all, 2), (PairList{{1, 1}, {1, 5}, {3, 1}, {3, 5}, {4, 3},
                                     {6, 6}, {1, 4}, {3, 4}}));
}

}  // namespace
}  // namespace prefdb

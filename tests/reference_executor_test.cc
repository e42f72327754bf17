// An independent reference for the native executor. RefEval below evaluates
// a conventional plan straight from the operator definitions: every operator
// materializes its full output, joins are nested loops, and duplicate
// elimination is a linear search — no indexes, no hashing, no row-id views.
// ExecutePlan must return the same schema, key columns and rows, *in the
// same order*. (A left-outer,
// right-inner nested loop emits matches in the order a build-right /
// probe-left hash join does, and both sorts are stable with the same
// comparator, so row order is comparable too.)

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "datagen/dblp_gen.h"
#include "datagen/imdb_gen.h"
#include "engine/executor.h"
#include "engine/native_optimizer.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "optimizer/extended_optimizer.h"
#include "parser/parser.h"
#include "test_util.h"
#include "workload/workload.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT

struct RefRel {
  Schema schema;
  std::vector<size_t> keys;
  std::vector<Tuple> rows;
};

bool Contains(const std::vector<Tuple>& rows, const Tuple& row) {
  for (const Tuple& r : rows) {
    if (TupleEq()(r, row)) return true;
  }
  return false;
}

StatusOr<RefRel> RefEval(const PlanNode& node, Catalog* catalog) {
  switch (node.kind) {
    case PlanKind::kScan: {
      ASSIGN_OR_RETURN(Table * table, catalog->GetTable(node.table_name));
      // A view-backed temporary's rows are its view's, gathered.
      RefRel out{table->schema(), table->primary_key(), table->Gather().rows()};
      if (!node.alias.empty() && node.alias != node.table_name) {
        out.schema = out.schema.WithQualifier(node.alias);
      }
      return out;
    }
    case PlanKind::kSelect: {
      ASSIGN_OR_RETURN(RefRel in, RefEval(node.child(), catalog));
      ExprPtr pred = node.predicate->Clone();
      RETURN_IF_ERROR(pred->Bind(in.schema));
      RefRel out{in.schema, in.keys, {}};
      for (const Tuple& row : in.rows) {
        if (IsTruthy(pred->Eval(row))) out.rows.push_back(row);
      }
      return out;
    }
    case PlanKind::kProject: {
      ASSIGN_OR_RETURN(RefRel in, RefEval(node.child(), catalog));
      ASSIGN_OR_RETURN(ProjectionResolution res,
                       ResolveProjection(PlanShape{in.schema, in.keys},
                                         node.project_columns));
      RefRel out{in.schema.Select(res.indices), res.key_positions, {}};
      for (const Tuple& row : in.rows) {
        out.rows.push_back(ProjectTuple(row, res.indices));
      }
      return out;
    }
    case PlanKind::kJoin:
    case PlanKind::kSemiJoin: {
      const bool semi = node.kind == PlanKind::kSemiJoin;
      ASSIGN_OR_RETURN(RefRel left, RefEval(node.child(0), catalog));
      ASSIGN_OR_RETURN(RefRel right, RefEval(node.child(1), catalog));
      Schema combined = left.schema.Concat(right.schema);
      ExprPtr pred = node.predicate->Clone();
      RETURN_IF_ERROR(pred->Bind(combined));
      RefRel out{semi ? left.schema : combined, left.keys, {}};
      if (!semi) {
        for (size_t k : right.keys) out.keys.push_back(k + left.schema.size());
      }
      for (const Tuple& l : left.rows) {
        for (const Tuple& r : right.rows) {
          Tuple joined = ConcatTuples(l, r);
          if (!IsTruthy(pred->Eval(joined))) continue;
          if (semi) {
            out.rows.push_back(l);
            break;
          }
          out.rows.push_back(std::move(joined));
        }
      }
      return out;
    }
    case PlanKind::kUnion:
    case PlanKind::kIntersect:
    case PlanKind::kExcept: {
      ASSIGN_OR_RETURN(RefRel left, RefEval(node.child(0), catalog));
      ASSIGN_OR_RETURN(RefRel right, RefEval(node.child(1), catalog));
      RefRel out{left.schema, left.keys, {}};
      for (const Tuple& row : left.rows) {
        bool keep = node.kind == PlanKind::kUnion ||
                    Contains(right.rows, row) == (node.kind == PlanKind::kIntersect);
        if (keep && !Contains(out.rows, row)) out.rows.push_back(row);
      }
      if (node.kind == PlanKind::kUnion) {
        for (const Tuple& row : right.rows) {
          if (!Contains(out.rows, row)) out.rows.push_back(row);
        }
      }
      return out;
    }
    case PlanKind::kDistinct: {
      ASSIGN_OR_RETURN(RefRel in, RefEval(node.child(), catalog));
      RefRel out{in.schema, in.keys, {}};
      for (const Tuple& row : in.rows) {
        if (!Contains(out.rows, row)) out.rows.push_back(row);
      }
      return out;
    }
    case PlanKind::kSort: {
      ASSIGN_OR_RETURN(RefRel out, RefEval(node.child(), catalog));
      std::vector<std::pair<size_t, bool>> keys;
      for (const SortKey& k : node.sort_keys) {
        ASSIGN_OR_RETURN(size_t idx, out.schema.FindColumn(k.column));
        keys.push_back({idx, k.descending});
      }
      // Sort keys, then the relation key ascending; ties keep input order.
      for (size_t k : out.keys) keys.push_back({k, false});
      std::stable_sort(out.rows.begin(), out.rows.end(),
                       [&keys](const Tuple& a, const Tuple& b) {
                         for (const auto& [idx, desc] : keys) {
                           int c = a[idx].Compare(b[idx]);
                           if (c != 0) return desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
      return out;
    }
    case PlanKind::kLimit: {
      ASSIGN_OR_RETURN(RefRel out, RefEval(node.child(), catalog));
      if (out.rows.size() > node.limit) out.rows.resize(node.limit);
      return out;
    }
    case PlanKind::kPrefer:
      return Status::Unimplemented("reference evaluates conventional plans");
  }
  return Status::Internal("unknown plan kind");
}

// Rows compared so far, so a suite can check it did not only compare empty
// results.
size_t rows_compared = 0;

// Checks ExecutePlan against RefEval on `plan`.
void ExpectMatchesReference(const PlanNode& plan, Catalog* catalog,
                            const std::string& label) {
  StatusOr<RefRel> expected = RefEval(plan, catalog);
  ASSERT_TRUE(expected.ok()) << label << ": " << expected.status().ToString();
  rows_compared += expected->rows.size();
  ExecStats stats;
  StatusOr<RowView> view = ExecutePlan(plan, catalog, &stats);
  ASSERT_TRUE(view.ok()) << label << ": " << view.status().ToString();
  StatusOr<Relation> actual = view->Gather();
  EXPECT_EQ(actual->schema(), expected->schema) << label;
  EXPECT_EQ(actual->key_columns(), expected->keys) << label;
  ASSERT_EQ(actual->NumRows(), expected->rows.size())
      << label << "\n" << plan.ToString();
  EXPECT_TRUE(actual->rows() == expected->rows)
      << label << ": rows or their order differ\n" << plan.ToString();
}

// Both the plan as built and its NativeOptimize rewrite.
void ExpectPlanMatchesReference(const PlanNode& plan, Catalog* catalog,
                                const std::string& label) {
  ExpectMatchesReference(plan, catalog, label);
  StatusOr<NativeOptimizerResult> optimized = NativeOptimize(plan, *catalog);
  ASSERT_TRUE(optimized.ok()) << label << ": " << optimized.status().ToString();
  ExpectMatchesReference(*optimized->plan, catalog, label + " (optimized)");
}

// The plans of executor_test, over the running-example catalog.
TEST(ReferenceExecutorTest, ExecutorTestPlans) {
  Catalog catalog = testing_util::MakeMovieCatalog();
  auto year_ge = [](int64_t y) { return Ge(Col("year"), Lit(y)); };
  std::vector<PlanPtr> plans;
  plans.push_back(plan::Scan("MOVIES"));
  plans.push_back(plan::Scan("MOVIES", "M"));
  plans.push_back(plan::Select(year_ge(2006), plan::Scan("MOVIES")));
  plans.push_back(plan::Select(Eq(Col("m_id"), Lit(int64_t{3})), plan::Scan("MOVIES")));
  plans.push_back(plan::Select(And(Eq(Col("d_id"), Lit(int64_t{2})), year_ge(2006)),
                               plan::Scan("MOVIES")));
  plans.push_back(plan::Project({"title"}, plan::Scan("MOVIES")));
  plans.push_back(plan::Join(Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
                             plan::Scan("MOVIES"), plan::Scan("DIRECTORS")));
  plans.push_back(plan::Join(And(Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
                                 year_ge(2006)),
                             plan::Scan("MOVIES"), plan::Scan("DIRECTORS")));
  plans.push_back(plan::Join(Lt(Col("MOVIES.year"), Col("AWARDS.year")),
                             plan::Scan("MOVIES"), plan::Scan("AWARDS")));
  plans.push_back(plan::SemiJoin(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                                 plan::Scan("MOVIES"), plan::Scan("GENRES")));
  auto recent = [&] { return plan::Select(year_ge(2006), plan::Scan("MOVIES")); };
  auto allen = [] {
    return plan::Select(Eq(Col("d_id"), Lit(int64_t{2})), plan::Scan("MOVIES"));
  };
  plans.push_back(plan::Union(recent(), allen()));
  plans.push_back(plan::Intersect(recent(), allen()));
  plans.push_back(plan::Except(recent(), allen()));
  plans.push_back(plan::Distinct(plan::Project({"genre"}, plan::Scan("GENRES"))));
  plans.push_back(
      plan::Distinct(plan::Union(plan::Scan("MOVIES"), plan::Scan("MOVIES"))));
  plans.push_back(plan::Sort({{"year", true}}, plan::Scan("MOVIES")));
  plans.push_back(plan::Sort({{"d_id", false}, {"year", true}}, plan::Scan("MOVIES")));
  plans.push_back(plan::Limit(2, plan::Sort({{"m_id", false}}, plan::Scan("MOVIES"))));
  plans.push_back(plan::Limit(99, plan::Scan("MOVIES")));
  for (size_t i = 0; i < plans.size(); ++i) {
    ExpectPlanMatchesReference(*plans[i], &catalog, "plan " + std::to_string(i));
  }
}

// Joins whose build side a base table's persistent index serves, next to
// the build sides that keep the per-query hash table: NULL probe and build
// keys, duplicate build keys, Int/Double/NaN keys, residual conjuncts, semi
// joins, an aliased self-join, a temporary table, and an index that an
// equality scan built before a join reused it.
TEST(ReferenceExecutorTest, IndexServedJoinPlans) {
  using testing_util::D;
  using testing_util::I;
  using testing_util::N;
  using testing_util::S;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("L",
                               Schema({{"", "id", ValueType::kInt},
                                       {"", "k", ValueType::kDouble}}),
                               {{I(1), I(2)}, {I(2), N()}, {I(3), D(2.0)},
                                {I(4), D(nan)}, {I(5), I(7)}, {I(6), S("x")},
                                {I(7), N()}},
                               {"id"})
                  .ok());
  Schema r_schema({{"R", "rid", ValueType::kInt},
                   {"R", "k", ValueType::kDouble},
                   {"R", "tag", ValueType::kString}});
  std::vector<Tuple> r_rows = {
      {I(1), I(2), S("a")}, {I(2), N(), S("n")},  {I(3), D(nan), S("nan")},
      {I(4), D(2.0), S("b")}, {I(5), I(2), S("c")}, {I(6), S("x"), S("s")},
      {I(7), I(9), S("z")},   {I(8), N(), S("m")}};
  ASSERT_TRUE(catalog.CreateTable("R", r_schema, r_rows, {"rid"}).ok());
  // A strategy-style temporary: a view over R's rows in another order,
  // without the row R.rid = 4 (qualifiers kept as R's).
  std::shared_ptr<Table> r_table = *catalog.PinTable("R");
  RowView r_view = testing_util::TableView(r_table);
  r_view.Keep({7, 5, 0, 2, 6, 1, 4});
  std::unique_ptr<Table> temp = Table::CreateView("__gbu_tmp_ref", std::move(r_view));
  temp->MarkTemporary();
  ASSERT_TRUE(catalog.AddTable(std::move(temp)).ok());

  auto key_eq = [] { return Eq(Col("L.k"), Col("R.k")); };
  std::vector<PlanPtr> plans;
  // Builds R.k's index through an equality scan; the joins below reuse it.
  plans.push_back(plan::Select(Eq(Col("k"), Lit(int64_t{2})), plan::Scan("R")));
  plans.push_back(plan::Join(key_eq(), plan::Scan("L"), plan::Scan("R")));
  plans.push_back(plan::Join(And(key_eq(), Ne(Col("tag"), Lit("b"))),
                             plan::Scan("L"), plan::Scan("R")));
  plans.push_back(plan::Join(And(Gt(Col("rid"), Col("id")), key_eq()),
                             plan::Scan("L"), plan::Scan("R")));
  plans.push_back(plan::SemiJoin(key_eq(), plan::Scan("L"), plan::Scan("R")));
  plans.push_back(plan::SemiJoin(And(key_eq(), Gt(Col("rid"), Lit(int64_t{4}))),
                                 plan::Scan("L"), plan::Scan("R")));
  plans.push_back(plan::Join(Eq(Col("A.k"), Col("B.k")), plan::Scan("R", "A"),
                             plan::Scan("R", "B")));
  plans.push_back(plan::Join(Eq(Col("A.rid"), Col("B.rid")), plan::Scan("R", "A"),
                             plan::Scan("R", "B")));
  // Build side on L (NULL, NaN and Int/Double keys on the build side too).
  plans.push_back(plan::Join(Eq(Col("R.k"), Col("L.k")), plan::Scan("R"),
                             plan::Scan("L")));
  // Per-query builds: a temporary table, a filtered scan, a join output.
  plans.push_back(plan::Join(key_eq(), plan::Scan("L"), plan::Scan("__gbu_tmp_ref")));
  // Equality scans of the temporary filter its view in place (no index).
  plans.push_back(plan::Select(Eq(Col("k"), Lit(int64_t{2})),
                               plan::Scan("__gbu_tmp_ref")));
  plans.push_back(plan::Join(
      key_eq(), plan::Scan("L"),
      plan::Select(Eq(Col("tag"), Lit("c")), plan::Scan("__gbu_tmp_ref"))));
  plans.push_back(plan::Join(key_eq(), plan::Scan("L"),
                             plan::Select(Ne(Col("tag"), Lit("z")), plan::Scan("R"))));
  plans.push_back(plan::Join(
      key_eq(), plan::Scan("L"),
      plan::Join(Eq(Col("R.rid"), Col("R2.rid")), plan::Scan("R"),
                 plan::Scan("R", "R2"))));
  for (size_t i = 0; i < plans.size(); ++i) {
    ExpectPlanMatchesReference(*plans[i], &catalog, "plan " + std::to_string(i));
  }
  EXPECT_TRUE((*catalog.GetTable("R"))->HasIndex(1));
  EXPECT_FALSE((*catalog.GetTable("__gbu_tmp_ref"))->HasIndex(1));
}

Catalog* ImdbCatalog() {
  static Catalog* instance = [] {
    ImdbOptions options;
    options.scale = 0.0004;
    options.seed = 7;
    auto catalog = GenerateImdb(options);
    EXPECT_TRUE(catalog.ok());
    return new Catalog(std::move(*catalog));
  }();
  return instance;
}

Catalog* DblpCatalog() {
  static Catalog* instance = [] {
    DblpOptions options;
    options.scale = 0.0008;
    options.seed = 11;
    auto catalog = GenerateDblp(options);
    EXPECT_TRUE(catalog.ok());
    return new Catalog(std::move(*catalog));
  }();
  return instance;
}

// The plans of NativeOperatorEquivalenceTest (parallel_equivalence_test).
TEST(ReferenceExecutorTest, NativeOperatorPlans) {
  auto movies_where = [](ExprPtr pred) {
    return plan::Select(std::move(pred), plan::Scan("MOVIES"));
  };
  std::vector<PlanPtr> plans;
  plans.push_back(movies_where(Ge(Col("year"), Lit(int64_t{1990}))));
  plans.push_back(plan::Join(Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
                             plan::Scan("MOVIES"), plan::Scan("DIRECTORS")));
  plans.push_back(plan::Join(And(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                                 Ge(Col("year"), Lit(int64_t{2000}))),
                             plan::Scan("MOVIES"), plan::Scan("GENRES")));
  plans.push_back(plan::SemiJoin(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                                 plan::Scan("MOVIES"), plan::Scan("GENRES")));
  plans.push_back(plan::Join(
      Lt(Col("DIRECTORS.d_id"), Col("MOVIES.d_id")),
      plan::Select(Le(Col("d_id"), Lit(int64_t{20})), plan::Scan("DIRECTORS")),
      movies_where(Ge(Col("year"), Lit(int64_t{2005})))));
  plans.push_back(plan::SemiJoin(Gt(Col("MOVIES.year"), Col("AWARDS.year")),
                                 movies_where(Le(Col("m_id"), Lit(int64_t{200}))),
                                 plan::Scan("AWARDS")));
  auto since_2000 = [&] { return movies_where(Ge(Col("year"), Lit(int64_t{2000}))); };
  auto until_2005 = [&] { return movies_where(Le(Col("year"), Lit(int64_t{2005}))); };
  plans.push_back(plan::Union(since_2000(), until_2005()));
  plans.push_back(plan::Intersect(since_2000(), until_2005()));
  plans.push_back(plan::Except(since_2000(), until_2005()));
  plans.push_back(plan::Distinct(plan::Project({"year"}, plan::Scan("MOVIES"))));
  plans.push_back(plan::Limit(
      50, plan::Sort({{"year", true}, {"title", false}},
                     movies_where(Ge(Col("year"), Lit(int64_t{1990}))))));
  for (size_t i = 0; i < plans.size(); ++i) {
    ExpectPlanMatchesReference(*plans[i], ImdbCatalog(), "plan " + std::to_string(i));
  }
}

// Q_NP of every Table II and sweep query: parse, strip the preferences,
// natively optimize — the physical plan FtP hands to the engine.
void ExpectQueryMatchesReference(const std::string& sql, Catalog* catalog) {
  StatusOr<ParsedQuery> parsed = ParseQuery(sql, *catalog);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << sql;
  PlanPtr stripped = StripPrefers(*parsed->plan);
  StatusOr<NativeOptimizerResult> optimized = NativeOptimize(*stripped, *catalog);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString() << "\n" << sql;
  ExpectMatchesReference(*optimized->plan, catalog, sql);
}

TEST(ReferenceExecutorTest, TableTwoQueries) {
  for (const WorkloadQuery& q : ImdbWorkload()) {
    size_t before = rows_compared;
    ExpectQueryMatchesReference(q.sql, ImdbCatalog());
    EXPECT_GT(rows_compared, before) << q.name << " has an empty answer";
  }
  for (const WorkloadQuery& q : DblpWorkload()) {
    size_t before = rows_compared;
    ExpectQueryMatchesReference(q.sql, DblpCatalog());
    EXPECT_GT(rows_compared, before) << q.name << " has an empty answer";
  }
}

TEST(ReferenceExecutorTest, SweepQueries) {
  const auto n_movies =
      static_cast<long long>((*ImdbCatalog()->GetTable("MOVIES"))->NumRows());
  const size_t before = rows_compared;
  for (int n = 1; n <= 8; ++n) {
    ExpectQueryMatchesReference(ImdbPreferenceSweep(n), ImdbCatalog());
  }
  for (double fraction : {0.01, 0.05, 0.25, 1.0}) {
    ExpectQueryMatchesReference(ImdbSelectivitySweep(fraction, n_movies),
                                ImdbCatalog());
  }
  for (int r = 1; r <= 5; ++r) {
    ExpectQueryMatchesReference(ImdbRelationsSweep(r), ImdbCatalog());
  }
  EXPECT_GT(rows_compared, before);
}

}  // namespace
}  // namespace prefdb

// Differential tests of the p-algebra over row-id views. Every p-operator
// runs on each view shape a strategy hands it — a base table's identity
// view, a filtered view, a join output, a projected join, an owning view,
// and the output of an index-served join whose right side is Prefer(Scan) —
// and must produce exactly what it produces on the same rows gathered into
// an owning relation (the materialized semantics, read through
// ToScoredRelation): the same rows in the same order, bit-identical pairs
// and the same ExecStats.

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/imdb_gen.h"
#include "engine/executor.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "palgebra/p_ops.h"
#include "prefs/preference.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT

Catalog* TestCatalog() {
  static Catalog* catalog = [] {
    ImdbOptions options;
    options.scale = 0.0004;
    options.seed = 5;
    StatusOr<Catalog> generated = GenerateImdb(options);
    EXPECT_TRUE(generated.ok());
    return new Catalog(std::move(*generated));
  }();
  return catalog;
}

RowView RunPlan(const PlanPtr& plan) {
  ExecStats stats;
  StatusOr<RowView> view = ExecutePlan(*plan, TestCatalog(), &stats);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return view.ok() ? std::move(*view) : RowView();
}

// Pseudo-random pairs, about a third of them default.
std::vector<ScoreConf> RandomPairs(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ScoreConf> pairs(n);
  for (ScoreConf& pair : pairs) {
    if (rng.Bernoulli(0.66)) {
      pair = ScoreConf::Known(rng.UniformReal(0.0, 1.0), rng.UniformReal(0.1, 1.0));
    }
  }
  return pairs;
}

// recency(year, 2011), the paper's S_m.
ExprPtr Recency() {
  std::vector<ExprPtr> args;
  args.push_back(Col("year"));
  args.push_back(Lit(int64_t{2011}));
  return Fn("recency", std::move(args));
}

PreferencePtr Pref(const std::string& name, ExprPtr condition, ExprPtr score,
                   double conf) {
  return Preference::Generic(name, "MOVIES", std::move(condition),
                             ScoringFunction(std::move(score)), conf);
}

// DIRECTORS' identity view after a prefer: still the base table's identity,
// so a join probes its persistent index.
PRelation PreferredDirectors() {
  FSum fsum;
  ExecStats stats;
  StatusOr<PRelation> out =
      EvalPrefer(*Pref("d", Le(Col("d_id"), Lit(int64_t{40})), Lit(0.6), 0.7),
                 PRelation(RunPlan(plan::Scan("DIRECTORS"))), fsum, nullptr, &stats);
  EXPECT_TRUE(out.ok());
  EXPECT_NE(out->view.base_table, nullptr);
  return std::move(*out);
}

struct Shape {
  std::string name;
  PRelation input;
};

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  auto add = [&](std::string name, RowView view) {
    std::vector<ScoreConf> pairs = RandomPairs(view.NumRows(), shapes.size() + 1);
    shapes.push_back({std::move(name), PRelation(std::move(view), std::move(pairs))});
  };
  add("base", RunPlan(plan::Scan("MOVIES")));
  add("filtered",
      RunPlan(plan::Select(Ge(Col("year"), Lit(int64_t{1990})), plan::Scan("MOVIES"))));
  add("joined", RunPlan(plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                               plan::Scan("MOVIES"), plan::Scan("GENRES"))));
  add("projected",
      RunPlan(plan::Project({"title", "year", "genre", "MOVIES.d_id"},
                        plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                                   plan::Scan("MOVIES"), plan::Scan("GENRES")))));
  add("owning", RowView::Wrap(RunPlan(plan::Scan("MOVIES")).Gather()));
  FSum fsum;
  ExecStats stats;
  StatusOr<PRelation> index_joined =
      PJoin(*Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
            PRelation(RunPlan(plan::Scan("MOVIES"))), PreferredDirectors(), fsum, &stats);
  EXPECT_TRUE(index_joined.ok());
  shapes.push_back({"index_joined", std::move(*index_joined)});
  return shapes;
}

using UnaryOp = std::function<StatusOr<PRelation>(const PRelation&, ExecStats*)>;

std::vector<std::pair<std::string, UnaryOp>> Operators() {
  static const FSum fsum;
  std::vector<std::pair<std::string, UnaryOp>> ops;
  ops.push_back({"select", [](const PRelation& in, ExecStats* stats) {
                   return PSelect(*Ge(Col("year"), Lit(int64_t{2000})), in, stats);
                 }});
  ops.push_back({"project", [](const PRelation& in, ExecStats* stats) {
                   return PProject({"year", "title"}, in, stats);
                 }});
  ops.push_back({"prefer", [](const PRelation& in, ExecStats* stats) {
                   return EvalPrefer(*Pref("p", Ge(Col("year"), Lit(int64_t{1995})),
                                           Recency(),
                                           0.8),
                                     in, fsum, nullptr, stats);
                 }});
  ops.push_back({"join", [](const PRelation& in, ExecStats* stats) {
                   return PJoin(*Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")), in,
                                PreferredDirectors(), fsum, stats);
                 }});
  ops.push_back({"join_right", [](const PRelation& in, ExecStats* stats) {
                   return PJoin(*Eq(Col("DIRECTORS.d_id"), Col("MOVIES.d_id")),
                                PreferredDirectors(), in, fsum, stats);
                 }});
  ops.push_back({"nested_loop_join", [](const PRelation& in, ExecStats* stats) {
                   return PJoin(*And(Lt(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
                                     Le(Col("DIRECTORS.d_id"), Lit(int64_t{3}))),
                                in, PreferredDirectors(), fsum, stats);
                 }});
  ops.push_back({"semijoin", [](const PRelation& in, ExecStats* stats) {
                   return PSemiJoin(*Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")), in,
                                    PreferredDirectors(), stats);
                 }});
  auto recent = [](const PRelation& in) {
    ExecStats scratch;
    return *PSelect(*Ge(Col("year"), Lit(int64_t{2000})), in, &scratch);
  };
  ops.push_back({"union", [recent](const PRelation& in, ExecStats* stats) {
                   return PUnion(recent(in), in, fsum, stats);
                 }});
  ops.push_back({"union_owning", [recent](const PRelation& in, ExecStats* stats) {
                   PRelation right = recent(in);
                   return PUnion(in, PRelation(right.Gather(), right.pairs), fsum,
                                 stats);
                 }});
  ops.push_back({"intersect", [recent](const PRelation& in, ExecStats* stats) {
                   return PIntersect(in, recent(in), fsum, stats);
                 }});
  ops.push_back({"except", [recent](const PRelation& in, ExecStats* stats) {
                   return PDiff(in, recent(in), stats);
                 }});
  ops.push_back({"distinct", [](const PRelation& in, ExecStats* stats) {
                   return PDistinct(in, stats);
                 }});
  ops.push_back({"sort", [](const PRelation& in, ExecStats* stats) {
                   return PSort({{"year", true}}, in, stats);
                 }});
  ops.push_back({"limit", [](const PRelation& in, ExecStats* stats) {
                   return PLimit(25, in, stats);
                 }});
  return ops;
}

bool HasColumn(const PRelation& p, const char* name) {
  return p.schema().FindColumnOrNegative(name) >= 0;
}

TEST(ViewOpsTest, EveryOperatorMatchesMaterializedSemanticsOnEveryShape) {
  size_t compared = 0;
  for (const Shape& shape : Shapes()) {
    ASSERT_GT(shape.input.NumRows(), 64u) << shape.name;
    // The materialized input: the same rows and pairs, gathered.
    const PRelation gathered(shape.input.Gather(), shape.input.pairs);
    for (const auto& [op_name, op] : Operators()) {
      // Joins with DIRECTORS need a MOVIES side without DIRECTORS columns.
      const bool joins = op_name.find("join") != std::string::npos;
      if (joins && HasColumn(shape.input, "DIRECTORS.d_id")) continue;
      if (op_name == "project" && !HasColumn(shape.input, "MOVIES.title")) continue;
      const std::string label = shape.name + " / " + op_name;
      ExecStats expected_stats;
      StatusOr<PRelation> expected = op(gathered, &expected_stats);
      ASSERT_TRUE(expected.ok()) << label << ": " << expected.status().ToString();
      const Relation expected_rows = ToScoredRelation(*expected);
      ExecStats stats;
      StatusOr<PRelation> actual = op(shape.input, &stats);
      ASSERT_TRUE(actual.ok()) << label << ": " << actual.status().ToString();
      ASSERT_EQ(actual->pairs.size(), actual->NumRows()) << label;
      const Relation actual_rows = ToScoredRelation(*actual);
      EXPECT_EQ(actual_rows.schema(), expected_rows.schema()) << label;
      EXPECT_EQ(actual_rows.key_columns(), expected_rows.key_columns()) << label;
      EXPECT_TRUE(actual_rows.rows() == expected_rows.rows())
          << label << ": rows, order or pairs differ";
      EXPECT_EQ(stats.tuples_materialized, expected_stats.tuples_materialized)
          << label;
      EXPECT_EQ(stats.score_entries_written, expected_stats.score_entries_written)
          << label;
      EXPECT_EQ(stats.operator_invocations, expected_stats.operator_invocations)
          << label;
      compared += actual_rows.NumRows();
    }
  }
  EXPECT_GT(compared, 10000u);
}

// A prefer whose condition reads two inputs of a join view (the scratch
// path) and whose scoring reads one (the in-place path) scores like the
// gathered input.
TEST(ViewOpsTest, PreferReadsAcrossJoinInputs) {
  RowView joined = RunPlan(plan::Join(Eq(Col("MOVIES.m_id"), Col("GENRES.m_id")),
                                  plan::Scan("MOVIES"), plan::Scan("GENRES")));
  ASSERT_EQ(joined.width(), 2u);
  PreferencePtr pref =
      Pref("x", And(Ge(Col("year"), Lit(int64_t{1990})), Eq(Col("genre"), Lit("Drama"))),
           Recency(), 0.9);
  FSum fsum;
  ExecStats s1;
  ExecStats s2;
  StatusOr<PRelation> on_view = EvalPrefer(*pref, PRelation(joined), fsum, nullptr, &s1);
  StatusOr<PRelation> on_rows =
      EvalPrefer(*pref, PRelation(joined.Gather()), fsum, nullptr, &s2);
  ASSERT_TRUE(on_view.ok() && on_rows.ok());
  EXPECT_TRUE(ToScoredRelation(*on_view).rows() == ToScoredRelation(*on_rows).rows());
  EXPECT_GT(s1.score_entries_written, 0u);
  EXPECT_EQ(s1.score_entries_written, s2.score_entries_written);
}

}  // namespace
}  // namespace prefdb

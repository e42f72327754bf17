// Differential test of the join kernel (JoinRows) against a brute-force
// nested loop that evaluates the predicate on every gathered pair of rows.
// Random views of width 1-4 join under inner and semi joins, equi-only and
// residual predicates, with every build side: a base table's dense index,
// its hashed index, a per-query JoinTable, and no build (the nested loop).
// The output ids, their row order and the matched positions must be the
// reference's exactly.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/row_view.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "storage/table.h"
#include "test_util.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT

enum class BuildSide { kDenseIndex, kHashedIndex, kJoinTable, kNestedLoop };

// How a table's join key column is filled: ints `stride` apart (1 is dense,
// 1009 too sparse for the dense layout), or, for a left table, doubles
// holding those ints.
struct KeyShape {
  int64_t domain;
  int64_t stride;
  bool doubles;
};

// A table `name`(id, k, a) of `rows` rows: k is a key drawn from `shape`
// (NULL one time in ten), a a small int for the residual predicate.
std::shared_ptr<Table> RandomTable(const std::string& name, int64_t rows,
                                   const KeyShape& shape, Rng* rng) {
  std::vector<Tuple> tuples;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t key = shape.stride * rng->Uniform(0, shape.domain);
    Value k = rng->Bernoulli(0.1) ? Value::Null()
              : shape.doubles     ? Value::Double(static_cast<double>(key))
                                  : Value::Int(key);
    tuples.push_back({Value::Int(r), std::move(k), Value::Int(rng->Uniform(0, 9))});
  }
  Schema schema({{"", "id", ValueType::kInt},
                 {"", "k", ValueType::kInt},
                 {"", "a", ValueType::kInt}});
  StatusOr<std::unique_ptr<Table>> table =
      Table::Create(name, std::move(schema), std::move(tuples), {"id"});
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return std::shared_ptr<Table>(std::move(*table));
}

// A view over `tables` (one input each, every column in order) holding
// `rows` rows of random ids, duplicates allowed.
RowView RandomView(const std::vector<std::shared_ptr<Table>>& tables, int64_t rows,
                   Rng* rng) {
  RowView view;
  for (size_t k = 0; k < tables.size(); ++k) {
    const Table& t = *tables[k];
    view.schema = std::move(view.schema).Concat(t.schema());
    view.sources.push_back(&t.store());
    for (uint32_t c = 0; c < t.schema().size(); ++c) {
      view.columns.push_back({static_cast<uint32_t>(k), c});
    }
    view.owned.push_back(tables[k]);
    if (t.NumRows() == 0) rows = 0;
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (const std::shared_ptr<Table>& t : tables) {
      view.ids.push_back(static_cast<uint32_t>(
          rng->Uniform(0, static_cast<int64_t>(t->NumRows()) - 1)));
    }
  }
  return view;
}

struct Reference {
  std::vector<uint32_t> ids;
  JoinPositions positions;
};

// The join by definition: every (left, right) pair, in left order then
// right order, kept when the predicate evaluates true on the gathered row.
Reference NestedLoop(const RowView& left, const RowView& right, const Expr& bound,
                     bool semi) {
  Reference ref;
  for (size_t i = 0; i < left.NumRows(); ++i) {
    const Tuple l = left.GatherRow(i);
    for (size_t j = 0; j < right.NumRows(); ++j) {
      Tuple row = l;
      const Tuple r = right.GatherRow(j);
      row.insert(row.end(), r.begin(), r.end());
      if (!IsTruthy(bound.Eval(row))) continue;
      ref.ids.insert(ref.ids.end(), left.Row(i), left.Row(i) + left.width());
      ref.positions.left.push_back(static_cast<uint32_t>(i));
      if (semi) break;
      ref.ids.insert(ref.ids.end(), right.Row(j), right.Row(j) + right.width());
      ref.positions.right.push_back(static_cast<uint32_t>(j));
    }
  }
  return ref;
}

TEST(JoinRowsTest, MatchesNestedLoopOnEveryBuildSide) {
  Rng rng(20261021);
  size_t layouts[2] = {0, 0};  // Index rounds that ran hashed, dense.
  size_t matched = 0;
  for (int round = 0; round < 400; ++round) {
    const auto side = static_cast<BuildSide>(round % 4);
    const bool semi = rng.Bernoulli(0.5);
    const bool residual = rng.Bernoulli(0.5);
    const int64_t domain = rng.Uniform(0, 30);
    const int64_t stride = side == BuildSide::kHashedIndex ? 1009
                           : side == BuildSide::kDenseIndex ? 1
                           : rng.Bernoulli(0.5)             ? 1
                                                            : 1009;
    const bool index = side == BuildSide::kDenseIndex || side == BuildSide::kHashedIndex;

    std::vector<std::shared_ptr<Table>> left_tables;
    const int64_t left_width = rng.Uniform(1, 4);
    for (int64_t k = 0; k < left_width; ++k) {
      const KeyShape shape{domain, stride, rng.Bernoulli(0.25)};
      left_tables.push_back(
          RandomTable("L" + std::to_string(k), rng.Uniform(0, 40), shape, &rng));
    }
    std::vector<std::shared_ptr<Table>> right_tables;
    const int64_t right_width = index ? 1 : rng.Uniform(1, 4);
    for (int64_t k = 0; k < right_width; ++k) {
      right_tables.push_back(RandomTable("R" + std::to_string(k), rng.Uniform(0, 40),
                                         KeyShape{domain, stride, false}, &rng));
    }
    RowView left = RandomView(left_tables, rng.Uniform(0, 60), &rng);
    // An index serves only the identity view over its table.
    RowView right = index ? testing_util::TableView(right_tables[0])
                          : RandomView(right_tables, rng.Uniform(0, 60), &rng);

    const std::string lk = "L" + std::to_string(rng.Uniform(0, left_width - 1));
    const std::string rk = "R" + std::to_string(rng.Uniform(0, right_width - 1));
    ExprPtr predicate = Eq(Col(lk + ".k"), Col(rk + ".k"));
    if (residual) {
      predicate = And(std::move(predicate),
                      Lt(Col("L0.a"), Add(Col(rk + ".a"), Lit(int64_t{2}))));
    }
    ExprPtr bound = predicate->Clone();
    ASSERT_TRUE(bound->Bind(left.schema.Concat(right.schema)).ok());
    StatusOr<std::optional<EquiKeys>> keys =
        FindEquiKeys(*predicate, left.schema, right.schema);
    ASSERT_TRUE(keys.ok() && keys->has_value());
    ASSERT_EQ((*keys)->equi_only, !residual);

    std::optional<JoinBuild> build;
    if (index) {
      const HashIndex& table_index =
          right_tables[0]->EnsureIndex(right.columns[(*keys)->right].column);
      ++layouts[table_index.dense() ? 1 : 0];
      build.emplace(right, **keys, &table_index);
    } else if (side == BuildSide::kJoinTable) {
      build.emplace(right, **keys, nullptr);
    }
    const JoinBuild* b = build.has_value() ? &*build : nullptr;

    const Reference ref = NestedLoop(left, right, *bound, semi);
    JoinPositions positions;
    const RowView out = JoinRows(left, right, *bound, semi, b, nullptr, &positions);
    const std::string where = "round " + std::to_string(round) + " side " +
                              std::to_string(static_cast<int>(side)) +
                              (semi ? " semi" : " inner") +
                              (residual ? " residual" : " equi");
    ASSERT_EQ(out.width(), semi ? left.width() : left.width() + right.width()) << where;
    ASSERT_EQ(out.columns.size(), out.schema.size()) << where;
    ASSERT_EQ(out.ids, ref.ids) << where;
    ASSERT_EQ(positions.left, ref.positions.left) << where;
    ASSERT_EQ(positions.right, ref.positions.right) << where;
    // Without `positions` the kernel returns the same ids.
    ASSERT_EQ(JoinRows(left, right, *bound, semi, b, nullptr, nullptr).ids, ref.ids)
        << where;
    matched += ref.positions.left.size();
  }
  // Both index layouts ran, and the joins matched rows.
  EXPECT_GT(layouts[0], 50u);
  EXPECT_GT(layouts[1], 50u);
  EXPECT_GT(matched, 1000u);
}

}  // namespace
}  // namespace prefdb

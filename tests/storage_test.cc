#include "storage/catalog.h"

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace prefdb {
namespace {

using testing_util::D;
using testing_util::I;
using testing_util::N;
using testing_util::S;

using Positions = std::vector<uint32_t>;

Positions ToVector(std::span<const uint32_t> span) {
  return Positions(span.begin(), span.end());
}

Relation OneColumn(std::vector<Value> keys) {
  Relation rel(Schema({{"T", "k", ValueType::kInt}}));
  for (Value& key : keys) rel.AddRow({std::move(key)});
  return rel;
}

TEST(TableTest, CreateQualifiesSchemaWithName) {
  auto table = Table::Create(
      "T", Schema({{"", "id", ValueType::kInt}, {"", "x", ValueType::kString}}),
      {{I(1), S("a")}, {I(2), S("b")}}, {"id"});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->schema().column(0).qualifier, "T");
  EXPECT_EQ((*table)->NumRows(), 2u);
  EXPECT_EQ((*table)->primary_key(), std::vector<size_t>{0});
}

TEST(TableTest, CreateViewKeepsTheViewsQualifiers) {
  Relation rows(Schema({{"MOVIES", "m_id", ValueType::kInt}}), {{I(1)}});
  rows.set_key_columns({0});
  std::unique_ptr<Table> table = Table::CreateView("TMP", RowView::Wrap(std::move(rows)));
  EXPECT_EQ(table->schema().column(0).qualifier, "MOVIES");
  EXPECT_EQ(table->NumRows(), 1u);
  EXPECT_EQ(table->primary_key(), std::vector<size_t>{0});
}

TEST(TableTest, CompositeKeysSortedCanonically) {
  auto table = Table::Create(
      "T",
      Schema({{"", "a", ValueType::kInt},
              {"", "b", ValueType::kInt},
              {"", "c", ValueType::kInt}}),
      {}, {"c", "a"});  // Declared out of order.
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->primary_key(), (std::vector<size_t>{0, 2}));
}

TEST(TableTest, CreateFailsOnUnknownKeyColumn) {
  auto table = Table::Create("T", Schema({{"", "a", ValueType::kInt}}), {},
                             {"missing"});
  EXPECT_FALSE(table.ok());
}

TEST(TableTest, CreateFailsOnMalformedRow) {
  auto table = Table::Create("T", Schema({{"", "a", ValueType::kInt}}),
                             {{I(1), I(2)}}, {"a"});
  EXPECT_FALSE(table.ok());
}

TEST(HashIndexTest, LookupFindsAllPositions) {
  Relation rel(Schema({{"T", "k", ValueType::kInt}}));
  rel.AddRow({I(5)});
  rel.AddRow({I(7)});
  rel.AddRow({I(5)});
  HashIndex index(rel, 0);
  EXPECT_EQ(index.NumKeys(), 2u);
  EXPECT_EQ(index.Lookup(I(5)).size(), 2u);
  EXPECT_EQ(index.Lookup(I(7)).size(), 1u);
  EXPECT_TRUE(index.Lookup(I(9)).empty());
}

TEST(HashIndexTest, NullIsOneKeyCountedOnce) {
  Relation rel = OneColumn({N(), I(1), N(), I(1), N()});
  HashIndex index(rel, 0);
  EXPECT_EQ(index.NumKeys(), 2u);
  EXPECT_EQ(ToVector(index.Lookup(N())), (Positions{0, 2, 4}));
  EXPECT_EQ(ToVector(index.Lookup(I(1))), (Positions{1, 3}));
}

TEST(HashIndexTest, IntAndEqualDoubleAreOneKey) {
  Relation rel = OneColumn({D(1.0), I(2), I(1), D(2.5), D(2.0)});
  HashIndex index(rel, 0);
  EXPECT_EQ(index.NumKeys(), 3u);
  EXPECT_EQ(ToVector(index.Lookup(I(1))), (Positions{0, 2}));
  EXPECT_EQ(ToVector(index.Lookup(D(1.0))), (Positions{0, 2}));
  EXPECT_EQ(ToVector(index.Lookup(D(2.0))), (Positions{1, 4}));
  EXPECT_EQ(ToVector(index.Lookup(D(2.5))), (Positions{3}));
}

TEST(HashIndexTest, PositionsAscendWithinKey) {
  std::vector<Value> keys;
  for (int i = 0; i < 300; ++i) keys.push_back(I((i * 7) % 5));
  Relation rel = OneColumn(std::move(keys));
  HashIndex index(rel, 0);
  ASSERT_EQ(index.NumKeys(), 5u);
  for (int64_t k = 0; k < 5; ++k) {
    Positions positions = ToVector(index.Lookup(I(k)));
    EXPECT_EQ(positions.size(), 60u);
    EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
    for (uint32_t pos : positions) EXPECT_EQ((pos * 7) % 5, k);
  }
}

TEST(HashIndexTest, AbsentKeyAndEmptyRelation) {
  Relation empty = OneColumn({});
  HashIndex none(empty, 0);
  EXPECT_EQ(none.NumKeys(), 0u);
  EXPECT_TRUE(none.Lookup(I(1)).empty());
  EXPECT_TRUE(none.Lookup(N()).empty());
  Relation rel = OneColumn({I(1), S("a")});
  HashIndex index(rel, 0);
  EXPECT_TRUE(index.Lookup(I(2)).empty());
  EXPECT_TRUE(index.Lookup(S("b")).empty());
  EXPECT_TRUE(index.Lookup(N()).empty());
}

TEST(HashIndexTest, GrowsThroughSeveralRehashes) {
  // 5000 distinct keys from a 16-slot start: about nine doublings.
  std::vector<Value> keys;
  for (int64_t i = 0; i < 10000; ++i) keys.push_back(I(i % 5000));
  Relation rel = OneColumn(std::move(keys));
  HashIndex index(rel, 0);
  EXPECT_EQ(index.NumKeys(), 5000u);
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_EQ(ToVector(index.Lookup(I(k))),
              (Positions{static_cast<uint32_t>(k), static_cast<uint32_t>(k + 5000)}))
        << "key " << k;
  }
  EXPECT_TRUE(index.Lookup(I(5000)).empty());
}

// Lookup against a naive ordered map from key to positions, over random
// relations mixing ints, integral and fractional doubles, NaN, strings and
// NULL, with heavy duplication.
TEST(HashIndexTest, MatchesNaiveMapOnRandomRelations) {
  Rng rng(20240917);
  auto random_key = [&rng](int64_t domain) -> Value {
    switch (rng.Uniform(0, 5)) {
      case 0:
        return N();
      case 1:
        return D(static_cast<double>(rng.Uniform(0, domain)));  // Equals an int.
      case 2:
        return D(static_cast<double>(rng.Uniform(0, domain)) + 0.5);
      case 3:
        return rng.Bernoulli(0.1) ? D(std::numeric_limits<double>::quiet_NaN())
                                  : Value::String(std::to_string(rng.Uniform(0, domain)));
      default:
        return I(rng.Uniform(0, domain));
    }
  };
  for (int round = 0; round < 200; ++round) {
    const int64_t rows = rng.Uniform(0, 400);
    const int64_t domain = rng.Uniform(1, 2 * rows + 1);
    std::vector<Value> keys;
    for (int64_t i = 0; i < rows; ++i) keys.push_back(random_key(domain));
    Relation rel = OneColumn(keys);
    HashIndex index(rel, 0);
    std::map<Value, Positions> naive;
    for (size_t i = 0; i < keys.size(); ++i) {
      naive[keys[i]].push_back(static_cast<uint32_t>(i));
    }
    ASSERT_EQ(index.NumKeys(), naive.size()) << "round " << round;
    for (const auto& [key, positions] : naive) {
      ASSERT_EQ(ToVector(index.Lookup(key)), positions)
          << "round " << round << " key " << key.ToString();
    }
    for (int probe = 0; probe < 20; ++probe) {
      Value key = random_key(3 * domain);
      auto it = naive.find(key);
      Positions expected = it == naive.end() ? Positions{} : it->second;
      ASSERT_EQ(ToVector(index.Lookup(key)), expected)
          << "round " << round << " probe " << key.ToString();
    }
  }
}

TEST(TableTest, EnsureIndexIsCachedAndQueryable) {
  auto table_or = Table::Create(
      "T", Schema({{"", "id", ValueType::kInt}, {"", "g", ValueType::kInt}}),
      {{I(1), I(10)}, {I(2), I(10)}, {I(3), I(20)}}, {"id"});
  ASSERT_TRUE(table_or.ok());
  Table& table = **table_or;
  EXPECT_FALSE(table.HasIndex(1));
  const HashIndex& index = table.EnsureIndex(1);
  EXPECT_TRUE(table.HasIndex(1));
  EXPECT_EQ(index.Lookup(I(10)).size(), 2u);
  EXPECT_EQ(&table.EnsureIndex(1), &index);  // Cached instance.
}

TEST(TableTest, StatsComputedAndCached) {
  auto table_or = Table::Create(
      "T", Schema({{"", "id", ValueType::kInt}, {"", "x", ValueType::kDouble}}),
      {{I(1), testing_util::D(1.5)},
       {I(2), testing_util::D(3.5)},
       {I(3), testing_util::N()},
       {I(4), testing_util::D(1.5)}},
      {"id"});
  ASSERT_TRUE(table_or.ok());
  Table& table = **table_or;
  const ColumnStats& stats = table.Stats(1);
  EXPECT_EQ(stats.row_count, 4u);
  EXPECT_EQ(stats.null_count, 1u);
  EXPECT_EQ(stats.distinct_count, 2u);
  EXPECT_TRUE(stats.has_range);
  EXPECT_DOUBLE_EQ(stats.min, 1.5);
  EXPECT_DOUBLE_EQ(stats.max, 3.5);
  EXPECT_EQ(&table.Stats(1), &stats);
}

TEST(TableTest, StatsOnStringColumnHasNoRange) {
  auto table_or = Table::Create(
      "T", Schema({{"", "s", ValueType::kString}}), {{S("a")}, {S("b")}}, {"s"});
  ASSERT_TRUE(table_or.ok());
  EXPECT_FALSE((*table_or)->Stats(0).has_range);
  EXPECT_EQ((*table_or)->Stats(0).distinct_count, 2u);
}

TEST(CatalogTest, AddAndGet) {
  Catalog catalog = testing_util::MakeMovieCatalog();
  EXPECT_TRUE(catalog.HasTable("MOVIES"));
  EXPECT_TRUE(catalog.HasTable("movies"));  // Case-insensitive.
  auto table = catalog.GetTable("movies");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->name(), "MOVIES");
  EXPECT_FALSE(catalog.GetTable("NOPE").ok());
}

TEST(CatalogTest, DuplicateNameRejected) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.CreateTable("T", Schema({{"", "a", ValueType::kInt}}), {}, {"a"})
          .ok());
  Status st =
      catalog.CreateTable("t", Schema({{"", "a", ValueType::kInt}}), {}, {"a"});
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, DropTable) {
  Catalog catalog = testing_util::MakeMovieCatalog();
  EXPECT_TRUE(catalog.HasTable("AWARDS"));
  catalog.DropTable("awards");
  EXPECT_FALSE(catalog.HasTable("AWARDS"));
  catalog.DropTable("awards");  // Idempotent.
}

TEST(CatalogTest, TableNamesSortedAndTotals) {
  Catalog catalog = testing_util::MakeMovieCatalog();
  std::vector<std::string> names = catalog.TableNames();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names.front(), "AWARDS");
  EXPECT_EQ(names.back(), "RATINGS");
  EXPECT_EQ(catalog.TotalRows(), 5u + 3u + 6u + 4u + 1u);
}

}  // namespace
}  // namespace prefdb

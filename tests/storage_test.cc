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

// A typed column holding `keys`, in its data-chosen layout.
TypedColumn OneColumn(const std::vector<Value>& keys) {
  std::vector<ValueView> cells;
  for (const Value& key : keys) cells.push_back(key.view());
  return TypedColumn::Build(cells);
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
  std::unique_ptr<Table> table = Table::CreateView("TMP", RowView::Wrap(rows));
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
  TypedColumn rel = OneColumn({I(5), I(7), I(5)});
  HashIndex index(rel);
  EXPECT_EQ(index.NumKeys(), 2u);
  EXPECT_EQ(index.Lookup(I(5)).size(), 2u);
  EXPECT_EQ(index.Lookup(I(7)).size(), 1u);
  EXPECT_TRUE(index.Lookup(I(9)).empty());
}

TEST(HashIndexTest, NullIsOneKeyCountedOnce) {
  TypedColumn rel = OneColumn({N(), I(1), N(), I(1), N()});
  HashIndex index(rel);
  EXPECT_EQ(index.NumKeys(), 2u);
  EXPECT_EQ(ToVector(index.Lookup(N())), (Positions{0, 2, 4}));
  EXPECT_EQ(ToVector(index.Lookup(I(1))), (Positions{1, 3}));
}

TEST(HashIndexTest, IntAndEqualDoubleAreOneKey) {
  TypedColumn rel = OneColumn({D(1.0), I(2), I(1), D(2.5), D(2.0)});
  HashIndex index(rel);
  EXPECT_EQ(index.NumKeys(), 3u);
  EXPECT_EQ(ToVector(index.Lookup(I(1))), (Positions{0, 2}));
  EXPECT_EQ(ToVector(index.Lookup(D(1.0))), (Positions{0, 2}));
  EXPECT_EQ(ToVector(index.Lookup(D(2.0))), (Positions{1, 4}));
  EXPECT_EQ(ToVector(index.Lookup(D(2.5))), (Positions{3}));
}

TEST(HashIndexTest, PositionsAscendWithinKey) {
  std::vector<Value> keys;
  for (int i = 0; i < 300; ++i) keys.push_back(I((i * 7) % 5));
  TypedColumn rel = OneColumn(std::move(keys));
  HashIndex index(rel);
  ASSERT_EQ(index.NumKeys(), 5u);
  for (int64_t k = 0; k < 5; ++k) {
    Positions positions = ToVector(index.Lookup(I(k)));
    EXPECT_EQ(positions.size(), 60u);
    EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
    for (uint32_t pos : positions) EXPECT_EQ((pos * 7) % 5, k);
  }
}

TEST(HashIndexTest, AbsentKeyAndEmptyRelation) {
  TypedColumn empty = OneColumn({});
  HashIndex none(empty);
  EXPECT_EQ(none.NumKeys(), 0u);
  EXPECT_TRUE(none.Lookup(I(1)).empty());
  EXPECT_TRUE(none.Lookup(N()).empty());
  TypedColumn rel = OneColumn({I(1), S("a")});
  HashIndex index(rel);
  EXPECT_TRUE(index.Lookup(I(2)).empty());
  EXPECT_TRUE(index.Lookup(S("b")).empty());
  EXPECT_TRUE(index.Lookup(N()).empty());
}

TEST(HashIndexTest, GrowsThroughSeveralRehashes) {
  // 5000 distinct keys from a 16-slot start: about nine doublings. The keys
  // are 1009 apart, too sparse for the dense layout, so the slots rehash.
  std::vector<Value> keys;
  for (int64_t i = 0; i < 10000; ++i) keys.push_back(I(i % 5000 * 1009));
  TypedColumn rel = OneColumn(std::move(keys));
  HashIndex index(rel);
  ASSERT_FALSE(index.dense());
  EXPECT_EQ(index.NumKeys(), 5000u);
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_EQ(ToVector(index.Lookup(I(k * 1009))),
              (Positions{static_cast<uint32_t>(k), static_cast<uint32_t>(k + 5000)}))
        << "key " << k;
    ASSERT_TRUE(index.Lookup(I(k * 1009 + 1)).empty()) << "key " << k;
  }
  EXPECT_TRUE(index.Lookup(I(5000 * 1009)).empty());
}

// A kInt column whose keys are dense is direct-addressed: negative keys,
// NULLs among them, probes just outside [min, max] and a double probe.
TEST(HashIndexTest, DenseLayoutOverNegativeKeysAndNulls) {
  TypedColumn col = OneColumn({I(-3), N(), I(2), I(0), I(-3), N(), I(2), I(-1)});
  ASSERT_EQ(col.layout(), ColumnLayout::kInt);
  HashIndex index(col);
  ASSERT_TRUE(index.dense());
  EXPECT_TRUE(index.int_keys());
  EXPECT_EQ(index.NumKeys(), 5u);  // -3, -1, 0, 2 and NULL.
  EXPECT_EQ(ToVector(index.Lookup(I(-3))), (Positions{0, 4}));
  EXPECT_EQ(ToVector(index.Lookup(I(-1))), (Positions{7}));
  EXPECT_EQ(ToVector(index.Lookup(I(0))), (Positions{3}));
  EXPECT_EQ(ToVector(index.Lookup(I(2))), (Positions{2, 6}));
  EXPECT_EQ(ToVector(index.Lookup(N())), (Positions{1, 5}));
  // Gaps inside the range, and one past either end.
  EXPECT_TRUE(index.Lookup(I(-2)).empty());
  EXPECT_TRUE(index.Lookup(I(1)).empty());
  EXPECT_TRUE(index.LookupInt(-4).empty());
  EXPECT_TRUE(index.LookupInt(3).empty());
  EXPECT_TRUE(index.LookupInt(std::numeric_limits<int64_t>::min()).empty());
  EXPECT_TRUE(index.LookupInt(std::numeric_limits<int64_t>::max()).empty());
  // A double equal to an int key finds its rows; any other does not.
  EXPECT_EQ(ToVector(index.Lookup(D(2.0))), (Positions{2, 6}));
  EXPECT_TRUE(index.Lookup(D(2.5)).empty());
  EXPECT_TRUE(index.Lookup(D(3.0)).empty());
  EXPECT_TRUE(index.Lookup(S("2")).empty());
}

TEST(HashIndexTest, DenseLayoutOverOneKeyEmptyAndNullColumns) {
  TypedColumn one = OneColumn({I(7), I(7), I(7)});
  HashIndex single(one);
  ASSERT_TRUE(single.dense());
  EXPECT_EQ(single.NumKeys(), 1u);
  EXPECT_EQ(ToVector(single.Lookup(I(7))), (Positions{0, 1, 2}));
  EXPECT_TRUE(single.Lookup(I(6)).empty());
  EXPECT_TRUE(single.Lookup(I(8)).empty());
  EXPECT_TRUE(single.Lookup(N()).empty());

  TypedColumn empty = OneColumn({});
  ASSERT_EQ(empty.layout(), ColumnLayout::kInt);
  HashIndex none(empty);
  EXPECT_TRUE(none.dense());
  EXPECT_EQ(none.NumKeys(), 0u);
  EXPECT_TRUE(none.Lookup(I(0)).empty());
  EXPECT_TRUE(none.Lookup(N()).empty());

  TypedColumn nulls = OneColumn({N(), N()});
  ASSERT_EQ(nulls.layout(), ColumnLayout::kInt);
  HashIndex only_null(nulls);
  EXPECT_TRUE(only_null.dense());
  EXPECT_EQ(only_null.NumKeys(), 1u);
  EXPECT_EQ(ToVector(only_null.Lookup(N())), (Positions{0, 1}));
  EXPECT_TRUE(only_null.Lookup(I(0)).empty());
}

// INT64_MIN and INT64_MAX in one column: max - min + 1 wraps, and the index
// must hash rather than size a range from it.
TEST(HashIndexTest, FullInt64RangeFallsBackToHashing) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  TypedColumn col = OneColumn({I(hi), I(0), I(lo), I(hi)});
  HashIndex index(col);
  EXPECT_FALSE(index.dense());
  EXPECT_TRUE(index.int_keys());
  EXPECT_EQ(index.NumKeys(), 3u);
  EXPECT_EQ(ToVector(index.Lookup(I(lo))), (Positions{2}));
  EXPECT_EQ(ToVector(index.Lookup(I(hi))), (Positions{0, 3}));
  EXPECT_TRUE(index.Lookup(I(lo + 1)).empty());
  // A dense range at the bottom of int64: probes far above it wrap past the
  // range, not into it.
  TypedColumn low = OneColumn({I(lo + 2), I(lo)});
  HashIndex bottom(low);
  ASSERT_TRUE(bottom.dense());
  EXPECT_EQ(ToVector(bottom.Lookup(I(lo))), (Positions{1}));
  EXPECT_EQ(ToVector(bottom.Lookup(I(lo + 2))), (Positions{0}));
  EXPECT_TRUE(bottom.Lookup(I(hi)).empty());
  EXPECT_TRUE(bottom.Lookup(I(0)).empty());
}

// Both layouts against a naive map over random kInt columns with NULLs:
// keys spread `stride` apart from a random (possibly negative) base, so
// some columns are dense and some hashed.
TEST(HashIndexTest, BothIntLayoutsMatchNaiveMap) {
  Rng rng(20261021);
  size_t dense = 0;
  size_t hashed = 0;
  for (int round = 0; round < 300; ++round) {
    const int64_t rows = rng.Uniform(1, 500);
    const int64_t domain = rng.Uniform(1, rows + 1);
    const int64_t stride = rng.Bernoulli(0.5) ? 1 : rng.Uniform(2, 100);
    const int64_t base = rng.Uniform(-1000000, 1000000);
    std::vector<Value> keys;
    for (int64_t i = 0; i < rows; ++i) {
      keys.push_back(rng.Bernoulli(0.1) ? N() : I(base + stride * rng.Uniform(0, domain)));
    }
    TypedColumn col = OneColumn(keys);
    ASSERT_EQ(col.layout(), ColumnLayout::kInt);
    HashIndex index(col);
    ++(index.dense() ? dense : hashed);
    std::map<Value, Positions> naive;
    for (size_t i = 0; i < keys.size(); ++i) {
      naive[keys[i]].push_back(static_cast<uint32_t>(i));
    }
    ASSERT_EQ(index.NumKeys(), naive.size()) << "round " << round;
    for (const auto& [key, positions] : naive) {
      ASSERT_EQ(ToVector(index.Lookup(key)), positions)
          << "round " << round << " key " << key.ToString();
    }
    // Every key in reach, its neighbours, and one step past either end.
    for (int64_t d = -1; d <= domain + 1; ++d) {
      for (int64_t off = -1; off <= 1; ++off) {
        const int64_t probe = base + stride * d + off;
        auto it = naive.find(I(probe));
        Positions expected = it == naive.end() ? Positions{} : it->second;
        ASSERT_EQ(ToVector(index.LookupInt(probe)), expected)
            << "round " << round << " probe " << probe;
      }
    }
  }
  EXPECT_GT(dense, 50u);
  EXPECT_GT(hashed, 50u);
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
    TypedColumn rel = OneColumn(keys);
    HashIndex index(rel);
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

// A probe with Double(2^53) finds the Int(2^53) row and not the
// Int(2^53 + 1) row: the int-keyed index compares exactly, like Value.
TEST(HashIndexTest, DoubleProbeMatchesOnlyTheExactInt) {
  const int64_t two53 = int64_t{1} << 53;
  TypedColumn col = OneColumn({I(two53 + 1), I(two53), N(), I(7)});
  ASSERT_EQ(col.layout(), ColumnLayout::kInt);
  HashIndex index(col);
  EXPECT_EQ(ToVector(index.Lookup(D(9007199254740992.0))), (Positions{1}));
  EXPECT_EQ(ToVector(index.Lookup(I(two53 + 1))), (Positions{0}));
  EXPECT_TRUE(index.Lookup(D(9223372036854775808.0)).empty());  // 2^63.
  EXPECT_TRUE(index.Lookup(D(7.5)).empty());
  EXPECT_EQ(ToVector(index.Lookup(D(7.0))), (Positions{3}));
  EXPECT_EQ(ToVector(index.Lookup(N())), (Positions{2}));
}

// Each column takes the layout its values select, and gives back exactly
// the values it was built from, type tags included.
TEST(ColumnStoreTest, LayoutFollowsTheValuesAndRoundTrips) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    std::vector<Value> values;
    ColumnLayout layout;
  };
  const std::vector<Case> cases = {
      {{I(1), N(), I(-3)}, ColumnLayout::kInt},
      {{N(), N()}, ColumnLayout::kInt},
      {{}, ColumnLayout::kInt},
      {{D(1.5), N(), D(nan), D(-0.0)}, ColumnLayout::kDouble},
      {{S("b"), S("a"), S("b"), N(), S(""), S("a")}, ColumnLayout::kDict},
      {{S("x"), S("y"), N()}, ColumnLayout::kArena},
      {{I(1), D(1.0), N()}, ColumnLayout::kValue},
      {{I(2), S("2")}, ColumnLayout::kValue},
  };
  for (const Case& c : cases) {
    TypedColumn col = OneColumn(c.values);
    EXPECT_EQ(col.layout(), c.layout) << c.values.size();
    ASSERT_EQ(col.size(), c.values.size());
    for (size_t r = 0; r < c.values.size(); ++r) {
      const Value got = col.Get(static_cast<uint32_t>(r));
      EXPECT_EQ(got.type(), c.values[r].type()) << r;
      EXPECT_EQ(got.ToString(), c.values[r].ToString()) << r;
      EXPECT_EQ(col.IsNull(static_cast<uint32_t>(r)), c.values[r].is_null());
    }
  }
  // The dictionary is sorted, so codes follow string order.
  TypedColumn dict = OneColumn({S("b"), S("a"), S("b"), S(""), S("a"), S("b")});
  ASSERT_EQ(dict.layout(), ColumnLayout::kDict);
  EXPECT_EQ(dict.dictionary(), (std::vector<std::string>{"", "a", "b"}));
  EXPECT_EQ(dict.codes()[0], 2u);
}

// A table gathers back exactly the rows it was created from, a mixed-type
// column included.
TEST(TableTest, GatherRoundTripsTheRowsWithTheirTypes) {
  std::vector<Tuple> rows = {{I(1), D(2.0), S("a"), I(5)},
                             {I(2), N(), S("a"), D(5.5)},
                             {I(3), D(-1.25), N(), S("five")},
                             {I(4), D(0.0), S("b"), N()}};
  auto table = Table::Create("T",
                             Schema({{"", "id", ValueType::kInt},
                                     {"", "x", ValueType::kDouble},
                                     {"", "s", ValueType::kString},
                                     {"", "mixed", ValueType::kInt}}),
                             rows, {"id"});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->store().column(3).layout(), ColumnLayout::kValue);
  const Relation back = (*table)->Gather();
  ASSERT_EQ(back.NumRows(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      EXPECT_EQ(back.rows()[r][c].type(), rows[r][c].type()) << r << "," << c;
      EXPECT_EQ(back.rows()[r][c], rows[r][c]) << r << "," << c;
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

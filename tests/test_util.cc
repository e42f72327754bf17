#include "test_util.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace prefdb {
namespace testing_util {

RowView TableView(const std::shared_ptr<Table>& table) {
  return RowView::Of(table->schema(), table->primary_key(), table->store(), table);
}

void KeyedPairs::Set(const Tuple& key, const ScoreConf& pair) {
  if (pair.IsDefault()) {
    map_.erase(key);
  } else {
    map_[key] = pair;
  }
}

ScoreConf KeyedPairs::Lookup(const Tuple& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? ScoreConf() : it->second;
}

KeyedPairs ScoresByKey(const PRelation& p) {
  KeyedPairs out;
  for (size_t i = 0; i < p.NumRows(); ++i) {
    if (p.pairs[i].IsDefault()) continue;
    out.Set(ProjectTuple(p.view.GatherRow(i), p.key_columns()), p.pairs[i]);
  }
  return out;
}

PRelation WithPairs(const Relation& relation, const KeyedPairs& scores) {
  std::vector<ScoreConf> pairs;
  pairs.reserve(relation.NumRows());
  for (const Tuple& row : relation.rows()) {
    pairs.push_back(scores.Lookup(relation.KeyOf(row)));
  }
  return PRelation(relation, std::move(pairs));
}

Catalog MakeMovieCatalog() {
  Catalog catalog;
  Status st = catalog.CreateTable(
      "MOVIES",
      Schema({{"", "m_id", ValueType::kInt},
              {"", "title", ValueType::kString},
              {"", "year", ValueType::kInt},
              {"", "duration", ValueType::kInt},
              {"", "d_id", ValueType::kInt}}),
      {
          {I(1), S("Gran Torino"), I(2008), I(116), I(1)},
          {I(2), S("Wall Street"), I(2010), I(133), I(3)},
          {I(3), S("Million Dollar Baby"), I(2004), I(132), I(1)},
          {I(4), S("Match Point"), I(2005), I(124), I(2)},
          {I(5), S("Scoop"), I(2006), I(96), I(2)},
      },
      {"m_id"});
  EXPECT_TRUE(st.ok()) << st.ToString();

  st = catalog.CreateTable(
      "DIRECTORS",
      Schema({{"", "d_id", ValueType::kInt}, {"", "director", ValueType::kString}}),
      {
          {I(1), S("C. Eastwood")},
          {I(2), S("W. Allen")},
          {I(3), S("O. Stone")},
      },
      {"d_id"});
  EXPECT_TRUE(st.ok()) << st.ToString();

  st = catalog.CreateTable(
      "GENRES",
      Schema({{"", "m_id", ValueType::kInt}, {"", "genre", ValueType::kString}}),
      {
          {I(1), S("Drama")},
          {I(2), S("Drama")},
          {I(3), S("Drama")},
          {I(3), S("Sport")},
          {I(4), S("Thriller")},
          {I(5), S("Comedy")},
      },
      {"m_id", "genre"});
  EXPECT_TRUE(st.ok()) << st.ToString();

  st = catalog.CreateTable(
      "RATINGS",
      Schema({{"", "m_id", ValueType::kInt},
              {"", "rating", ValueType::kDouble},
              {"", "votes", ValueType::kInt}}),
      {
          {I(1), D(8.1), I(220000)},
          {I(3), D(8.1), I(540000)},
          {I(4), D(7.6), I(180000)},
          {I(5), D(6.7), I(90000)},
      },
      {"m_id"});
  EXPECT_TRUE(st.ok()) << st.ToString();

  st = catalog.CreateTable(
      "AWARDS",
      Schema({{"", "m_id", ValueType::kInt},
              {"", "award", ValueType::kString},
              {"", "year", ValueType::kInt}}),
      {
          {I(3), S("Oscar"), I(2005)},
      },
      {"m_id", "award"});
  EXPECT_TRUE(st.ok()) << st.ToString();
  return catalog;
}

std::vector<Tuple> SortedRows(const Relation& relation) {
  std::vector<Tuple> rows = relation.rows();
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

std::string RowsToString(const std::vector<Tuple>& rows) {
  std::string out;
  for (const Tuple& row : rows) out += TupleToString(row) + "\n";
  return out;
}

void ExpectSameRows(const Relation& actual, const Relation& expected,
                    double eps) {
  ASSERT_EQ(actual.NumRows(), expected.NumRows())
      << "actual:\n" << RowsToString(SortedRows(actual)) << "expected:\n"
      << RowsToString(SortedRows(expected));
  std::vector<Tuple> a = SortedRows(actual);
  std::vector<Tuple> e = SortedRows(expected);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), e[i].size()) << "row " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      const Value& av = a[i][j];
      const Value& ev = e[i][j];
      if (av.is_numeric() && ev.is_numeric()) {
        EXPECT_NEAR(av.NumericValue(), ev.NumericValue(), eps)
            << "row " << i << " col " << j;
      } else {
        EXPECT_EQ(av, ev) << "row " << i << " col " << j << "\nactual:\n"
                          << RowsToString(a) << "expected:\n" << RowsToString(e);
      }
    }
  }
}

}  // namespace testing_util
}  // namespace prefdb

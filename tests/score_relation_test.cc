#include "palgebra/score_relation.h"

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "palgebra/p_relation.h"
#include "test_util.h"

namespace prefdb {
namespace {

using testing_util::D;
using testing_util::I;
using testing_util::N;
using testing_util::S;

using Keys = ScoreRelation::Keys;

// A view over `rows`, every column a key column in order.
RowView KeyRows(const std::vector<Tuple>& rows) {
  std::vector<Column> columns;
  for (size_t c = 0; c < rows.front().size(); ++c) {
    columns.push_back({"T", "k" + std::to_string(c), ValueType::kInt});
  }
  Relation rel{Schema(columns)};
  std::vector<size_t> keys(columns.size());
  for (size_t c = 0; c < keys.size(); ++c) keys[c] = c;
  rel.set_key_columns(keys);
  for (const Tuple& row : rows) rel.AddRow(row);
  return RowView::Wrap(rel);
}

TEST(ScoreRelationTest, LookupMissYieldsDefault) {
  const RowView view = KeyRows({{I(1)}});
  const std::vector<Keys> keys = {{view, view.key_columns}};
  ScoreRelation sr(keys);
  EXPECT_TRUE(sr.Lookup(keys[0], 0).IsDefault());
  EXPECT_TRUE(sr.empty());
}

TEST(ScoreRelationTest, SetAndLookup) {
  const RowView view = KeyRows({{I(1)}, {I(2)}});
  const std::vector<Keys> keys = {{view, view.key_columns}};
  ScoreRelation sr(keys);
  sr.Set(keys[0], 0, ScoreConf::Known(0.8, 1.0));
  EXPECT_EQ(sr.size(), 1u);
  EXPECT_DOUBLE_EQ(sr.Lookup(keys[0], 0).score(), 0.8);
  EXPECT_TRUE(sr.Lookup(keys[0], 1).IsDefault());
}

TEST(ScoreRelationTest, DefaultPairsNotStored) {
  // The paper's invariant: R_P holds only non-default pairs, |R_P| <= |R|.
  const RowView view = KeyRows({{I(1)}});
  const std::vector<Keys> keys = {{view, view.key_columns}};
  ScoreRelation sr(keys);
  sr.Set(keys[0], 0, ScoreConf::Identity());
  EXPECT_TRUE(sr.empty());
  sr.Set(keys[0], 0, ScoreConf::Known(0.5, 0.5));
  EXPECT_EQ(sr.size(), 1u);
  // Overwriting with the default erases the entry.
  sr.Set(keys[0], 0, ScoreConf::Identity());
  EXPECT_TRUE(sr.empty());
  EXPECT_TRUE(sr.Lookup(keys[0], 0).IsDefault());
}

TEST(ScoreRelationTest, CompositeKeys) {
  const RowView view = KeyRows({{I(1), S("Comedy")}, {I(1), S("Drama")}});
  const std::vector<Keys> keys = {{view, view.key_columns}};
  ScoreRelation sr(keys);
  sr.Set(keys[0], 0, ScoreConf::Known(1.0, 0.8));
  sr.Set(keys[0], 1, ScoreConf::Known(0.4, 0.6));
  EXPECT_EQ(sr.size(), 2u);
  EXPECT_DOUBLE_EQ(sr.Lookup(keys[0], 0).score(), 1.0);
  EXPECT_DOUBLE_EQ(sr.Lookup(keys[0], 1).score(), 0.4);
}

TEST(ScoreRelationTest, ToStringShowsEntries) {
  const RowView view = KeyRows({{I(7)}});
  const std::vector<Keys> keys = {{view, view.key_columns}};
  ScoreRelation sr(keys);
  sr.Set(keys[0], 0, ScoreConf::Known(0.5, 0.9));
  std::string s = sr.ToString();
  EXPECT_NE(s.find("(7)"), std::string::npos);
  EXPECT_NE(s.find("0.500"), std::string::npos);
}

// Keys read at given columns of a wider view probe like the projected key,
// in key order; Fold combines into an existing entry and copies a new key.
TEST(ScoreRelationTest, KeysReadLikeProjectedKey) {
  const RowView stored = KeyRows({{I(1), S("Drama")}});
  Relation rel(Schema({{"T", "a", ValueType::kString},
                       {"T", "b", ValueType::kString},
                       {"T", "c", ValueType::kInt}}));
  rel.AddRow({S("ignored"), S("Drama"), I(1)});
  rel.AddRow({S("x"), S("Comedy"), I(1)});
  rel.AddRow({S("x"), S("Horror"), I(1)});
  const RowView view = RowView::Wrap(rel);
  const std::vector<Keys> keys = {
      {stored, stored.key_columns}, {view, {2, 1}}, {view, {1, 2}}};
  ScoreRelation sr(keys);
  sr.Set(keys[0], 0, ScoreConf::Known(0.4, 0.6));
  EXPECT_DOUBLE_EQ(sr.Lookup(keys[1], 0).score(), 0.4);
  EXPECT_TRUE(sr.Lookup(keys[2], 0).IsDefault());  // Wrong key order.
  FSum fsum;
  sr.Fold(keys[1], 0, ScoreConf::Known(0.8, 0.6), fsum);
  EXPECT_EQ(sr.size(), 1u);
  const ScoreConf& folded = sr.Lookup(keys[0], 0);
  EXPECT_NEAR(folded.score(), 0.6, 1e-12);
  EXPECT_NEAR(folded.conf(), 1.2, 1e-12);
  EXPECT_EQ(folded.count(), 2u);
  sr.Fold(keys[1], 1, ScoreConf::Known(0.2, 1.0), fsum);
  EXPECT_EQ(sr.size(), 2u);
  EXPECT_DOUBLE_EQ(sr.Lookup(keys[1], 1).score(), 0.2);
  // Folding the identity into a missing key stores nothing.
  sr.Fold(keys[1], 2, ScoreConf::Identity(), fsum);
  EXPECT_EQ(sr.size(), 2u);
}

// Align gives every row of a view its pair by key, row-aligned; the rows'
// non-default pairs give back the same R_P.
TEST(ScoreRelationTest, AlignIsRowAlignedByKey) {
  const RowView rows = KeyRows({{I(1)}, {I(2)}, {I(2)}});
  const RowView scored = KeyRows({{I(2)}});
  const std::vector<Keys> keys = {{rows, rows.key_columns},
                                  {scored, scored.key_columns}};
  ScoreRelation sr(keys);
  EXPECT_EQ(sr.Align(keys[0]).size(), 3u);
  sr.Set(keys[1], 0, ScoreConf::Known(0.9, 1.0));
  const std::vector<ScoreConf> pairs = sr.Align(keys[0]);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_TRUE(pairs[0].IsDefault());
  EXPECT_DOUBLE_EQ(pairs[1].score(), 0.9);
  EXPECT_DOUBLE_EQ(pairs[2].score(), 0.9);
  ScoreRelation round_trip(keys);
  for (size_t r = 0; r < pairs.size(); ++r) {
    if (!pairs[r].IsDefault()) round_trip.Set(keys[0], r, pairs[r]);
  }
  EXPECT_EQ(round_trip.size(), 1u);
  EXPECT_DOUBLE_EQ(round_trip.Lookup(keys[1], 0).score(), 0.9);
}

// The key codes each case reads, named by the fold and align spans.
TEST(ScoreRelationTest, DescribeNamesTheKeyPath) {
  const RowView ints = KeyRows({{I(1), S("a")}, {I(2), S("a")}, {I(2), S("b")},
                                {I(3), S("b")}});
  const RowView same_store = ints.Rows({3, 1});
  const RowView other_store = RowView::Wrap(same_store.Gather());
  const std::vector<Keys> shared = {{ints, ints.key_columns},
                                    {same_store, same_store.key_columns}};
  EXPECT_EQ(ScoreRelation(shared).Describe(), "keys=codes entries=0");
  const std::vector<Keys> copied = {{ints, ints.key_columns},
                                    {other_store, other_store.key_columns}};
  ScoreRelation interned(copied);
  EXPECT_EQ(interned.Describe(), "keys=interned entries=0");
  interned.Set(copied[1], 0, ScoreConf::Known(0.5, 1.0));
  EXPECT_EQ(interned.Describe(), "keys=interned entries=1");
  EXPECT_DOUBLE_EQ(interned.Lookup(copied[0], 3).score(), 0.5);
  EXPECT_TRUE(interned.Lookup(copied[0], 2).IsDefault());
}

// NULL matches NULL, and only NULL: not the int 0 a NULL kInt row holds,
// nor the first interned value.
TEST(ScoreRelationTest, NullKeysMatchOnlyNull) {
  const RowView view = KeyRows({{N(), S("x")}, {I(0), S("x")}, {N(), N()},
                                {I(0), N()}});
  const RowView copy = RowView::Wrap(view.Gather());
  const std::vector<Keys> keys = {{view, view.key_columns},
                                  {copy, copy.key_columns}};
  ScoreRelation sr(keys);
  sr.Set(keys[1], 0, ScoreConf::Known(0.1, 1.0));
  sr.Set(keys[1], 2, ScoreConf::Known(0.3, 1.0));
  EXPECT_DOUBLE_EQ(sr.Lookup(keys[0], 0).score(), 0.1);
  EXPECT_TRUE(sr.Lookup(keys[0], 1).IsDefault());
  EXPECT_DOUBLE_EQ(sr.Lookup(keys[0], 2).score(), 0.3);
  EXPECT_TRUE(sr.Lookup(keys[0], 3).IsDefault());
}

// --- Differential test against a Tuple-keyed reference R_P ---------------

// The reference: std::map over gathered key tuples (Value equality, so
// Int(1) = Double(1.0) and NULL = NULL), with the documented Set and Fold.
class Reference {
 public:
  void Store(const Tuple& key, const ScoreConf& pair, const AggregateFunction* agg) {
    auto it = map_.find(key);
    const ScoreConf old = it == map_.end() ? ScoreConf() : it->second;
    const ScoreConf next = agg != nullptr ? CombineCounted(*agg, old, pair) : pair;
    if (!next.IsDefault()) {
      map_[key] = next;
    } else if (it != map_.end()) {
      map_.erase(it);
    }
  }
  ScoreConf Lookup(const Tuple& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? ScoreConf() : it->second;
  }
  size_t size() const { return map_.size(); }

 private:
  std::map<Tuple, ScoreConf> map_;
};

enum class Kind { kInt, kDict, kArena, kDouble, kValue };

// Prototype row p's value in a column of `kind`. Values repeat across
// prototypes (a narrow key collides), kInt holds 0 next to NULL, kDouble
// holds integral doubles, and kValue mixes ints, doubles and strings.
Value Cell(Kind kind, size_t p, Rng* rng) {
  if (kind != Kind::kArena && rng->Bernoulli(0.15)) return N();
  const int64_t small = rng->Uniform(0, 3);
  switch (kind) {
    case Kind::kInt:
      return I(small);
    case Kind::kDict:
      return Value::String(std::string(1, static_cast<char>('a' + small)));
    case Kind::kArena:
      return Value::String("s" + std::to_string(p));  // Distinct: an arena.
    case Kind::kDouble:
      return D(0.5 * static_cast<double>(rng->Uniform(0, 5)));
    case Kind::kValue:
      return rng->Bernoulli(0.4) ? I(small)
             : rng->Bernoulli(0.5) ? D(static_cast<double>(small))
                                   : Value::String("v" + std::to_string(small));
  }
  return N();
}

// How the views of one round relate to R_NP's store.
enum class Stores {
  kShared,    // Row subsets of R_NP's one store.
  kJoined,    // Two-input views over two stores, like a join's output.
  kCopied,    // Each partial a gathered copy: a store of its own.
  kIntDouble  // Copies whose int columns hold the same numbers as doubles.
};

struct Round {
  RowView r_np;
  std::vector<RowView> partials;
};

// R_NP has 40 rows drawn from 24 prototypes (rows r and r + 24 share a
// key); a non-key column sits first and the key columns are listed in a
// shuffled order. Each partial holds 30 rows of R_NP, repeats allowed.
Round MakeRound(const std::vector<Kind>& kinds, Stores stores, Rng* rng) {
  constexpr size_t kPrototypes = 24;
  constexpr size_t kRows = 40;
  std::vector<Tuple> prototypes(kPrototypes);
  for (size_t p = 0; p < kPrototypes; ++p) {
    prototypes[p].push_back(I(static_cast<int64_t>(p)));
    for (Kind kind : kinds) prototypes[p].push_back(Cell(kind, p, rng));
  }
  const size_t width = kinds.size() + 1;
  std::vector<size_t> key_columns;
  for (size_t c = 1; c < width; ++c) key_columns.push_back(c);
  for (size_t c = key_columns.size(); c > 1; --c) {
    const auto j = static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(c) - 1));
    std::swap(key_columns[c - 1], key_columns[j]);
  }
  std::vector<Column> columns;
  for (size_t c = 0; c < width; ++c) {
    columns.push_back({"T", "c" + std::to_string(c), ValueType::kInt});
  }
  Relation rel{Schema(columns)};
  rel.set_key_columns(key_columns);
  for (size_t r = 0; r < kRows; ++r) rel.AddRow(prototypes[r % kPrototypes]);

  Round round;
  if (stores == Stores::kJoined) {
    // Columns [0, split) in one store, the rest in another stored in
    // reverse: row r of the view is (r, kRows - 1 - r).
    const size_t split = 1 + width / 2;
    std::vector<Tuple> left_rows;
    std::vector<Tuple> right_rows;
    for (const Tuple& row : rel.rows()) {
      left_rows.emplace_back(row.begin(), row.begin() + split);
      right_rows.emplace(right_rows.begin(), row.begin() + split, row.end());
    }
    auto left =
        std::make_shared<const ColumnStore>(ColumnStore::FromRows(left_rows, split));
    auto right = std::make_shared<const ColumnStore>(
        ColumnStore::FromRows(right_rows, width - split));
    RowView& view = round.r_np;
    view.schema = rel.schema();
    view.key_columns = key_columns;
    view.sources = {left.get(), right.get()};
    view.owned = {left, right};
    for (size_t c = 0; c < width; ++c) {
      const auto input = static_cast<uint32_t>(c < split ? 0 : 1);
      view.columns.push_back({input, static_cast<uint32_t>(c < split ? c : c - split)});
    }
    for (uint32_t r = 0; r < kRows; ++r) {
      view.ids.insert(view.ids.end(), {r, static_cast<uint32_t>(kRows - 1 - r)});
    }
  } else {
    round.r_np = RowView::Wrap(rel);
  }
  for (int p = 0; p < 3; ++p) {
    std::vector<uint32_t> rows;
    for (int i = 0; i < 30; ++i) {
      rows.push_back(static_cast<uint32_t>(rng->Uniform(0, kRows - 1)));
    }
    RowView partial = round.r_np.Rows(rows);
    if (stores == Stores::kCopied) partial = RowView::Wrap(partial.Gather());
    if (stores == Stores::kIntDouble) {
      Relation copy = partial.Gather();
      std::vector<Tuple> doubled;
      for (Tuple row : copy.rows()) {
        for (Value& v : row) {
          if (v.type() == ValueType::kInt) v = D(static_cast<double>(v.AsInt()));
        }
        doubled.push_back(std::move(row));
      }
      Relation as_doubles(copy.schema(), std::move(doubled));
      as_doubles.set_key_columns(copy.key_columns());
      partial = RowView::Wrap(as_doubles);
    }
    round.partials.push_back(std::move(partial));
  }
  return round;
}

void ExpectSamePair(const ScoreConf& actual, const ScoreConf& expected,
                    const std::string& where) {
  ASSERT_EQ(actual.IsDefault(), expected.IsDefault()) << where;
  if (expected.IsDefault()) return;
  EXPECT_EQ(actual.score(), expected.score()) << where;
  EXPECT_EQ(actual.conf(), expected.conf()) << where;
  EXPECT_EQ(actual.count(), expected.count()) << where;
}

// Folds and sets random pairs (some of them the default, which erases)
// through the partials' rows into both tables, then checks every row of
// every view, Align over R_NP, and |R_P|. With `presized`, the table is
// sized for the partials' rows as the plug-ins size it; otherwise it grows.
void CheckRound(const Round& round, const AggregateFunction& agg, Rng* rng,
                const std::string& label, bool expect_codes, bool presized) {
  std::vector<Keys> keys = {{round.r_np, round.r_np.key_columns}};
  size_t partial_rows = 0;
  for (const RowView& partial : round.partials) {
    keys.emplace_back(partial, partial.key_columns);
    partial_rows += partial.NumRows();
  }
  ScoreRelation table(keys, presized ? partial_rows : 0);
  Reference reference;
  auto key_of = [](const RowView& view, size_t r) {
    return ProjectTuple(view.GatherRow(r), view.key_columns);
  };
  for (size_t p = 0; p < round.partials.size(); ++p) {
    for (size_t r = 0; r < round.partials[p].NumRows(); ++r) {
      const ScoreConf pair = rng->Bernoulli(0.15)
                                 ? ScoreConf::Identity()
                                 : ScoreConf::Known(rng->UniformReal(0.0, 1.0),
                                                    rng->UniformReal(0.1, 1.0));
      const bool set = rng->Bernoulli(0.1);
      if (set) {
        table.Set(keys[p + 1], r, pair);
      } else {
        table.Fold(keys[p + 1], r, pair, agg);
      }
      reference.Store(key_of(round.partials[p], r), pair, set ? nullptr : &agg);
    }
  }
  EXPECT_EQ(table.size(), reference.size()) << label;
  EXPECT_EQ(table.Describe().rfind(expect_codes ? "keys=codes" : "keys=interned", 0), 0u)
      << label << ": " << table.Describe();
  for (size_t v = 0; v < keys.size(); ++v) {
    const RowView& view = v == 0 ? round.r_np : round.partials[v - 1];
    for (size_t r = 0; r < view.NumRows(); ++r) {
      ExpectSamePair(table.Lookup(keys[v], r), reference.Lookup(key_of(view, r)),
                     label + StrFormat(" view %zu row %zu", v, r));
    }
  }
  const std::vector<ScoreConf> aligned = table.Align(keys[0]);
  ASSERT_EQ(aligned.size(), round.r_np.NumRows());
  for (size_t r = 0; r < aligned.size(); ++r) {
    ExpectSamePair(aligned[r], reference.Lookup(key_of(round.r_np, r)),
                   label + StrFormat(" aligned row %zu", r));
  }
}

TEST(ScoreRelationDifferentialTest, MatchesTupleKeyedReference) {
  Rng rng(2012);
  const std::vector<const AggregateFunction*> aggs = AllAggregateFunctions();
  const Stores all_stores[] = {Stores::kShared, Stores::kJoined, Stores::kCopied,
                               Stores::kIntDouble};
  for (size_t width = 1; width <= 8; ++width) {
    for (Stores stores : all_stores) {
      for (int trial = 0; trial < 6; ++trial) {
        // Even trials: kInt/kDict keys only; odd: any layout.
        std::vector<Kind> kinds;
        for (size_t k = 0; k < width; ++k) {
          kinds.push_back(static_cast<Kind>(rng.Uniform(0, trial % 2 == 0 ? 1 : 4)));
        }
        if (stores == Stores::kIntDouble) kinds[0] = Kind::kInt;
        const Round round = MakeRound(kinds, stores, &rng);
        bool codes = true;
        for (size_t k = 0; k < width; ++k) {
          const TypedColumn& column = round.r_np.Column(round.r_np.key_columns[k]);
          codes &= column.layout() == ColumnLayout::kInt ||
                   (column.layout() == ColumnLayout::kDict && stores != Stores::kCopied &&
                    stores != Stores::kIntDouble);
          if (stores == Stores::kIntDouble && column.layout() == ColumnLayout::kInt) {
            codes = false;
          }
        }
        const std::string label = StrFormat("width %zu stores %d trial %d", width,
                                            static_cast<int>(stores), trial);
        // Trials 2 and 3 presize the table, one per layout mix.
        CheckRound(round, *aggs[static_cast<size_t>(trial) % aggs.size()], &rng,
                   label, codes, trial / 2 == 1);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// Int(1) and Double(1.0) are one key across two views, as under Value
// equality; 1.5 matches no int.
TEST(ScoreRelationDifferentialTest, IntMatchesEqualDouble) {
  const RowView ints = KeyRows({{I(1)}, {I(2)}, {I(3)}});
  const RowView doubles = KeyRows({{D(1.0)}, {D(1.5)}});
  const std::vector<Keys> keys = {{ints, ints.key_columns},
                                  {doubles, doubles.key_columns}};
  ScoreRelation sr(keys);
  sr.Set(keys[1], 0, ScoreConf::Known(0.7, 1.0));
  sr.Set(keys[1], 1, ScoreConf::Known(0.2, 1.0));
  const std::vector<ScoreConf> pairs = sr.Align(keys[0]);
  EXPECT_DOUBLE_EQ(pairs[0].score(), 0.7);
  EXPECT_TRUE(pairs[1].IsDefault());
  EXPECT_TRUE(pairs[2].IsDefault());
  EXPECT_EQ(sr.size(), 2u);
}

TEST(PRelationTest, ToScoredRelationAppendsColumns) {
  Relation rel(Schema({{"T", "id", ValueType::kInt}}));
  rel.set_key_columns({0});
  rel.AddRow({I(1)});
  rel.AddRow({I(2)});
  PRelation p(std::move(rel), {ScoreConf::Known(0.8, 1.2), ScoreConf()});

  Relation scored = ToScoredRelation(p);
  ASSERT_EQ(scored.schema().size(), 3u);
  EXPECT_EQ(scored.schema().column(1).name, "score");
  EXPECT_EQ(scored.schema().column(2).name, "conf");
  // Scored tuple.
  EXPECT_EQ(scored.rows()[0][1], D(0.8));
  EXPECT_EQ(scored.rows()[0][2], D(1.2));
  // Default tuple: NULL score (⊥), zero confidence.
  EXPECT_TRUE(scored.rows()[1][1].is_null());
  EXPECT_EQ(scored.rows()[1][2], D(0.0));
  // Keys carried through.
  EXPECT_EQ(scored.key_columns(), std::vector<size_t>{0});
}

TEST(PRelationTest, ToStringShowsScores) {
  Relation rel(Schema({{"T", "id", ValueType::kInt}}));
  rel.set_key_columns({0});
  rel.AddRow({I(1)});
  PRelation p(std::move(rel), {ScoreConf::Known(0.8, 1.0)});
  std::string s = p.ToString();
  EXPECT_NE(s.find("1 rows, 1 scored"), std::string::npos);
  EXPECT_NE(s.find("<0.800, 1.000>"), std::string::npos);
}

}  // namespace
}  // namespace prefdb

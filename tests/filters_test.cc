#include "palgebra/filters.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "test_util.h"

namespace prefdb {
namespace {

using testing_util::D;
using testing_util::I;
using testing_util::KeyedPairs;
using testing_util::N;
using testing_util::S;
using testing_util::WithPairs;

// A scored relation with one id column plus score/conf: the form produced by
// ToScoredRelation.
Relation MakeScored(std::vector<std::tuple<int64_t, Value, double>> rows) {
  Relation rel(Schema({{"T", "id", ValueType::kInt},
                       {"", "score", ValueType::kDouble},
                       {"", "conf", ValueType::kDouble}}));
  rel.set_key_columns({0});
  for (auto& [id, score, conf] : rows) {
    rel.AddRow({I(id), score, D(conf)});
  }
  return rel;
}

TEST(FilterSpecTest, FactoriesAndToString) {
  EXPECT_EQ(FilterSpec::TopK(10).ToString(), "top(10, score)");
  EXPECT_EQ(FilterSpec::TopK(3, FilterTarget::kConf).ToString(), "top(3, conf)");
  EXPECT_EQ(FilterSpec::Threshold(FilterTarget::kConf, 0.5).ToString(),
            "conf >= 0.500");
  EXPECT_EQ(FilterSpec::Threshold(FilterTarget::kScore, 0.2, true).ToString(),
            "score > 0.200");
  EXPECT_EQ(FilterSpec::RankAll().ToString(), "ranked");
  EXPECT_EQ(FilterSpec::NotDominated().ToString(), "not-dominated");
}

TEST(FiltersTest, TopKByScore) {
  Relation scored = MakeScored(
      {{1, D(0.5), 1.0}, {2, D(0.9), 0.2}, {3, D(0.7), 0.7}, {4, N(), 0.0}});
  auto out = ApplyFilter(scored, FilterSpec::TopK(2));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 2u);
  EXPECT_EQ(out->rows()[0][0], I(2));
  EXPECT_EQ(out->rows()[1][0], I(3));
}

TEST(FiltersTest, TopKByConf) {
  Relation scored = MakeScored({{1, D(0.5), 1.0}, {2, D(0.9), 0.2}});
  auto out = ApplyFilter(scored, FilterSpec::TopK(1, FilterTarget::kConf));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->rows()[0][0], I(1));
}

TEST(FiltersTest, TopKLargerThanInputKeepsAll) {
  Relation scored = MakeScored({{1, D(0.5), 1.0}});
  auto out = ApplyFilter(scored, FilterSpec::TopK(10));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 1u);
}

TEST(FiltersTest, UnknownScoreRanksLast) {
  Relation scored = MakeScored({{1, N(), 0.0}, {2, D(0.0), 0.1}});
  auto out = ApplyFilter(scored, FilterSpec::RankAll());
  ASSERT_TRUE(out.ok());
  // Known score 0.0 still beats ⊥.
  EXPECT_EQ(out->rows()[0][0], I(2));
  EXPECT_EQ(out->rows()[1][0], I(1));
}

TEST(FiltersTest, ScoreThreshold) {
  Relation scored = MakeScored({{1, D(0.5), 1.0}, {2, D(0.2), 1.0}, {3, N(), 0.0}});
  auto out = ApplyFilter(scored,
                         FilterSpec::Threshold(FilterTarget::kScore, 0.5));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);  // >= 0.5; ⊥ fails any score threshold.
  EXPECT_EQ(out->rows()[0][0], I(1));

  auto strict = ApplyFilter(
      scored, FilterSpec::Threshold(FilterTarget::kScore, 0.5, /*strict=*/true));
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->NumRows(), 0u);
}

TEST(FiltersTest, ConfThresholdSelectsCredibleTuples) {
  // Paper Example 10: disqualify tuples not relevant for many preferences.
  Relation scored = MakeScored({{1, D(1.0), 1.7}, {2, D(1.0), 0.8}});
  auto out =
      ApplyFilter(scored, FilterSpec::Threshold(FilterTarget::kConf, 1.5));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->rows()[0][0], I(1));
}

TEST(FiltersTest, RankAllOrdersByScoreThenConf) {
  Relation scored = MakeScored(
      {{1, D(0.5), 0.2}, {2, D(0.9), 0.1}, {3, D(0.5), 0.9}});
  auto out = ApplyFilter(scored, FilterSpec::RankAll());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows()[0][0], I(2));
  EXPECT_EQ(out->rows()[1][0], I(3));  // Equal score, higher conf first.
  EXPECT_EQ(out->rows()[2][0], I(1));
}

TEST(FiltersTest, NotDominatedComputesSkyline) {
  // Points: (0.9, 0.2), (0.5, 0.9), (0.4, 0.5) dominated by (0.5,0.9),
  // (0.9, 0.1) dominated by (0.9, 0.2).
  Relation scored = MakeScored({{1, D(0.9), 0.2},
                                {2, D(0.5), 0.9},
                                {3, D(0.4), 0.5},
                                {4, D(0.9), 0.1}});
  auto out = ApplyFilter(scored, FilterSpec::NotDominated());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 2u);
  EXPECT_EQ(out->rows()[0][0], I(1));
  EXPECT_EQ(out->rows()[1][0], I(2));
}

TEST(FiltersTest, NotDominatedKeepsExactDuplicates) {
  Relation scored = MakeScored({{1, D(0.9), 0.5}, {2, D(0.9), 0.5}});
  auto out = ApplyFilter(scored, FilterSpec::NotDominated());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);
}

TEST(FiltersTest, NotDominatedDropsEqualConfLowerScore) {
  Relation scored = MakeScored({{1, D(0.9), 0.5}, {2, D(0.4), 0.5}});
  auto out = ApplyFilter(scored, FilterSpec::NotDominated());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->rows()[0][0], I(1));
}

TEST(FiltersTest, MinMatchesFiltersOnCount) {
  Relation rel(Schema({{"T", "id", ValueType::kInt}}));
  rel.set_key_columns({0});
  for (int64_t i = 1; i <= 3; ++i) rel.AddRow({I(i)});
  KeyedPairs scores;
  scores.Set({I(1)}, ScoreConf::Known(0.9, 1.0));               // 1 match.
  scores.Set({I(2)}, ScoreConf::Known(0.5, 2.0).WithCount(2));  // 2 matches.
  // id 3 unscored: 0 matches.
  PRelation p = WithPairs(rel, scores);

  PRelation two = FilterByMinMatches(p, 2);
  ASSERT_EQ(two.NumRows(), 1u);
  EXPECT_EQ(two.Gather().rows()[0][0], I(2));

  PRelation one = FilterByMinMatches(p, 1);
  EXPECT_EQ(one.NumRows(), 2u);

  PRelation zero = FilterByMinMatches(p, 0);
  EXPECT_EQ(zero.NumRows(), 3u);

  // Through ApplyFilters, combined with a top-k.
  auto out = ApplyFilters(p, {FilterSpec::MinMatches(1), FilterSpec::TopK(1)});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->rows()[0][0], I(1));  // Higher score wins the top-1.
}

TEST(FiltersTest, MinMatchesSpecToString) {
  EXPECT_EQ(FilterSpec::MinMatches(2).ToString(), "matches >= 2");
}

TEST(FiltersTest, MinMatchesRejectedOnScoredForm) {
  Relation scored = MakeScored({{1, D(0.5), 1.0}});
  EXPECT_FALSE(ApplyFilter(scored, FilterSpec::MinMatches(1)).ok());
}

TEST(FiltersTest, MissingScoreColumnsFail) {
  Relation rel(Schema({{"T", "id", ValueType::kInt}}));
  EXPECT_FALSE(ApplyFilter(rel, FilterSpec::RankAll()).ok());
}

TEST(FiltersTest, ApplyFiltersChainsInOrder) {
  Relation rel(Schema({{"T", "id", ValueType::kInt}}));
  rel.set_key_columns({0});
  for (int64_t i = 1; i <= 5; ++i) rel.AddRow({I(i)});
  KeyedPairs scores;
  for (int64_t i = 1; i <= 5; ++i) {
    scores.Set({I(i)}, ScoreConf::Known(0.1 * static_cast<double>(i),
                                        0.2 * static_cast<double>(i)));
  }
  PRelation p = WithPairs(rel, scores);
  // Threshold on conf then top-2 by score.
  auto out = ApplyFilters(
      p, {FilterSpec::Threshold(FilterTarget::kConf, 0.6), FilterSpec::TopK(2)});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 2u);
  EXPECT_EQ(out->rows()[0][0], I(5));
  EXPECT_EQ(out->rows()[1][0], I(4));
}

// ---------------------------------------------------------------------------
// Differential test: ApplyFilters (row indices, partial sort, one
// materialization) against the reference definition — ApplyFilter folded
// over the scored form of FilterByMinMatches' output.

StatusOr<Relation> ReferenceFilters(const PRelation& input,
                                    const std::vector<FilterSpec>& specs) {
  PRelation counted = input;
  for (const FilterSpec& spec : specs) {
    if (spec.kind == FilterSpec::Kind::kMinMatches) {
      counted = FilterByMinMatches(counted, spec.k);
    }
  }
  Relation scored = ToScoredRelation(counted);
  for (const FilterSpec& spec : specs) {
    if (spec.kind == FilterSpec::Kind::kMinMatches) continue;
    ASSIGN_OR_RETURN(scored, ApplyFilter(scored, spec));
  }
  return scored;
}

// A shuffled relation over a composite key (k1, k2), a single key (k1) or
// no key at all, whose pairs are drawn from a few values so (score, conf)
// ties are common; about a quarter of the tuples stay at ⟨⊥, 0⟩ (NULL
// score), and match counts range over 1..3.
PRelation RandomScored(Rng* rng, size_t n, int key_shape) {
  Relation rel(Schema({{"T", "k1", ValueType::kInt},
                       {"T", "k2", ValueType::kString},
                       {"T", "v", ValueType::kInt}}));
  if (key_shape == 0) rel.set_key_columns({0, 1});
  if (key_shape == 1) rel.set_key_columns({0});
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    // Composite keys share k1 across rows; the single-key shape keeps k1
    // unique.
    int64_t k1 = key_shape == 1 ? static_cast<int64_t>(i)
                                : static_cast<int64_t>(i / 3);
    rows.push_back({I(k1), Value::String(std::string(1, 'a' + i % 3)),
                    I(rng->Uniform(0, 4))});
  }
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng->Uniform(0, static_cast<int64_t>(i) - 1)]);
  }
  for (Tuple& row : rows) rel.AddRow(std::move(row));
  PRelation p(std::move(rel));
  static constexpr double kScores[] = {0.0, 0.25, 0.5, 0.5, 0.9};
  static constexpr double kConfs[] = {0.3, 0.6, 0.6, 1.2};
  for (ScoreConf& pair : p.pairs) {
    if (rng->Bernoulli(0.25)) continue;
    pair = ScoreConf::Known(kScores[rng->Uniform(0, 4)], kConfs[rng->Uniform(0, 3)])
               .WithCount(static_cast<uint32_t>(rng->Uniform(1, 3)));
  }
  return p;
}

FilterSpec RandomSpec(Rng* rng, size_t n) {
  FilterTarget target =
      rng->Bernoulli(0.5) ? FilterTarget::kScore : FilterTarget::kConf;
  const size_t ks[] = {0, 1, n - 1, n, n + 5};
  switch (rng->Uniform(0, 4)) {
    case 0:
      return FilterSpec::TopK(ks[rng->Uniform(0, 4)], target);
    case 1:
      return FilterSpec::Threshold(target, rng->Bernoulli(0.5) ? 0.5 : 0.6,
                                   rng->Bernoulli(0.5));
    case 2:
      return FilterSpec::RankAll();
    case 3:
      return FilterSpec::NotDominated();
    default:
      return FilterSpec::MinMatches(static_cast<size_t>(rng->Uniform(0, 3)));
  }
}

std::string SpecsToString(const std::vector<FilterSpec>& specs) {
  std::string out;
  for (const FilterSpec& spec : specs) out += spec.ToString() + "; ";
  return out;
}

void ExpectSameFiltered(const PRelation& p, const std::vector<FilterSpec>& specs) {
  auto expected = ReferenceFilters(p, specs);
  auto actual = ApplyFilters(p, specs);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->schema(), expected->schema());
  EXPECT_EQ(actual->key_columns(), expected->key_columns());
  EXPECT_EQ(actual->rows(), expected->rows())
      << SpecsToString(specs) << "\nactual:\n" << actual->ToString(100)
      << "expected:\n" << expected->ToString(100);
}

TEST(FiltersDifferentialTest, RandomSequencesMatchReference) {
  Rng rng(20121);
  for (int round = 0; round < 300; ++round) {
    size_t n = static_cast<size_t>(rng.Uniform(1, 40));
    PRelation p = RandomScored(&rng, n, round % 3);
    std::vector<FilterSpec> specs;
    int length = static_cast<int>(rng.Uniform(1, 3));
    for (int i = 0; i < length; ++i) specs.push_back(RandomSpec(&rng, n));
    ExpectSameFiltered(p, specs);
  }
}

TEST(FiltersDifferentialTest, EveryTopKBoundary) {
  Rng rng(7);
  for (int key_shape = 0; key_shape < 3; ++key_shape) {
    PRelation p = RandomScored(&rng, 25, key_shape);
    const size_t n = p.NumRows();
    for (size_t k : {size_t{0}, size_t{1}, n - 1, n, n + 5}) {
      for (FilterTarget target : {FilterTarget::kScore, FilterTarget::kConf}) {
        ExpectSameFiltered(p, {FilterSpec::TopK(k, target)});
      }
    }
  }
}

TEST(FiltersDifferentialTest, TypicalSequences) {
  Rng rng(11);
  for (int key_shape = 0; key_shape < 3; ++key_shape) {
    PRelation p = RandomScored(&rng, 30, key_shape);
    ExpectSameFiltered(
        p, {FilterSpec::MinMatches(2),
            FilterSpec::Threshold(FilterTarget::kScore, 0.25),
            FilterSpec::TopK(5)});
    ExpectSameFiltered(p, {FilterSpec::Threshold(FilterTarget::kConf, 0.6),
                           FilterSpec::NotDominated()});
    ExpectSameFiltered(p, {FilterSpec::TopK(10, FilterTarget::kConf),
                           FilterSpec::RankAll()});
    ExpectSameFiltered(p, {FilterSpec::RankAll(), FilterSpec::MinMatches(1)});
    ExpectSameFiltered(p, {});
  }
}

TEST(FiltersDifferentialTest, ProjectingVariantProjectsTheFilteredRows) {
  Rng rng(3);
  PRelation p = RandomScored(&rng, 30, 0);
  std::vector<FilterSpec> specs = {FilterSpec::TopK(8)};
  auto full = ApplyFilters(p, specs);
  auto projected = ApplyFiltersAndProject(p, specs, {"v", "T.k1"});
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  ASSERT_EQ(projected->schema().size(), 4u);
  EXPECT_EQ(projected->schema().column(2).name, "score");
  EXPECT_EQ(projected->schema().column(3).name, "conf");
  ASSERT_EQ(projected->NumRows(), full->NumRows());
  for (size_t i = 0; i < full->NumRows(); ++i) {
    const Tuple& f = full->rows()[i];
    EXPECT_EQ(projected->rows()[i], (Tuple{f[2], f[0], f[3], f[4]}));
  }
  EXPECT_FALSE(ApplyFiltersAndProject(p, specs, {"missing"}).ok());
}

// ---------------------------------------------------------------------------
// Packed ranking: key layouts and row shapes that reach every path of the
// packed order (int and dict codes, NULL flags, any key count, the default
// rows' tail in and out of key order) and the comparator fallback, each
// checked against the reference definition.

// One column's cells, drawn per row.
using CellMaker = std::function<Value(Rng*, size_t row)>;

// A p-relation of `n` rows over `cells` (every column of the key), in row
// order or shuffled. Pairs: about half the rows stay at ⟨⊥, 0⟩, the rest
// draw from few values (ties are common), with score 0 and the smallest
// conf among them. Known(0.5, 0.0) normalizes to the default pair.
PRelation KeyedScored(Rng* rng, size_t n, const std::vector<CellMaker>& cells,
                      bool shuffle) {
  std::vector<Column> columns;
  for (size_t c = 0; c < cells.size(); ++c) {
    columns.push_back({"T", "c" + std::to_string(c), ValueType::kInt});
  }
  Relation rel{Schema(columns)};
  std::vector<size_t> key(cells.size());
  for (size_t c = 0; c < key.size(); ++c) key[c] = c;
  rel.set_key_columns(key);
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    for (const CellMaker& make : cells) row.push_back(make(rng, i));
    rows.push_back(std::move(row));
  }
  if (shuffle) {
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng->Uniform(0, static_cast<int64_t>(i) - 1)]);
    }
  } else {
    std::sort(rows.begin(), rows.end());
  }
  for (Tuple& row : rows) rel.AddRow(std::move(row));
  PRelation p(std::move(rel));
  static constexpr double kScores[] = {0.0, 0.5, 0.5, 0.9};
  static const double kConfs[] = {std::numeric_limits<double>::denorm_min(), 0.0,
                                  0.6, 1.2};
  for (ScoreConf& pair : p.pairs) {
    if (rng->Bernoulli(0.5)) continue;
    pair = ScoreConf::Known(kScores[rng->Uniform(0, 3)], kConfs[rng->Uniform(0, 3)]);
  }
  return p;
}

size_t ScoredRows(const PRelation& p) {
  size_t scored = 0;
  for (const ScoreConf& pair : p.pairs) scored += pair.IsDefault() ? 0 : 1;
  return scored;
}

// Every ranking filter at every TOP k boundary, both targets.
void ExpectEveryRankingMatches(const PRelation& p) {
  const size_t n = p.NumRows();
  const size_t scored = ScoredRows(p);
  for (size_t k : {size_t{0}, size_t{1}, scored, scored + 1, n, n + 5}) {
    for (FilterTarget target : {FilterTarget::kScore, FilterTarget::kConf}) {
      ExpectSameFiltered(p, {FilterSpec::TopK(k, target)});
    }
  }
  ExpectSameFiltered(p, {FilterSpec::RankAll()});
  ExpectSameFiltered(p, {FilterSpec::NotDominated()});
  ExpectSameFiltered(p, {FilterSpec::Threshold(FilterTarget::kScore, 0.5),
                         FilterSpec::TopK(3, FilterTarget::kConf)});
}

CellMaker OneOf(std::vector<Value> domain) {
  return [domain](Rng* rng, size_t) {
    return domain[rng->Uniform(0, static_cast<int64_t>(domain.size()) - 1)];
  };
}

std::vector<ColumnLayout> KeyLayouts(const PRelation& p) {
  std::vector<ColumnLayout> layouts;
  for (size_t k : p.key_columns()) layouts.push_back(p.view.Column(k).layout());
  return layouts;
}

TEST(FiltersPackedTest, IntKeyWithNullAndInt64Min) {
  // A NULL must rank before INT64_MIN: an encoding that stores NULL as
  // INT64_MIN ties them and falls back to row order.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Rng rng(41);
  for (bool shuffle : {false, true}) {
    PRelation p = KeyedScored(
        &rng, 40,
        {OneOf({N(), I(kMin), I(kMin), I(-1), I(0),
                   I(std::numeric_limits<int64_t>::max())})},
        shuffle);
    ASSERT_EQ(KeyLayouts(p), std::vector<ColumnLayout>{ColumnLayout::kInt});
    ASSERT_TRUE(p.view.Column(0).has_nulls());
    ExpectEveryRankingMatches(p);
  }
}

TEST(FiltersPackedTest, DictKeyWithNulls) {
  Rng rng(43);
  for (bool shuffle : {false, true}) {
    PRelation p =
        KeyedScored(&rng, 40, {OneOf({N(), S("a"), S("b"), S("ab"), S("")})}, shuffle);
    ASSERT_EQ(KeyLayouts(p), std::vector<ColumnLayout>{ColumnLayout::kDict});
    ExpectEveryRankingMatches(p);
  }
}

TEST(FiltersPackedTest, OneToEightKeyColumns) {
  // Alternating int and dict columns over small domains, so rows tie on
  // the leading keys and later ones decide.
  Rng rng(47);
  for (size_t keys = 1; keys <= 8; ++keys) {
    std::vector<CellMaker> cells;
    for (size_t c = 0; c < keys; ++c) {
      cells.push_back(c % 2 == 0 ? OneOf({N(), I(1), I(2)})
                                 : OneOf({S("x"), S("y"), N()}));
    }
    for (bool shuffle : {false, true}) {
      PRelation p = KeyedScored(&rng, 60, cells, shuffle);
      for (size_t c = 0; c < keys; ++c) {
        ASSERT_EQ(KeyLayouts(p)[c],
                  c % 2 == 0 ? ColumnLayout::kInt : ColumnLayout::kDict);
      }
      ExpectEveryRankingMatches(p);
    }
  }
}

TEST(FiltersPackedTest, ArenaAndDoubleKeysTakeTheComparator) {
  Rng rng(53);
  const CellMaker distinct = [](Rng* rng, size_t row) {
    return rng->Bernoulli(0.1) ? N()
                               : Value::String("s" + std::to_string(row % 37));
  };
  const CellMaker doubles = OneOf({N(), D(-0.5), D(0.0), D(2.5)});
  const CellMaker ints = OneOf({I(1), I(2)});
  for (bool shuffle : {false, true}) {
    for (const std::vector<CellMaker>& cells :
         {std::vector<CellMaker>{distinct}, std::vector<CellMaker>{doubles},
          std::vector<CellMaker>{ints, distinct, doubles}}) {
      PRelation p = KeyedScored(&rng, 40, cells, shuffle);
      const std::vector<ColumnLayout> layouts = KeyLayouts(p);
      ASSERT_TRUE(std::find(layouts.begin(), layouts.end(), ColumnLayout::kArena) !=
                      layouts.end() ||
                  std::find(layouts.begin(), layouts.end(), ColumnLayout::kDouble) !=
                      layouts.end());
      ExpectEveryRankingMatches(p);
    }
  }
}

// The detail ApplyFiltersAndProject leaves on its span.
std::string RankDetail(const PRelation& p, const std::vector<FilterSpec>& specs) {
  obs::SpanPtr span = obs::Span::Detached("FilterAndProject");
  EXPECT_TRUE(ApplyFiltersAndProject(p, specs, {}, span.get()).ok());
  return span->detail;
}

TEST(FiltersPackedTest, SpanSaysWhichRankingRan) {
  Rng rng(59);
  const CellMaker ints = OneOf({I(1), I(2), I(3), I(4)});
  const CellMaker dict = OneOf({S("a"), S("b")});
  PRelation sorted = KeyedScored(&rng, 30, {ints, dict}, /*shuffle=*/false);
  const size_t scored = ScoredRows(sorted);
  const std::string counts =
      "rank=packed keys=2 scored=" + std::to_string(scored) +
      " default=" + std::to_string(sorted.NumRows() - scored);
  EXPECT_EQ(RankDetail(sorted, {FilterSpec::RankAll()}), counts + " defaults=in-order");
  EXPECT_EQ(RankDetail(sorted, {FilterSpec::TopK(scored)}), counts + " defaults=skipped");
  // A TOP k that the scored rows fill sorts indices, reading keys in place.
  ASSERT_GT(scored, 1u);
  EXPECT_EQ(RankDetail(sorted, {FilterSpec::TopK(scored - 1)}),
            "rank=top-k" + counts.substr(counts.find(' ')));

  // Default rows out of key order: row order descends through the keys.
  Relation rel(Schema({{"T", "id", ValueType::kInt}}));
  rel.set_key_columns({0});
  for (int64_t id = 4; id >= 1; --id) rel.AddRow({I(id)});
  PRelation reversed(std::move(rel));
  reversed.pairs[0] = ScoreConf::Known(0.5, 1.0);
  EXPECT_EQ(RankDetail(reversed, {FilterSpec::TopK(2), FilterSpec::NotDominated()}),
            "rank=packed keys=1 scored=1 default=3 defaults=sorted "
            "rank=packed keys=1 scored=1 default=1 defaults=in-order");

  PRelation arena = KeyedScored(
      &rng, 30, {[](Rng*, size_t row) { return Value::String(std::to_string(row)); }},
      true);
  EXPECT_EQ(RankDetail(arena, {FilterSpec::RankAll()}), "rank=comparator(arena key)");
  EXPECT_EQ(RankDetail(arena, {FilterSpec::Threshold(FilterTarget::kConf, 0.5)}), "");
}

}  // namespace
}  // namespace prefdb

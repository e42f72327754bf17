// Operator micro-benchmarks (google-benchmark): the cost of the building
// blocks the end-to-end numbers are made of — aggregate-function
// combination, prefer evaluation (and the prefer pass over MOVIES under
// each kind of score), p-relation joins, pair lookup and the filtering
// operators, and a query's answer as its reader pays for it.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "common/rng.h"
#include "datagen/imdb_gen.h"
#include "engine/engine.h"
#include "engine/row_view.h"
#include "exec/strategy.h"
#include "expr/expr_builder.h"
#include "parser/parser.h"
#include "palgebra/filters.h"
#include "palgebra/p_ops.h"
#include "palgebra/score_relation.h"
#include "workload/workload.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT

PRelation MakeScoredRelation(size_t n, double scored_fraction, uint64_t seed) {
  Rng rng(seed);
  Relation rel(Schema({{"R", "id", ValueType::kInt},
                       {"R", "a", ValueType::kInt},
                       {"R", "b", ValueType::kDouble}}));
  rel.set_key_columns({0});
  rel.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rel.AddRow({Value::Int(static_cast<int64_t>(i)),
                Value::Int(rng.Uniform(0, 1000)),
                Value::Double(rng.UniformReal(0.0, 1.0))});
  }
  PRelation p(std::move(rel));
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(scored_fraction)) {
      p.pairs[i] = ScoreConf::Known(rng.UniformReal(0.0, 1.0),
                                    rng.UniformReal(0.1, 1.0));
    }
  }
  return p;
}

void BM_AggregateCombine(benchmark::State& state) {
  auto agg = GetAggregateFunction(state.range(0) == 0 ? "wsum" : "maxconf");
  ScoreConf a = ScoreConf::Known(0.8, 0.9);
  ScoreConf b = ScoreConf::Known(0.4, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*agg)->Combine(a, b));
  }
}
BENCHMARK(BM_AggregateCombine)->Arg(0)->Arg(1);

void BM_PreferEvaluation(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PRelation input = MakeScoredRelation(n, 0.3, 42);
  PreferencePtr pref = Preference::Generic(
      "p", "R", Le(Col("a"), Lit(int64_t{500})),
      ScoringFunction(Col("b")), 0.8);
  FSum agg;
  ExecStats stats;
  for (auto _ : state) {
    auto result = EvalPrefer(*pref, input, agg, nullptr, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PreferEvaluation)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PreferSelectivity(benchmark::State& state) {
  // Fixed input size, varying conditional selectivity (per mille).
  size_t n = 50000;
  PRelation input = MakeScoredRelation(n, 0.0, 42);
  int64_t threshold = state.range(0);
  PreferencePtr pref = Preference::Generic(
      "p", "R", Le(Col("a"), Lit(threshold)), ScoringFunction::Constant(0.5),
      0.8);
  FSum agg;
  ExecStats stats;
  for (auto _ : state) {
    auto result = EvalPrefer(*pref, input, agg, nullptr, &stats);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PreferSelectivity)->Arg(10)->Arg(100)->Arg(500)->Arg(1000);

// IMDB at scale 0.0025, seed 3: the data perfbench generates.
Catalog* PerfbenchImdb() {
  static Catalog* const catalog = [] {
    ImdbOptions options;
    options.scale = 0.0025;
    options.seed = 3;
    return new Catalog(std::move(GenerateImdb(options)).value());
  }();
  return catalog;
}

// One prefer pass over the whole of MOVIES (IMDB at scale 0.0025, as
// perfbench generates it): every row matches σ_true and is scored by
// Arg(0) a literal, Arg(1) a built-in (recency(year, 2011)), Arg(2) p_5's
// arithmetic over two built-ins; Arg(3) is a membership preference (movies
// with an award, probing AWARDS' m_id index) scored by a literal.
void BM_PreferPass(benchmark::State& state) {
  Catalog* const catalog = PerfbenchImdb();
  const char* const kScores[] = {
      "1.0", "recency(year, 2011)",
      "0.5 * recency(year, 2011) + 0.5 * around(duration, 120)", "1.0"};
  Table* movies = catalog->GetTable("MOVIES").value();
  const RowView view =
      RowView::Of(movies->schema(), movies->primary_key(), movies->store(), nullptr);
  const bool member = state.range(0) == 3;
  PreferencePtr pref =
      member ? Preference::Membership("p", "MOVIES", {"AWARDS", "m_id", "m_id"}, True(),
                                      ScoringFunction::Constant(1.0), 0.9)
             : Preference::Generic("p", "MOVIES", True(),
                                   ScoringFunction(ParseExpression(kScores[state.range(0)]).value()),
                                   0.9);
  FSum agg;
  ExecStats stats;
  for (auto _ : state) {
    auto result = EvalPrefer(*pref, PRelation(view), agg, catalog, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(view.NumRows()) * state.iterations());
}
BENCHMARK(BM_PreferPass)->DenseRange(0, 3);

void BM_PJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PRelation left = MakeScoredRelation(n, 0.3, 1);
  // Right side: fk into left, own key offset to avoid collisions.
  Rng rng(2);
  Relation rel(Schema({{"S", "sid", ValueType::kInt},
                       {"S", "rid", ValueType::kInt}}));
  rel.set_key_columns({0});
  for (size_t i = 0; i < n; ++i) {
    rel.AddRow({Value::Int(static_cast<int64_t>(i)),
                Value::Int(rng.Uniform(0, static_cast<int64_t>(n) - 1))});
  }
  PRelation right(std::move(rel));
  ExprPtr cond = Eq(Col("R.id"), Col("S.rid"));
  FSum agg;
  ExecStats stats;
  for (auto _ : state) {
    auto result = PJoin(*cond, left, right, agg, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PJoin)->Arg(1000)->Arg(10000)->Arg(50000);

// One HashIndex lookup per MOVIES m_id, in a shuffled order, over CAST's
// m_id column (32,045 rows over 3,933 dense surrogate ids at perfbench's
// scale): `dense` indexes the column as it is (direct-addressed), `hashed`
// the same keys spread 1009 apart, which the index must hash.
void BM_IndexLookup(benchmark::State& state, bool dense) {
  Catalog* const catalog = PerfbenchImdb();
  const int64_t spread = dense ? 1 : 1009;
  const TypedColumn& cast = catalog->GetTable("CAST").value()->store().column(0);
  std::vector<ValueView> cells;
  for (uint32_t r = 0; r < cast.size(); ++r) {
    cells.push_back(ValueView::Int(cast.ints()[r] * spread));
  }
  const TypedColumn column = TypedColumn::Build(cells);
  const HashIndex index(column);
  if (index.dense() != dense) state.SkipWithError("unexpected index layout");
  const TypedColumn& movies = catalog->GetTable("MOVIES").value()->store().column(0);
  std::vector<int64_t> probes(movies.ints(), movies.ints() + movies.size());
  Rng rng(11);
  for (size_t i = probes.size(); i > 1; --i) {
    std::swap(probes[i - 1], probes[rng.Uniform(0, static_cast<int64_t>(i) - 1)]);
  }
  for (int64_t& key : probes) key *= spread;
  for (auto _ : state) {
    size_t found = 0;
    for (int64_t key : probes) found += index.LookupInt(key).size();
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(static_cast<int64_t>(probes.size()) * state.iterations());
}
BENCHMARK_CAPTURE(BM_IndexLookup, dense, true);
BENCHMARK_CAPTURE(BM_IndexLookup, hashed, false);

// The join kernel probing CAST's persistent (dense) m_id index, by output
// width: Arg(1) MOVIES ⋉ CAST, Arg(2) MOVIES ⋈ CAST, Arg(4) ((MOVIES ⋈
// RATINGS) ⋈ GENRES) ⋈ CAST, whose width-3 left side is joined untimed.
// Items are output rows.
void BM_JoinRows(benchmark::State& state) {
  Catalog* const catalog = PerfbenchImdb();
  auto view_of = [&](const char* name) {
    Table* table = catalog->GetTable(name).value();
    return RowView::Of(table->schema(), table->primary_key(), table->store(), nullptr);
  };
  // Joins `left` with `right` on left.m_id = right.m_id.
  auto join = [](const RowView& left, const RowView& right, bool semi,
                 const HashIndex* index) {
    ExprPtr predicate = Eq(Col("MOVIES.m_id"), Col(right.schema.column(0).FullName()));
    ExprPtr bound = predicate->Clone();
    if (!bound->Bind(left.schema.Concat(right.schema)).ok()) std::abort();
    const EquiKeys keys = *FindEquiKeys(*predicate, left.schema, right.schema).value();
    const JoinBuild build(right, keys, index);
    return JoinRows(left, right, *bound, semi, &build, nullptr, nullptr);
  };
  const int64_t width = state.range(0);
  RowView left = view_of("MOVIES");
  if (width == 4) {
    left = join(join(left, view_of("RATINGS"), false, nullptr), view_of("GENRES"), false,
                nullptr);
  }
  const RowView cast = view_of("CAST");
  const HashIndex* index = &catalog->GetTable("CAST").value()->EnsureIndex(0);
  size_t rows = 0;
  for (auto _ : state) {
    RowView out = join(left, cast, width == 1, index);
    rows = out.NumRows();
    benchmark::DoNotOptimize(out.ids.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_JoinRows)->Arg(1)->Arg(2)->Arg(4);

// A row's pair: Arg(0) reads the row-aligned pairs by position (inside an
// operator pipeline), Arg(1) probes the pk-keyed R_P with the row's key read
// as codes (GBU's and the plug-ins' re-association by key).
void BM_PairLookup(benchmark::State& state) {
  constexpr size_t kRows = 100000;
  PRelation input = MakeScoredRelation(kRows, 0.5, 7);
  const std::vector<ScoreRelation::Keys> keys = {{input.view, input.key_columns()}};
  ScoreRelation by_key(keys);
  for (size_t r = 0; r < kRows; ++r) by_key.Set(keys[0], r, input.pairs[r]);
  const bool keyed = state.range(0) == 1;
  size_t i = 0;
  for (auto _ : state) {
    size_t row = i++ % kRows;
    if (keyed) {
      benchmark::DoNotOptimize(by_key.Lookup(keys[0], row));
    } else {
      benchmark::DoNotOptimize(input.pairs[row]);
    }
  }
}
BENCHMARK(BM_PairLookup)->Arg(0)->Arg(1);

// A plug-in's aggregate step at IMDB-3's shape: a 7-column key (six ints and
// a repeating string), 4,500 R_NP rows, four partials of 750 rows folded
// into R_P (sized for the partials' rows, as the plug-ins size it), then
// every R_NP row aligned with its pair. Arg(0): the partials
// view R_NP's store (key codes); Arg(1): each partial is a copy in a store
// of its own (interned keys).
void BM_ScoreRelationFoldAlign(benchmark::State& state) {
  constexpr size_t kRows = 4500;
  constexpr size_t kPartials = 4;
  constexpr size_t kPartialRows = 750;
  const char* genres[] = {"Action", "Comedy", "Drama", "Horror", "Sci-Fi"};
  std::vector<Column> columns;
  for (int c = 0; c < 6; ++c) {
    columns.push_back({"R", "k" + std::to_string(c), ValueType::kInt});
  }
  columns.push_back({"R", "genre", ValueType::kString});
  Relation rel{Schema(columns)};
  rel.set_key_columns({0, 1, 2, 3, 4, 5, 6});
  Rng rng(11);
  for (size_t i = 0; i < kRows; ++i) {
    Tuple row;
    for (int c = 0; c < 6; ++c) row.push_back(Value::Int(rng.Uniform(0, 1 << 20)));
    row.push_back(Value::String(genres[i % 5]));
    rel.AddRow(std::move(row));
  }
  const RowView r_np = RowView::Wrap(rel);
  std::vector<RowView> partials;
  for (size_t p = 0; p < kPartials; ++p) {
    std::vector<uint32_t> rows;
    for (size_t i = 0; i < kPartialRows; ++i) {
      rows.push_back(static_cast<uint32_t>(rng.Uniform(0, kRows - 1)));
    }
    partials.push_back(r_np.Rows(rows));
    if (state.range(0) == 1) partials.back() = RowView::Wrap(partials.back().Gather());
  }
  FSum agg;
  for (auto _ : state) {
    std::vector<ScoreRelation::Keys> keys = {{r_np, r_np.key_columns}};
    for (const RowView& partial : partials) {
      keys.emplace_back(partial, partial.key_columns);
    }
    ScoreRelation scores(keys, kPartials * kPartialRows);
    for (size_t p = 0; p < kPartials; ++p) {
      for (size_t r = 0; r < kPartialRows; ++r) {
        scores.Fold(keys[p + 1], r, ScoreConf::Known(0.5, 0.8), agg);
      }
    }
    benchmark::DoNotOptimize(scores.Align(keys[0]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(kPartials * kPartialRows + kRows) *
                          state.iterations());
}
BENCHMARK(BM_ScoreRelationFoldAlign)->Arg(0)->Arg(1);

// The filters as a query runs them, and a full read of the answer:
// ApplyFiltersAndProject over (a copy of, made untimed) the evaluated
// p-relation ranks row indices, and rows() builds the survivors' rows.
void RunFilters(benchmark::State& state, const PRelation& input,
                const std::vector<FilterSpec>& specs) {
  for (auto _ : state) {
    state.PauseTiming();
    PRelation evaluated = input;
    state.ResumeTiming();
    auto result = ApplyFiltersAndProject(std::move(evaluated), specs, {});
    benchmark::DoNotOptimize(result->rows().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(input.NumRows()) *
                          state.iterations());
}

void BM_TopKFilter(benchmark::State& state) {
  RunFilters(state, MakeScoredRelation(static_cast<size_t>(state.range(0)), 0.5, 11),
             {FilterSpec::TopK(10)});
}
BENCHMARK(BM_TopKFilter)->Arg(10000)->Arg(100000);

void BM_SkylineFilter(benchmark::State& state) {
  RunFilters(state, MakeScoredRelation(static_cast<size_t>(state.range(0)), 0.5, 13),
             {FilterSpec::NotDominated()});
}
BENCHMARK(BM_SkylineFilter)->Arg(10000)->Arg(100000);

// RANKED over a sweep answer's shape: 1,000 rows, a composite (int, int,
// dict) key, half of the rows at the default pair.
void BM_RankAll(benchmark::State& state) {
  constexpr size_t kRows = 1000;
  Rng rng(17);
  Relation rel(Schema({{"R", "a", ValueType::kInt},
                       {"R", "b", ValueType::kInt},
                       {"R", "role", ValueType::kString},
                       {"R", "year", ValueType::kInt}}));
  rel.set_key_columns({0, 1, 2});
  static const char* const kRoles[] = {"actor", "director", "producer", "writer"};
  for (size_t i = 0; i < kRows; ++i) {
    rel.AddRow({Value::Int(rng.Uniform(0, 400)), Value::Int(rng.Uniform(0, 400)),
                Value::String(kRoles[rng.Uniform(0, 3)]),
                Value::Int(rng.Uniform(1950, 2011))});
  }
  PRelation input(std::move(rel));
  for (ScoreConf& pair : input.pairs) {
    if (rng.Bernoulli(0.5)) {
      pair = ScoreConf::Known(rng.UniformReal(0.0, 1.0), rng.UniformReal(0.1, 1.0));
    }
  }
  RunFilters(state, input, {FilterSpec::RankAll()});
}
BENCHMARK(BM_RankAll);

// A query's answer and what reading it costs, over IMDB-1's answer (Table
// II; IMDB at scale 0.0025, seed 3, as perfbench generates it): RANKED over
// the p-relation FtP evaluates. Each iteration hands a copy of that
// p-relation (made untimed) to ApplyFiltersAndProject, as Session::Query
// moves in its own, and then `build` reads nothing, `read_rows` reads
// every row and `print20` prints the first 20 rows. The answer is
// destroyed inside the timing, as a caller's would be.
enum class AnswerRead { kNone, kAllRows, kPrint20 };

struct EvaluatedQuery {
  std::unique_ptr<Engine> engine;
  ParsedQuery parsed;
  PRelation evaluated;
};

const EvaluatedQuery& Imdb1() {
  static const EvaluatedQuery* const query = [] {
    ImdbOptions options;
    options.scale = 0.0025;
    options.seed = 3;
    auto* q = new EvaluatedQuery;
    q->engine = std::make_unique<Engine>(std::move(GenerateImdb(options)).value());
    q->parsed = ParseQuery(ImdbWorkload()[0].sql, q->engine->catalog()).value();
    FSum agg;
    ExecStats stats;
    q->evaluated = MakeStrategy(StrategyKind::kFtP)
                       ->ExecuteWithStats(*q->parsed.plan, agg, q->engine.get(), &stats)
                       .value();
    return q;
  }();
  return *query;
}

void BM_Answer(benchmark::State& state, AnswerRead read) {
  const EvaluatedQuery& query = Imdb1();
  size_t rows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    PRelation evaluated = query.evaluated;
    state.ResumeTiming();
    auto answer = ApplyFiltersAndProject(std::move(evaluated), query.parsed.filters,
                                         query.parsed.output_columns);
    rows = answer->NumRows();
    if (read == AnswerRead::kAllRows) {
      benchmark::DoNotOptimize(answer->rows().data());
    } else if (read == AnswerRead::kPrint20) {
      benchmark::DoNotOptimize(answer->ToString(20));
    }
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK_CAPTURE(BM_Answer, build, AnswerRead::kNone);
BENCHMARK_CAPTURE(BM_Answer, read_rows, AnswerRead::kAllRows);
BENCHMARK_CAPTURE(BM_Answer, print20, AnswerRead::kPrint20);

}  // namespace
}  // namespace prefdb

BENCHMARK_MAIN();

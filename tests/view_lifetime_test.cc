// Row-id views outlive the calls that made them: a view pins every table
// and gathered store it reads. These tests read views after what they read
// is gone from the catalog or the cache (run them under ASan: a view that
// did not pin its rows reads freed memory), including GBU regions whose
// temp tables are views, check that a cache entry is the miss's view over
// the tables' own stores, count the rows a preference query copies out of
// views (pref.exec.rows_gathered), with the cache off, cold and warm, and
// read a query's late-materialized answer after its session, its tables and
// its cache entries are gone, and from several threads at once.

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "cache/query_cache.h"
#include "datagen/imdb_gen.h"
#include "engine/engine.h"
#include "exec/runner.h"
#include "exec/strategy.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "obs/metric_names.h"
#include "palgebra/p_ops.h"
#include "test_util.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT
using testing_util::MakeMovieCatalog;

PreferencePtr RecentMovies() {
  return Preference::Generic("recent", "MOVIES", Ge(Col("year"), Lit(int64_t{2005})),
                             ScoringFunction::Constant(0.9), 0.8);
}

PreferencePtr EastwoodFilms() {
  return Preference::Generic("d1", "DIRECTORS", Eq(Col("DIRECTORS.d_id"), Lit(int64_t{1})),
                             ScoringFunction::Constant(0.6), 0.5);
}

// Join(Prefer(Scan MOVIES), Prefer(Scan DIRECTORS)): GBU evaluates it as a
// region over two temp tables.
PlanPtr RegionPlan() {
  return plan::Join(Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")),
                    plan::Prefer(RecentMovies(), plan::Scan("MOVIES")),
                    plan::Prefer(EastwoodFilms(), plan::Scan("DIRECTORS")));
}

StatusOr<PRelation> RunStrategy(StrategyKind kind, const PlanNode& plan,
                                Engine* engine) {
  FSum fsum;
  ExecStats stats;
  return MakeStrategy(kind)->ExecuteWithStats(plan, fsum, engine, &stats, nullptr);
}

TEST(ViewLifetimeTest, GbuRegionResultOutlivesItsTempTables) {
  Engine engine(MakeMovieCatalog());
  PlanPtr plan = RegionPlan();
  StatusOr<PRelation> gbu = RunStrategy(StrategyKind::kGBU, *plan, &engine);
  ASSERT_TRUE(gbu.ok()) << gbu.status().ToString();
  // The guard dropped the temps; the region result still reads them.
  for (const std::string& name : engine.catalog().TableNames()) {
    EXPECT_EQ(name.find("__gbu_tmp"), std::string::npos) << name;
  }
  StatusOr<PRelation> bu = RunStrategy(StrategyKind::kBU, *plan, &engine);
  ASSERT_TRUE(bu.ok());
  testing_util::ExpectSameRows(ToScoredRelation(*gbu), ToScoredRelation(*bu));
  EXPECT_EQ(gbu->NumRows(), 5u);
}

TEST(ViewLifetimeTest, BaseTableDroppedAndReloadedUnderAHeldView) {
  Engine engine(MakeMovieCatalog());
  PlanPtr plan = plan::Prefer(RecentMovies(), plan::Scan("MOVIES"));
  StatusOr<PRelation> held = RunStrategy(StrategyKind::kBU, *plan, &engine);
  ASSERT_TRUE(held.ok());
  ASSERT_NE(held->view.base_table, nullptr);  // MOVIES' identity view.
  const Relation before = ToScoredRelation(*held);
  PRelation directors(engine.Execute(*plan::Scan("DIRECTORS")).value());
  ExecStats stats;
  FSum fsum;
  auto join = [&] {
    return PJoin(*Eq(Col("DIRECTORS.d_id"), Col("MOVIES.d_id")), directors,
                 *held, fsum, &stats);
  };
  StatusOr<PRelation> joined_before = join();
  ASSERT_TRUE(joined_before.ok());

  // Reload MOVIES with one different row.
  Table* old = *engine.catalog().GetTable("MOVIES");
  Schema schema = old->schema();
  std::vector<Tuple> rows = old->Gather().rows();
  rows.pop_back();
  engine.mutable_catalog()->DropTable("MOVIES");
  ASSERT_TRUE(engine.mutable_catalog()
                  ->CreateTable("MOVIES", schema, rows, {"m_id"})
                  .ok());
  EXPECT_EQ((*engine.catalog().GetTable("MOVIES"))->NumRows(), 4u);

  // The held view still reads the old table, and its index still serves a
  // join whose right side it is.
  EXPECT_TRUE(ToScoredRelation(*held).rows() == before.rows());
  StatusOr<PRelation> joined_after = join();
  ASSERT_TRUE(joined_after.ok());
  EXPECT_TRUE(ToScoredRelation(*joined_after).rows() ==
              ToScoredRelation(*joined_before).rows());
  EXPECT_EQ(joined_after->NumRows(), 5u);
}

class CachedViewTest : public ::testing::Test {
 protected:
  CachedViewTest() : engine_(MakeMovieCatalog()) {
    engine_.cache()->set_enabled(true);
  }

  PlanPtr Query() const {
    return plan::Select(Ge(Col("year"), Lit(int64_t{2005})), plan::Scan("MOVIES"));
  }

  std::shared_ptr<const cache::CachedResult> Entry() {
    StatusOr<cache::PlanFingerprint> fp =
        cache::FingerprintPlan(*Query(), engine_.catalog(), 1);
    EXPECT_TRUE(fp.ok() && fp->cacheable);
    return engine_.cache()->Lookup(fp->key);
  }

  Engine engine_;
};

TEST_F(CachedViewTest, HitAndMissReadTheEntryViewsSources) {
  obs::Counter* gathered = engine_.metrics().counter(obs::kPrefExecRowsGathered);
  ExecStats stats;
  StatusOr<RowView> miss = engine_.ExecuteConcurrent(*Query(), &stats);
  StatusOr<RowView> hit = engine_.ExecuteConcurrent(*Query(), &stats);
  ASSERT_TRUE(miss.ok() && hit.ok());
  std::shared_ptr<const cache::CachedResult> entry = Entry();
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(engine_.cache()->snapshot().hits, 2u);  // The hit, then Entry().
  // The entry, the admitted miss and the hit read MOVIES' own store, the
  // same rows of it; no row was copied.
  const ColumnStore* movies = &(*engine_.catalog().GetTable("MOVIES"))->store();
  ASSERT_EQ(entry->view.width(), 1u);
  ASSERT_EQ(hit->width(), 1u);
  EXPECT_EQ(entry->view.sources[0], movies);
  EXPECT_EQ(hit->sources[0], movies);
  EXPECT_EQ(miss->sources[0], movies);
  EXPECT_EQ(&hit->Column(0), &movies->column(0));
  EXPECT_EQ(hit->ids, entry->view.ids);
  EXPECT_EQ(miss->ids, entry->view.ids);
  EXPECT_EQ(hit->NumRows(), 4u);
  EXPECT_EQ(gathered->value(), 0u);
}

TEST_F(CachedViewTest, HitViewOutlivesEviction) {
  ExecStats stats;
  ASSERT_TRUE(engine_.ExecuteConcurrent(*Query(), &stats).ok());
  StatusOr<RowView> hit = engine_.ExecuteConcurrent(*Query(), &stats);
  ASSERT_TRUE(hit.ok());
  const Relation expected = hit->Gather();
  engine_.cache()->Clear();
  EXPECT_EQ(Entry(), nullptr);
  EXPECT_TRUE(hit->Gather().rows() == expected.rows());
  EXPECT_EQ(expected.NumRows(), 4u);
}

// Readers take hits while another thread evicts everything, over and over:
// every view stays readable (TSan/ASan: no race, no freed read).
TEST_F(CachedViewTest, ConcurrentHitsSurviveConcurrentEviction) {
  ExecStats stats;
  StatusOr<RowView> first = engine_.ExecuteConcurrent(*Query(), &stats);
  ASSERT_TRUE(first.ok());
  const Relation expected = first->Gather();
  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    while (!stop.load()) engine_.cache()->Clear();
  });
  constexpr int kReaders = 4;
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        ExecStats local;
        StatusOr<RowView> view = engine_.ExecuteConcurrent(*Query(), &local);
        if (!view.ok() || view->Gather().rows() != expected.rows()) ++mismatches[t];
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true);
  evictor.join();
  for (int t = 0; t < kReaders; ++t) EXPECT_EQ(mismatches[t], 0) << "reader " << t;
}

// `inputs` preferred self-join inputs over MOVIES (aliases A1, A2, ...,
// joined on m_id): a GBU region over that many temps, each the view of a
// delegated scan whose cache entry has the same size as the others.
PlanPtr SelfJoinRegionPlan(int inputs) {
  auto input = [](int i) {
    std::string alias = "A" + std::to_string(i);
    return plan::Prefer(
        Preference::Generic("p" + std::to_string(i), "MOVIES",
                            Ge(Col(alias + ".year"), Lit(int64_t{2003 + i})),
                            ScoringFunction::Constant(0.1 * i), 0.5),
        plan::Scan("MOVIES", alias));
  };
  PlanPtr plan = input(1);
  for (int i = 2; i <= inputs; ++i) {
    plan = plan::Join(Eq(Col("A1.m_id"), Col("A" + std::to_string(i) + ".m_id")),
                      std::move(plan), input(i));
  }
  return plan;
}

// The rows and exact pairs of a p-relation, in order.
std::vector<Tuple> Scored(const PRelation& p) { return ToScoredRelation(p).rows(); }

// A cache that holds one entry: the region's ten delegated scans, one per
// alias, evict the entries whose views the region's temps copied while the
// query runs.
TEST(GbuTempViewTest, TempOverCacheEntryEvictedMidQuery) {
  Engine engine(MakeMovieCatalog());
  PlanPtr plan = SelfJoinRegionPlan(10);
  StatusOr<PRelation> reference = RunStrategy(StrategyKind::kGBU, *plan, &engine);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->NumRows(), 5u);

  // Every entry is one alias' scan of MOVIES, all of one size.
  engine.cache()->set_enabled(true);
  ExecStats scan_stats;
  ASSERT_TRUE(engine.ExecuteConcurrent(*plan::Scan("MOVIES", "A1"), &scan_stats).ok());
  const size_t entry = engine.cache()->snapshot().bytes;
  ASSERT_GT(entry, 0u);
  engine.cache()->Clear();
  engine.cache()->set_max_bytes(entry);
  // Cold, then over whatever survived; the second result is read after the
  // cache is emptied as well.
  for (int round = 0; round < 2; ++round) {
    const uint64_t evictions = engine.cache()->snapshot().evictions;
    StatusOr<PRelation> gbu = RunStrategy(StrategyKind::kGBU, *plan, &engine);
    ASSERT_TRUE(gbu.ok()) << gbu.status().ToString();
    if (round == 0) {
      // Ten entries in a one-entry cache: at least two evicted.
      EXPECT_GE(engine.cache()->snapshot().evictions - evictions, 2u);
    } else {
      engine.cache()->Clear();
    }
    EXPECT_TRUE(Scored(*gbu) == Scored(*reference)) << "round " << round;
  }
}

// An aggregate that runs `hook` once, at the first fold of two scored
// pairs: in a GBU region over two scored temps, that is inside the score
// recombination, after the region query, while the region holds its temps.
class HookedSum final : public AggregateFunction {
 public:
  explicit HookedSum(std::function<void()> hook) : hook_(std::move(hook)) {}
  ScoreConf Combine(const ScoreConf& a, const ScoreConf& b) const override {
    if (hook_ && !a.IsDefault() && !b.IsDefault()) {
      auto hook = std::move(hook_);
      hook_ = nullptr;
      hook();
    }
    return sum_.Combine(a, b);
  }
  std::string_view name() const override { return sum_.name(); }

 private:
  FSum sum_;
  mutable std::function<void()> hook_;
};

TEST(GbuTempViewTest, TempOverBaseTableDroppedAndReloadedInTheRegion) {
  Engine engine(MakeMovieCatalog());
  // Two scored MOVIES temps, one the identity view (its build probes
  // MOVIES' index), one filtered.
  PlanPtr plan = plan::Join(
      Eq(Col("A.d_id"), Col("B.d_id")),
      plan::Prefer(RecentMovies(), plan::Select(Ge(Col("A.year"), Lit(int64_t{2004})),
                                                plan::Scan("MOVIES", "A"))),
      plan::Prefer(Preference::Generic("long", "MOVIES",
                                       Ge(Col("B.duration"), Lit(int64_t{120})),
                                       ScoringFunction::Constant(0.5), 0.7),
                   plan::Scan("MOVIES", "B")));
  std::vector<Tuple> expected;
  {
    // Released before the reload: nothing but the GBU run pins old MOVIES.
    StatusOr<PRelation> bu = RunStrategy(StrategyKind::kBU, *plan, &engine);
    ASSERT_TRUE(bu.ok()) << bu.status().ToString();
    expected = Scored(*bu);
  }

  Table* old = *engine.catalog().GetTable("MOVIES");
  const Schema schema = old->schema();
  const std::vector<Tuple> rows = old->Gather().rows();
  bool reloaded = false;
  HookedSum agg([&] {
    engine.mutable_catalog()->DropTable("MOVIES");
    reloaded = engine.mutable_catalog()->CreateTable("MOVIES", schema, rows, {"m_id"}).ok();
  });
  ExecStats stats;
  StatusOr<PRelation> gbu = MakeStrategy(StrategyKind::kGBU)
                                ->ExecuteWithStats(*plan, agg, &engine, &stats, nullptr);
  ASSERT_TRUE(gbu.ok()) << gbu.status().ToString();
  ASSERT_TRUE(reloaded);
  EXPECT_NE(*engine.catalog().GetTable("MOVIES"), old);
  EXPECT_TRUE(Scored(*gbu) == expected);
}

// GBU queries on several threads, over temps that are views of cache
// entries, while another thread empties the cache over and over: every
// answer matches the uncached one (TSan/ASan: no race, no freed read).
TEST(GbuTempViewTest, ConcurrentGbuRegionsSurviveConcurrentEviction) {
  Engine engine(MakeMovieCatalog());
  PlanPtr plan = SelfJoinRegionPlan(5);
  StatusOr<PRelation> reference = RunStrategy(StrategyKind::kGBU, *plan, &engine);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::vector<Tuple> expected = Scored(*reference);
  engine.cache()->set_enabled(true);
  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    while (!stop.load()) engine.cache()->Clear();
  });
  constexpr int kReaders = 3;
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 40; ++round) {
        StatusOr<PRelation> gbu = RunStrategy(StrategyKind::kGBU, *plan, &engine);
        if (!gbu.ok() || Scored(*gbu) != expected) ++mismatches[t];
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true);
  evictor.join();
  for (int t = 0; t < kReaders; ++t) EXPECT_EQ(mismatches[t], 0) << "reader " << t;
}

// Every row a TOP 20 preference query copies out of a view is a row of the
// answer, with the cache off, cold and warm, and it is copied only when a
// caller reads the answer's rows: the query itself copies none. GBU's temp
// tables are views of the prefer subtrees' results and copy nothing, and a
// cache entry is the miss's view.
TEST(RowsGatheredTest, TopKQueriesGatherOnlyTheirAnswer) {
  ImdbOptions options;
  options.scale = 0.0004;
  options.seed = 11;
  StatusOr<Catalog> catalog = GenerateImdb(options);
  ASSERT_TRUE(catalog.ok());
  Session session(std::move(*catalog));
  const std::string sql =
      "SELECT title, year FROM MOVIES JOIN GENRES ON MOVIES.m_id = GENRES.m_id "
      "PREFERRING (genre = 'Drama') SCORE 1.0 CONF 0.8, (year >= 2000) SCORE "
      "recency(year, 2011) CONF 0.9 TOP 20 BY SCORE";
  obs::Counter* gathered =
      session.engine().metrics().counter(obs::kPrefExecRowsGathered);
  for (StrategyKind kind : {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
                            StrategyKind::kPlugInBasic,
                            StrategyKind::kPlugInCombined}) {
    session.engine().cache()->Clear();
    for (const char* run : {"off", "cold", "warm"}) {
      QueryOptions query;
      query.strategy = kind;
      query.trace = true;
      query.cache = std::string_view(run) != "off";
      const uint64_t before = gathered->value();
      StatusOr<QueryResult> result = session.Query(sql, query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->relation.NumRows(), 20u);
      size_t temps = 0;
      std::vector<const obs::Span*> stack = {result->trace.get()};
      while (!stack.empty()) {
        const obs::Span* span = stack.back();
        stack.pop_back();
        if (span->name == "RegisterTemp") ++temps;
        for (const obs::SpanPtr& child : span->children) stack.push_back(child.get());
      }
      const std::string name = std::string(StrategyKindName(kind)) + " " + run;
      EXPECT_EQ(temps > 0, kind == StrategyKind::kGBU) << name;
      // Unread, then printed: printing builds only the rows it shows, and
      // counts none.
      EXPECT_EQ(gathered->value() - before, 0u) << name;
      EXPECT_NE(result->relation.ToString(3).find("(17 more)"), std::string::npos)
          << name;
      EXPECT_EQ(gathered->value() - before, 0u) << name;
      // Read twice, and through a copy: the rows are built once.
      EXPECT_EQ(result->relation.rows().size(), 20u) << name;
      const QueryResult copy = *result;
      EXPECT_EQ(&copy.relation.rows(), &result->relation.rows()) << name;
      EXPECT_EQ(gathered->value() - before, 20u) << name;
    }
  }
}

// A RANKED join query over generated IMDB data, run by each strategy: its
// answer is read after what it reads is gone.
class AnswerLifetimeTest : public ::testing::TestWithParam<StrategyKind> {
 protected:
  static constexpr const char* kSql =
      "SELECT title, genre FROM MOVIES JOIN GENRES ON MOVIES.m_id = GENRES.m_id "
      "PREFERRING (genre = 'Drama') SCORE 1.0 CONF 0.8, (year >= 2000) SCORE "
      "recency(year, 2011) CONF 0.9 RANKED";

  static Catalog Imdb() {
    ImdbOptions options;
    options.scale = 0.0004;
    options.seed = 5;
    StatusOr<Catalog> catalog = GenerateImdb(options);
    EXPECT_TRUE(catalog.ok());
    return std::move(*catalog);
  }

  static QueryOptions Options(bool cache) {
    QueryOptions options;
    options.strategy = GetParam();
    options.cache = cache;
    return options;
  }

  // The answer as read from a session that is left alone.
  static std::vector<Tuple> Expected() {
    Session session(Imdb());
    StatusOr<QueryResult> result = session.Query(kSql, Options(false));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return {};
    EXPECT_GT(result->relation.NumRows(), 20u);
    return result->relation.rows();
  }
};

TEST_P(AnswerLifetimeTest, RowsReadAfterTheSessionIsDestroyed) {
  auto session = std::make_unique<Session>(Imdb());
  StatusOr<QueryResult> result = session->Query(kSql, Options(true));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  session.reset();
  EXPECT_TRUE(result->relation.rows() == Expected());
}

TEST_P(AnswerLifetimeTest, RowsReadAfterTheBaseTablesAreDroppedAndReloaded) {
  Session session(Imdb());
  StatusOr<QueryResult> result = session.Query(kSql, Options(false));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const char* name : {"MOVIES", "GENRES"}) {
    // Reloaded without its last row, so a reader of the new table differs.
    Table* old = *session.engine().catalog().GetTable(name);
    const Schema schema = old->schema();
    std::vector<std::string> keys;
    for (size_t k : old->primary_key()) keys.push_back(schema.column(k).name);
    std::vector<Tuple> rows = old->Gather().rows();
    rows.pop_back();
    session.engine().mutable_catalog()->DropTable(name);
    ASSERT_TRUE(
        session.engine().mutable_catalog()->CreateTable(name, schema, rows, keys).ok());
  }
  EXPECT_TRUE(result->relation.rows() == Expected());
}

TEST_P(AnswerLifetimeTest, RowsReadAfterTheCacheEntriesAreEvicted) {
  Session session(Imdb());
  ASSERT_TRUE(session.Query(kSql, Options(true)).ok());
  const uint64_t hits = session.engine().cache()->snapshot().hits;
  StatusOr<QueryResult> warm = session.Query(kSql, Options(true));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  // The warm run read cache entries (GBU's prefer subtrees' scans; its
  // region query reads temps and is never cached).
  EXPECT_GT(session.engine().cache()->snapshot().hits, hits);
  session.engine().cache()->Clear();
  EXPECT_EQ(session.engine().cache()->snapshot().entries, 0u);
  EXPECT_TRUE(warm->relation.rows() == Expected());
}

// Two threads read one shared const answer and two more a copy of it, all
// before it was built, while two others print it, one through each (TSan:
// one build, no race, and no print reads the source after its release).
TEST_P(AnswerLifetimeTest, ConcurrentReadersOfOneAnswerAndItsCopy) {
  const std::vector<Tuple> expected = Expected();
  Session session(Imdb());
  StatusOr<QueryResult> result = session.Query(kSql, Options(false));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string printed = Relation(result->relation.schema(), expected).ToString(5);
  const QueryResult& shared = *result;
  const QueryResult copy = shared;
  std::vector<int> mismatches(6, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&, t] {
      const Relation& answer = t % 2 == 0 ? shared.relation : copy.relation;
      const bool match =
          t < 4 ? answer.rows() == expected : answer.ToString(5) == printed;
      if (!match) ++mismatches[t];
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int t = 0; t < 6; ++t) EXPECT_EQ(mismatches[t], 0) << "reader " << t;
  EXPECT_EQ(&shared.relation.rows(), &copy.relation.rows());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, AnswerLifetimeTest,
    ::testing::Values(StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
                      StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return std::string(StrategyKindName(info.param));
    });

}  // namespace
}  // namespace prefdb

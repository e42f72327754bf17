// The preference-aware query cache (src/cache): plan/preference
// fingerprinting, the LRU with its byte budget, the bytes an entry counts, version-based
// invalidation on catalog mutation, the SET CACHE pragma, and — the
// correctness contract — that warm (cached) executions are bit-identical
// to cold ones, counters included, for every strategy.

#include <algorithm>
#include <memory>
#include <regex>
#include <sstream>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "cache/query_cache.h"
#include "common/fault_injection.h"
#include "datagen/imdb_gen.h"
#include "exec/runner.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "plan/plan.h"
#include "test_util.h"
#include "workload/workload.h"

namespace prefdb {
namespace {

using cache::CacheKey;
using cache::CachedResult;
using cache::FingerprintPlan;
using cache::PlanFingerprint;
using cache::QueryCache;
using testing_util::I;
using testing_util::MakeMovieCatalog;

// ---------------------------------------------------------------------------
// Fingerprinting.

class FingerprintTest : public ::testing::Test {
 protected:
  FingerprintTest() : catalog_(MakeMovieCatalog()) {}
  Catalog catalog_;
};

TEST_F(FingerprintTest, StableAcrossCalls) {
  PlanPtr plan = plan::Select(eb::Ge(eb::Col("year"), eb::Lit(int64_t{2005})),
                              plan::Scan("MOVIES"));
  auto a = FingerprintPlan(*plan, catalog_);
  auto b = FingerprintPlan(*plan, catalog_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->cacheable);
  EXPECT_EQ(a->key, b->key);
}

TEST_F(FingerprintTest, SensitiveToPlanDetails) {
  PlanPtr base = plan::Select(eb::Ge(eb::Col("year"), eb::Lit(int64_t{2005})),
                              plan::Scan("MOVIES"));
  PlanPtr other_pred = plan::Select(
      eb::Ge(eb::Col("year"), eb::Lit(int64_t{2006})), plan::Scan("MOVIES"));
  PlanPtr other_table = plan::Select(
      eb::Ge(eb::Col("year"), eb::Lit(int64_t{2005})), plan::Scan("GENRES"));
  PlanPtr bare = plan::Scan("MOVIES");
  auto k_base = FingerprintPlan(*base, catalog_);
  auto k_pred = FingerprintPlan(*other_pred, catalog_);
  auto k_table = FingerprintPlan(*other_table, catalog_);
  auto k_bare = FingerprintPlan(*bare, catalog_);
  ASSERT_TRUE(k_base.ok() && k_pred.ok() && k_table.ok() && k_bare.ok());
  EXPECT_NE(k_base->key, k_pred->key);
  EXPECT_NE(k_base->key, k_table->key);
  EXPECT_NE(k_base->key, k_bare->key);
  // The seed (native-optimizer toggle) separates physical spaces.
  auto k_seeded = FingerprintPlan(*base, catalog_, /*seed=*/1);
  ASSERT_TRUE(k_seeded.ok());
  EXPECT_NE(k_base->key, k_seeded->key);
}

TEST_F(FingerprintTest, TableVersionInvalidates) {
  PlanPtr plan = plan::Scan("MOVIES");
  auto before = FingerprintPlan(*plan, catalog_);
  ASSERT_TRUE(before.ok());

  // Re-create MOVIES with identical contents: a fresh version stamp, so the
  // old fingerprint can never match again.
  auto table = catalog_.GetTable("MOVIES");
  ASSERT_TRUE(table.ok());
  Schema schema = (*table)->schema();
  std::vector<Tuple> rows = (*table)->Gather().rows();
  catalog_.DropTable("MOVIES");
  auto rebuilt = Table::Create("MOVIES", schema, std::move(rows), {"m_id"});
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_TRUE(catalog_.AddTable(std::move(*rebuilt)).ok());

  auto after = FingerprintPlan(*plan, catalog_);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->key, after->key);
}

TEST_F(FingerprintTest, TemporaryTablesAreNotCacheable) {
  auto table = catalog_.PinTable("MOVIES");
  ASSERT_TRUE(table.ok());
  std::unique_ptr<Table> temp = Table::CreateView(
      "__tmp_probe", testing_util::TableView(*table));
  temp->MarkTemporary();
  ASSERT_TRUE(catalog_.AddTable(std::move(temp)).ok());

  PlanPtr plan = plan::Scan("__tmp_probe");
  auto fp = FingerprintPlan(*plan, catalog_);
  ASSERT_TRUE(fp.ok());
  EXPECT_FALSE(fp->cacheable);
}

TEST_F(FingerprintTest, UnknownTableFails) {
  PlanPtr plan = plan::Scan("NO_SUCH_TABLE");
  EXPECT_FALSE(FingerprintPlan(*plan, catalog_).ok());
}

TEST(PreferenceHashTest, ContentHashIgnoresNameTracksContent) {
  auto mk = [](const char* name, int64_t year, double conf) {
    return Preference::Generic(
        name, "MOVIES", eb::Ge(eb::Col("year"), eb::Lit(year)),
        ScoringFunction::Constant(1.0), conf);
  };
  PreferencePtr a = mk("p1", 2005, 0.9);
  PreferencePtr renamed = mk("p2", 2005, 0.9);
  PreferencePtr edited = mk("p1", 2006, 0.9);
  PreferencePtr reweighted = mk("p1", 2005, 0.8);
  EXPECT_EQ(a->ContentHash(), renamed->ContentHash());
  EXPECT_NE(a->ContentHash(), edited->ContentHash());
  EXPECT_NE(a->ContentHash(), reweighted->ContentHash());
}

TEST(PreferenceHashTest, MembershipSpecIsHashed) {
  PreferencePtr plain = Preference::Generic(
      "p", "MOVIES", eb::True(), ScoringFunction::Constant(1.0), 0.9);
  PreferencePtr member = Preference::Membership(
      "p", "MOVIES", MembershipSpec{"AWARDS", "m_id", "m_id"}, eb::True(),
      ScoringFunction::Constant(1.0), 0.9);
  EXPECT_NE(plain->ContentHash(), member->ContentHash());
}

TEST_F(FingerprintTest, PreferNodeTracksPreferenceContent) {
  auto mk_plan = [](PreferencePtr pref) {
    return plan::Prefer(std::move(pref), plan::Scan("MOVIES"));
  };
  PlanPtr a = mk_plan(Preference::Generic(
      "p1", "MOVIES", eb::Ge(eb::Col("year"), eb::Lit(int64_t{2005})),
      ScoringFunction::Constant(1.0), 0.9));
  PlanPtr renamed = mk_plan(Preference::Generic(
      "p9", "MOVIES", eb::Ge(eb::Col("year"), eb::Lit(int64_t{2005})),
      ScoringFunction::Constant(1.0), 0.9));
  PlanPtr edited = mk_plan(Preference::Generic(
      "p1", "MOVIES", eb::Ge(eb::Col("year"), eb::Lit(int64_t{2006})),
      ScoringFunction::Constant(1.0), 0.9));
  auto k_a = FingerprintPlan(*a, catalog_);
  auto k_renamed = FingerprintPlan(*renamed, catalog_);
  auto k_edited = FingerprintPlan(*edited, catalog_);
  ASSERT_TRUE(k_a.ok() && k_renamed.ok() && k_edited.ok());
  EXPECT_EQ(k_a->key, k_renamed->key);
  EXPECT_NE(k_a->key, k_edited->key);
}

// ---------------------------------------------------------------------------
// The LRU store.

std::shared_ptr<CachedResult> EntryOfBytes(size_t bytes) {
  auto entry = std::make_shared<CachedResult>();
  entry->bytes = bytes;
  // A nonzero recompute cost, so the admission policy (which rejects
  // trivially recomputable values) lets these synthetic entries in.
  entry->stats.rows_scanned = 10000;
  return entry;
}

TEST(QueryCacheTest, DisabledByDefault) {
  Engine engine{MakeMovieCatalog()};
  EXPECT_FALSE(engine.cache()->enabled());
}

TEST(QueryCacheTest, LruEvictionOrder) {
  QueryCache cache(nullptr, /*max_bytes=*/1000);
  cache.set_enabled(true);
  CacheKey k1{1, 0}, k2{2, 0}, k3{3, 0};
  cache.Insert(k1, EntryOfBytes(400));
  cache.Insert(k2, EntryOfBytes(400));
  // Touch k1 so k2 becomes the eviction victim.
  EXPECT_NE(cache.Lookup(k1), nullptr);
  cache.Insert(k3, EntryOfBytes(400));  // 1200 > 1000: evicts LRU = k2.
  EXPECT_NE(cache.Lookup(k1), nullptr);
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  EXPECT_NE(cache.Lookup(k3), nullptr);
  QueryCache::Stats stats = cache.snapshot();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 800u);
}

TEST(QueryCacheTest, ByteBudgetRejectsOversizeAndShrinksOnLimit) {
  QueryCache cache(nullptr, /*max_bytes=*/1000);
  cache.set_enabled(true);
  // An entry larger than the whole budget is not stored at all.
  EXPECT_EQ(cache.Insert(CacheKey{1, 0}, EntryOfBytes(5000)),
            cache::Admission::kOversize);
  EXPECT_EQ(cache.Lookup(CacheKey{1, 0}), nullptr);
  EXPECT_EQ(cache.snapshot().entries, 0u);

  cache.Insert(CacheKey{2, 0}, EntryOfBytes(400));
  cache.Insert(CacheKey{3, 0}, EntryOfBytes(400));
  EXPECT_EQ(cache.snapshot().entries, 2u);
  // Shrinking the budget evicts immediately.
  cache.set_max_bytes(500);
  EXPECT_EQ(cache.snapshot().entries, 1u);
  // Clear drops everything.
  cache.Clear();
  EXPECT_EQ(cache.snapshot().entries, 0u);
  EXPECT_EQ(cache.snapshot().bytes, 0u);
}

TEST(QueryCacheTest, PinnedEntriesSurviveEviction) {
  QueryCache cache(nullptr, /*max_bytes=*/1000);
  cache.set_enabled(true);
  auto stored = EntryOfBytes(600);
  cache.Insert(CacheKey{1, 0}, stored);
  // A reader holds the entry while it gets evicted by a newer insert.
  std::shared_ptr<const CachedResult> pinned = cache.Lookup(CacheKey{1, 0});
  ASSERT_NE(pinned, nullptr);
  cache.Insert(CacheKey{2, 0}, EntryOfBytes(600));
  EXPECT_EQ(cache.Lookup(CacheKey{1, 0}), nullptr);
  // The pinned snapshot is still fully usable.
  EXPECT_EQ(pinned->bytes, 600u);
  EXPECT_EQ(pinned->view.NumRows(), 0u);
}

TEST(QueryCacheTest, AdmissionPolicyRejectsOversizeAndTrivialEntries) {
  obs::MetricsRegistry metrics;
  QueryCache cache(&metrics, /*max_bytes=*/1000);
  cache.set_enabled(true);

  // Oversize: bigger than the whole budget.
  cache.Insert(CacheKey{1, 0}, EntryOfBytes(5000));
  EXPECT_EQ(cache.Lookup(CacheKey{1, 0}), nullptr);
  EXPECT_EQ(cache.snapshot().admission_rejected, 1u);

  // Trivial recompute: the miss execution touched no rows, so a hit would
  // save nothing — not worth displacing useful entries.
  auto trivial = std::make_shared<CachedResult>();
  trivial->bytes = 100;
  cache.Insert(CacheKey{2, 0}, trivial);
  EXPECT_EQ(cache.Lookup(CacheKey{2, 0}), nullptr);
  EXPECT_EQ(cache.snapshot().admission_rejected, 2u);
  EXPECT_EQ(cache.snapshot().insertions, 0u);

  // A normally-sized, non-trivial entry is admitted; materialized-only
  // work counts as recompute cost too.
  auto useful = std::make_shared<CachedResult>();
  useful->bytes = 100;
  useful->stats.tuples_materialized = 42;
  cache.Insert(CacheKey{3, 0}, useful);
  EXPECT_NE(cache.Lookup(CacheKey{3, 0}), nullptr);
  QueryCache::Stats stats = cache.snapshot();
  EXPECT_EQ(stats.admission_rejected, 2u);
  EXPECT_EQ(stats.insertions, 1u);

  // Insert names the reason.
  auto oversize = std::make_shared<CachedResult>(*useful);
  oversize->bytes = 5000;
  EXPECT_EQ(cache.Insert(CacheKey{4, 0}, oversize), cache::Admission::kOversize);
  EXPECT_EQ(cache.Insert(CacheKey{5, 0}, trivial), cache::Admission::kTrivial);
  EXPECT_EQ(cache.Insert(CacheKey{6, 0}, useful), cache::Admission::kAdmitted);
  EXPECT_EQ(cache.snapshot().admission_rejected, 4u);
  // The registry counter mirrors the snapshot field, and ToString surfaces
  // the rejection count for SHOW CACHE-style diagnostics.
  EXPECT_EQ(metrics.counter("pref.cache.admission_rejected")->value(), 4u);
  EXPECT_NE(cache.ToString().find("admission_rejected=4"), std::string::npos);
}

TEST(QueryCacheTest, HitMissCounters) {
  QueryCache cache(nullptr);
  cache.set_enabled(true);
  CacheKey k{3, 7};
  EXPECT_EQ(cache.Lookup(k), nullptr);
  cache.Insert(k, EntryOfBytes(10));
  EXPECT_NE(cache.Lookup(k), nullptr);
  QueryCache::Stats stats = cache.snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

// ---------------------------------------------------------------------------
// SET CACHE pragma and engine integration.

const char* kPreferringQuery =
    "SELECT title, year FROM MOVIES "
    "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 0.9 RANKED";

TEST(CachePragmaTest, OnOffClearLimit) {
  Session session(MakeMovieCatalog());
  EXPECT_FALSE(session.engine().cache()->enabled());

  auto on = session.Query("SET CACHE ON");
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(on->executed_plan, "SET CACHE ON");
  EXPECT_TRUE(session.engine().cache()->enabled());

  auto limit = session.Query("SET CACHE LIMIT 1048576");
  ASSERT_TRUE(limit.ok());
  EXPECT_EQ(session.engine().cache()->max_bytes(), 1048576u);

  // Populate, then CLEAR empties it.
  ASSERT_TRUE(session.Query(kPreferringQuery).ok());
  EXPECT_GT(session.engine().cache()->snapshot().entries, 0u);
  auto clear = session.Query("SET CACHE CLEAR");
  ASSERT_TRUE(clear.ok());
  EXPECT_EQ(session.engine().cache()->snapshot().entries, 0u);

  auto off = session.Query("SET CACHE OFF");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(session.engine().cache()->enabled());

  EXPECT_FALSE(session.Query("SET CACHE SIDEWAYS").ok());
  EXPECT_FALSE(session.Query("SET CACHE ON EXTRA").ok());
}

TEST(CachePragmaTest, PerQueryOverride) {
  Session session(MakeMovieCatalog());
  QueryOptions cached;
  cached.cache = true;
  ASSERT_TRUE(session.Query(kPreferringQuery, cached).ok());
  EXPECT_GT(session.engine().cache()->snapshot().entries, 0u);
  // The engine-wide switch is restored afterwards.
  EXPECT_FALSE(session.engine().cache()->enabled());

  // And the reverse: override off while the session cache is on.
  ASSERT_TRUE(session.Query("SET CACHE ON").ok());
  QueryCache::Stats before = session.engine().cache()->snapshot();
  QueryOptions uncached;
  uncached.cache = false;
  ASSERT_TRUE(session.Query(kPreferringQuery, uncached).ok());
  QueryCache::Stats after = session.engine().cache()->snapshot();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_TRUE(session.engine().cache()->enabled());
}

// Warm repeats must be bit-identical to the cold run: same rows in the same
// order (exact Value equality, doubles included) and the same counters —
// the cache replays the miss execution's ExecStats delta on every hit.
TEST(CacheEquivalenceTest, WarmRepeatBitIdenticalForEveryStrategy) {
  const StrategyKind kStrategies[] = {
      StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
      StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined};
  for (StrategyKind kind : kStrategies) {
    Session session(MakeMovieCatalog());
    ASSERT_TRUE(session.Query("SET CACHE ON").ok());
    QueryOptions options;
    options.strategy = kind;
    auto cold = session.Query(kPreferringQuery, options);
    ASSERT_TRUE(cold.ok()) << StrategyKindName(kind) << ": "
                           << cold.status().ToString();
    QueryCache::Stats cold_stats = session.engine().cache()->snapshot();
    auto warm = session.Query(kPreferringQuery, options);
    ASSERT_TRUE(warm.ok()) << StrategyKindName(kind);
    QueryCache::Stats warm_stats = session.engine().cache()->snapshot();

    EXPECT_EQ(warm->relation.schema(), cold->relation.schema())
        << StrategyKindName(kind);
    EXPECT_EQ(warm->relation.rows(), cold->relation.rows())
        << StrategyKindName(kind) << ": warm rows differ from cold";
    EXPECT_EQ(warm->stats.engine_queries, cold->stats.engine_queries)
        << StrategyKindName(kind);
    EXPECT_EQ(warm->stats.tuples_materialized, cold->stats.tuples_materialized)
        << StrategyKindName(kind);
    EXPECT_EQ(warm->stats.rows_scanned, cold->stats.rows_scanned)
        << StrategyKindName(kind);
    EXPECT_EQ(warm->stats.score_entries_written,
              cold->stats.score_entries_written)
        << StrategyKindName(kind);
    EXPECT_GT(warm_stats.hits, cold_stats.hits)
        << StrategyKindName(kind) << ": warm run produced no cache hit";
    EXPECT_EQ(warm_stats.insertions, cold_stats.insertions)
        << StrategyKindName(kind) << ": warm run should insert nothing new";
  }
}

// A query that trips the governor — or hits an injected fault on the very
// insert path — must never populate the cache: later warm runs may not reuse
// a result whose execution did not complete cleanly.
TEST(CacheEquivalenceTest, FailedQueriesAreNeverAdmitted) {
  Session session(MakeMovieCatalog());
  ASSERT_TRUE(session.Query("SET CACHE ON").ok());

  // Fault on the admission step itself: the delegated result exists but the
  // query fails before Insert(), so nothing may be cached.
  FaultInjection::Global().Arm("cache.insert");
  QueryCache::Stats before = session.engine().cache()->snapshot();
  auto faulted = session.Query(kPreferringQuery);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kInternal);
  EXPECT_EQ(session.engine().cache()->snapshot().insertions,
            before.insertions);
  FaultInjection::Global().Disarm();

  // Governor trip mid-query (1-byte budget): partial results are likewise
  // never admitted.
  QueryOptions capped;
  capped.memory_limit_bytes = 1;
  before = session.engine().cache()->snapshot();
  auto tripped = session.Query(kPreferringQuery, capped);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session.engine().cache()->snapshot().insertions,
            before.insertions);

  // The cold slot is still genuinely cold: the next clean run recomputes
  // (a miss, new insertions) and matches a never-faulted session exactly.
  before = session.engine().cache()->snapshot();
  auto clean = session.Query(kPreferringQuery);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  QueryCache::Stats after = session.engine().cache()->snapshot();
  EXPECT_GT(after.insertions, before.insertions);
  Session fresh(MakeMovieCatalog());
  auto baseline = fresh.Query(kPreferringQuery);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(clean->relation.rows(), baseline->relation.rows());
}

// Prefer-under-set-operation: only BU and GBU evaluate these; GBU's region
// queries reference per-execution temp tables and must bypass the cache,
// while the delegated queries under its prefer subtrees still hit.
TEST(CacheEquivalenceTest, SetOpWarmRepeatBitIdentical) {
  const char* kSetOpQuery =
      "SELECT title, year FROM MOVIES WHERE year >= 2004 "
      "PREFERRING (year >= 2005) SCORE recency(year, 2011) CONF 0.9 "
      "UNION "
      "SELECT title, year FROM MOVIES WHERE duration <= 120 "
      "PREFERRING (duration <= 120) SCORE 0.6 CONF 0.5 "
      "RANKED";
  for (StrategyKind kind : {StrategyKind::kBU, StrategyKind::kGBU}) {
    Session session(MakeMovieCatalog());
    ASSERT_TRUE(session.Query("SET CACHE ON").ok());
    QueryOptions options;
    options.strategy = kind;
    auto cold = session.Query(kSetOpQuery, options);
    ASSERT_TRUE(cold.ok()) << StrategyKindName(kind) << ": "
                           << cold.status().ToString();
    auto warm = session.Query(kSetOpQuery, options);
    ASSERT_TRUE(warm.ok()) << StrategyKindName(kind);
    EXPECT_EQ(warm->relation.rows(), cold->relation.rows())
        << StrategyKindName(kind);
    EXPECT_EQ(warm->stats.engine_queries, cold->stats.engine_queries)
        << StrategyKindName(kind);
    EXPECT_EQ(warm->stats.score_entries_written,
              cold->stats.score_entries_written)
        << StrategyKindName(kind);
    EXPECT_GT(session.engine().cache()->snapshot().hits, 0u)
        << StrategyKindName(kind);
  }
}

TEST(CacheEquivalenceTest, CatalogMutationInvalidates) {
  Session session(MakeMovieCatalog());
  ASSERT_TRUE(session.Query("SET CACHE ON").ok());
  auto before = session.Query(kPreferringQuery);
  ASSERT_TRUE(before.ok());
  size_t rows_before = before->relation.NumRows();
  ASSERT_GT(rows_before, 0u);

  // Drop one movie and re-create the table: the fresh version stamp makes
  // every cached fingerprint over MOVIES unmatchable.
  Catalog* catalog = session.engine().mutable_catalog();
  auto table = catalog->GetTable("MOVIES");
  ASSERT_TRUE(table.ok());
  Schema schema = (*table)->schema();
  std::vector<Tuple> rows = (*table)->Gather().rows();
  rows.pop_back();
  catalog->DropTable("MOVIES");
  auto rebuilt = Table::Create("MOVIES", schema, std::move(rows), {"m_id"});
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_TRUE(catalog->AddTable(std::move(*rebuilt)).ok());

  auto after = session.Query(kPreferringQuery);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->relation.NumRows(), rows_before - 1)
      << "stale cache entry served after catalog mutation";
}

// Editing one profile preference must invalidate only the cache entries
// that depend on it: the non-preference query part and the other
// preferences' rewrites keep hitting.
TEST(CacheEquivalenceTest, ProfileEditInvalidatesSelectively) {
  auto make_profile = [](int64_t year_cutoff) {
    Profile profile("alice");
    profile.Add(Preference::Generic(
        "recent", "MOVIES",
        eb::Ge(eb::Col("year"), eb::Lit(year_cutoff)),
        ScoringFunction::Constant(1.0), 0.9));
    profile.Add(Preference::Generic(
        "comedy", "GENRES",
        eb::Eq(eb::Col("genre"), eb::Lit("Comedy")),
        ScoringFunction::Constant(0.8), 0.7));
    return profile;
  };
  const char* kSql =
      "SELECT title FROM MOVIES JOIN GENRES ON MOVIES.m_id = GENRES.m_id";

  Session session(MakeMovieCatalog());
  ASSERT_TRUE(session.Query("SET CACHE ON").ok());
  QueryOptions options;
  options.strategy = StrategyKind::kPlugInBasic;

  Profile v1 = make_profile(2005);
  ASSERT_TRUE(session.QueryPersonalized(kSql, v1, options).ok());
  QueryCache::Stats cold = session.engine().cache()->snapshot();
  ASSERT_GT(cold.insertions, 1u) << "expected Q_NP plus per-preference "
                                    "rewrites in the cache";

  // Unchanged profile: everything hits.
  ASSERT_TRUE(session.QueryPersonalized(kSql, v1, options).ok());
  QueryCache::Stats warm = session.engine().cache()->snapshot();
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.hits - cold.hits, cold.insertions);

  // Edit the year preference only: its dependents miss, the rest hit.
  Profile v2 = make_profile(2006);
  ASSERT_TRUE(session.QueryPersonalized(kSql, v2, options).ok());
  QueryCache::Stats edited = session.engine().cache()->snapshot();
  uint64_t new_misses = edited.misses - warm.misses;
  uint64_t new_hits = edited.hits - warm.hits;
  EXPECT_GT(new_misses, 0u) << "edited preference still served from cache";
  EXPECT_GT(new_hits, 0u) << "independent entries were invalidated too";
  EXPECT_LT(new_misses, cold.insertions)
      << "profile edit invalidated every entry, not just dependents";
}

TEST(CacheEquivalenceTest, ExplainAnalyzeAnnotatesHitsAndMisses) {
  Session session(MakeMovieCatalog());
  ASSERT_TRUE(session.Query("SET CACHE ON").ok());
  std::string explain =
      std::string("EXPLAIN ANALYZE ") + kPreferringQuery;
  auto cold = session.Query(explain);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_NE(cold->explain_analyze.find("cache=miss"), std::string::npos)
      << cold->explain_analyze;
  auto warm = session.Query(explain);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->explain_analyze.find("cache=hit"), std::string::npos)
      << warm->explain_analyze;
}

// Regression: the plug-in strategy's Q_NP execution span must be handed to
// ExecuteConcurrent, or the cache layer has nowhere to hang its annotation
// and the plug-in EXPLAIN ANALYZE silently loses cache=hit/miss.
TEST(CacheEquivalenceTest, PlugInExplainAnalyzeAnnotatesQnpSpan) {
  Session session(MakeMovieCatalog());
  ASSERT_TRUE(session.Query("SET CACHE ON").ok());
  QueryOptions options;
  options.strategy = StrategyKind::kPlugInBasic;
  std::string explain = std::string("EXPLAIN ANALYZE ") + kPreferringQuery;

  // The annotation must land on the Q_NP span itself, not just anywhere in
  // the report, so check the EngineQuery[Q_NP] line.
  auto qnp_line = [](const std::string& report) {
    size_t pos = report.find("EngineQuery[Q_NP]");
    if (pos == std::string::npos) return std::string();
    size_t start = report.rfind('\n', pos);
    start = start == std::string::npos ? 0 : start + 1;
    size_t end = report.find('\n', pos);
    return report.substr(start, end - start);
  };

  auto cold = session.Query(explain, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  std::string cold_line = qnp_line(cold->explain_analyze);
  ASSERT_FALSE(cold_line.empty()) << cold->explain_analyze;
  EXPECT_NE(cold_line.find("cache=miss"), std::string::npos) << cold_line;

  auto warm = session.Query(explain, options);
  ASSERT_TRUE(warm.ok());
  std::string warm_line = qnp_line(warm->explain_analyze);
  EXPECT_NE(warm_line.find("cache=hit"), std::string::npos) << warm_line;
}

// The traced spans named exactly `name`.
std::vector<const obs::Span*> SpansNamed(const QueryResult& result,
                                         std::string_view name) {
  std::vector<const obs::Span*> out;
  for (const obs::Span* span : obs::FindSpans(*result.trace, name)) {
    if (span->name == name) out.push_back(span);
  }
  return out;
}

// The timing-free span tree, for failure messages.
std::string Tree(const QueryResult& result) {
  return result.trace->ToString(/*include_timing=*/false);
}

const char* kTwoPreferenceJoin =
    "SELECT title, year FROM MOVIES JOIN GENRES ON MOVIES.m_id = GENRES.m_id "
    "PREFERRING (genre = 'Comedy') SCORE 1.0 CONF 0.8, "
    "(year >= 2005) SCORE recency(year, 2011) CONF 0.9 RANKED";

// The cache holds delegated-query results only. A warm BU or GBU run asks
// the engine for each of them again, and each hits; the prefer passes above
// them run again and carry no cache annotation.
TEST(CacheEquivalenceTest, WarmBuGbuHitEveryDelegatedQueryAndRerunPrefers) {
  const struct {
    StrategyKind kind;
    const char* delegated_span;  // Where the engine annotates the outcome.
  } kCases[] = {{StrategyKind::kBU, "Scan["}, {StrategyKind::kGBU, "EngineQuery"}};
  for (const auto& c : kCases) {
    Session session(MakeMovieCatalog());
    ASSERT_TRUE(session.Query("SET CACHE ON").ok());
    QueryOptions options;
    options.strategy = c.kind;
    options.trace = true;
    ASSERT_TRUE(session.Query(kTwoPreferenceJoin, options).ok());
    auto warm = session.Query(kTwoPreferenceJoin, options);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ASSERT_NE(warm->trace, nullptr);
    std::vector<const obs::Span*> prefers = obs::FindSpans(*warm->trace, "Prefer[");
    EXPECT_EQ(prefers.size(), 2u) << Tree(*warm);
    for (const obs::Span* span : prefers) {
      EXPECT_EQ(span->detail.find("cache="), std::string::npos)
          << span->name << ": " << span->detail;
    }
    std::vector<const obs::Span*> delegated =
        obs::FindSpans(*warm->trace, c.delegated_span);
    EXPECT_GE(delegated.size(), 2u) << Tree(*warm);
    for (const obs::Span* span : delegated) {
      EXPECT_NE(span->detail.find("cache=hit"), std::string::npos)
          << StrategyKindName(c.kind) << " " << span->name << ": " << span->detail;
    }
  }
}

// A plan over a temp table is never cached, and the span says so: GBU's
// region queries read the region's temps.
TEST(CacheEquivalenceTest, RegionQueryOverTempsShowsSkip) {
  Session session(MakeMovieCatalog());
  ASSERT_TRUE(session.Query("SET CACHE ON").ok());
  QueryOptions options;
  options.strategy = StrategyKind::kGBU;
  options.trace = true;
  auto result = session.Query(kTwoPreferenceJoin, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<const obs::Span*> regions = SpansNamed(*result, "RegionQuery");
  ASSERT_FALSE(regions.empty()) << Tree(*result);
  for (const obs::Span* span : regions) {
    EXPECT_EQ(span->detail, "cache=skip(temp)") << Tree(*result);
  }
}

// A result the admission policy turns away says why on its span; the
// rejection counter counts it as before.
TEST(CacheEquivalenceTest, AdmissionRejectionShowsItsReason) {
  QueryOptions options;
  options.strategy = StrategyKind::kFtP;
  options.trace = true;

  // Oversize: an 8-byte budget.
  Session small(MakeMovieCatalog());
  ASSERT_TRUE(small.Query("SET CACHE ON").ok());
  ASSERT_TRUE(small.Query("SET CACHE LIMIT 8").ok());
  auto oversize = small.Query(kPreferringQuery, options);
  ASSERT_TRUE(oversize.ok()) << oversize.status().ToString();
  std::vector<const obs::Span*> q_np = SpansNamed(*oversize, "EngineQuery[Q_NP]");
  ASSERT_EQ(q_np.size(), 1u) << Tree(*oversize);
  EXPECT_EQ(q_np[0]->detail, "cache=miss(rejected:oversize)");
  EXPECT_EQ(small.engine().cache()->snapshot().admission_rejected, 1u);
  EXPECT_EQ(small.engine().cache()->snapshot().entries, 0u);

  // Trivial: a scan of an empty table reads no row, so a hit would save
  // nothing.
  Catalog catalog = MakeMovieCatalog();
  ASSERT_TRUE(catalog
                  .CreateTable("NO_MOVIES",
                               Schema({{"", "m_id", ValueType::kInt},
                                       {"", "year", ValueType::kInt}}),
                               {}, {"m_id"})
                  .ok());
  Session empty(std::move(catalog));
  ASSERT_TRUE(empty.Query("SET CACHE ON").ok());
  auto trivial = empty.Query(
      "SELECT m_id, year FROM NO_MOVIES "
      "PREFERRING (year >= 2005) SCORE 1.0 CONF 0.9 RANKED",
      options);
  ASSERT_TRUE(trivial.ok()) << trivial.status().ToString();
  q_np = SpansNamed(*trivial, "EngineQuery[Q_NP]");
  ASSERT_EQ(q_np.size(), 1u) << Tree(*trivial);
  EXPECT_EQ(q_np[0]->detail, "cache=miss(rejected:trivial)");
  EXPECT_EQ(empty.engine().cache()->snapshot().admission_rejected, 1u);
}

// A timing-free span tree without what the cache itself traces: its
// `cache=…` details, and the engine's native.* spans, which a hit skips.
std::string WithoutCacheTraces(const std::string& tree) {
  static const std::regex kCacheDetail(" ?cache=[a-z]+(\\([a-z:]+\\))?");
  static const std::regex kNoAttrs("  \\(\\)$");
  std::istringstream lines(tree);
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    if (line.compare(line.find_first_not_of(' '), 7, "native.") == 0) continue;
    line = std::regex_replace(line, kCacheDetail, "");
    out += std::regex_replace(line, kNoAttrs, "") + "\n";
  }
  return out;
}

// With the cache on, a query runs the view it runs with the cache off: the
// cold and the warm run trace the same tree as an uncached run once the
// cache's own traces are taken out. GBU's temps over base tables keep
// `base=<TABLE>`, so their region joins probe the tables' indexes.
TEST(CacheEquivalenceTest, CacheOnTracesMatchCacheOff) {
  ImdbOptions imdb;
  imdb.scale = 0.0004;
  imdb.seed = 11;
  StatusOr<Catalog> catalog = GenerateImdb(imdb);
  ASSERT_TRUE(catalog.ok());
  Session session(std::move(*catalog));
  // BU and GBU over Prefer(Scan), then Table II's IMDB joins.
  std::vector<std::string> queries = {
      "SELECT title, year FROM MOVIES PREFERRING (year >= 2000) SCORE "
      "recency(year, 2011) CONF 0.9 RANKED"};
  for (const WorkloadQuery& q : ImdbWorkload()) queries.push_back(q.sql);
  size_t bases = 0;
  for (const std::string& sql : queries) {
    for (StrategyKind kind :
         {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
          StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined}) {
      session.engine().cache()->Clear();
      QueryOptions options;
      options.strategy = kind;
      options.trace = true;
      std::string trees[3];  // Cache off, cold, warm.
      for (int run = 0; run < 3; ++run) {
        options.cache = run > 0;
        StatusOr<QueryResult> result = session.Query(sql, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        trees[run] = WithoutCacheTraces(result->trace->ToString(false));
      }
      EXPECT_EQ(trees[1], trees[0]) << StrategyKindName(kind) << " cold: " << sql;
      EXPECT_EQ(trees[2], trees[0]) << StrategyKindName(kind) << " warm: " << sql;
      for (size_t pos = 0; (pos = trees[0].find("base=", pos)) != std::string::npos;
           ++pos) {
        ++bases;
      }
    }
  }
  EXPECT_GT(bases, 0u);
}

// An entry counts its id array, schema and key, and each store it reads
// that no table of its plan holds: a union's gathered rows. The tables are
// the catalog's and not counted.
TEST(CacheEntryBytesTest, CountsIdsAndGatheredStoresNotTables) {
  Engine engine{MakeMovieCatalog()};
  engine.cache()->set_enabled(true);
  auto entry_of = [&](const PlanNode& plan) {
    ExecStats stats;
    EXPECT_TRUE(engine.ExecuteConcurrent(plan, &stats).ok());
    StatusOr<PlanFingerprint> fp = FingerprintPlan(plan, engine.catalog(), 1);
    EXPECT_TRUE(fp.ok());
    std::shared_ptr<const CachedResult> entry = engine.cache()->Lookup(fp->key);
    EXPECT_NE(entry, nullptr);
    return entry;
  };
  // What an entry counts besides its ids.
  auto fixed = [](const CachedResult& entry) {
    return entry.bytes - entry.view.ids.size() * sizeof(uint32_t);
  };
  const Table* movies = *engine.catalog().GetTable("MOVIES");
  const Table* directors = *engine.catalog().GetTable("DIRECTORS");

  auto join = [](PlanPtr movies_input) {
    return plan::Join(eb::Eq(eb::Col("MOVIES.d_id"), eb::Col("DIRECTORS.d_id")),
                      std::move(movies_input), plan::Scan("DIRECTORS"));
  };
  PlanPtr all = join(plan::Scan("MOVIES"));
  PlanPtr some = join(plan::Select(eb::Ge(eb::Col("year"), eb::Lit(int64_t{2008})),
                                   plan::Scan("MOVIES")));
  std::shared_ptr<const CachedResult> all_entry = entry_of(*all);
  std::shared_ptr<const CachedResult> some_entry = entry_of(*some);
  ASSERT_TRUE(all_entry != nullptr && some_entry != nullptr);
  // The entry reads the tables' own stores.
  const std::vector<const ColumnStore*>& sources = all_entry->view.sources;
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_NE(std::find(sources.begin(), sources.end(), &movies->store()), sources.end());
  EXPECT_NE(std::find(sources.begin(), sources.end(), &directors->store()),
            sources.end());
  EXPECT_EQ(all_entry->view.NumRows(), 5u);
  EXPECT_EQ(some_entry->view.NumRows(), 2u);
  EXPECT_EQ(all_entry->bytes, cache::EntryBytes(all_entry->view, *all, engine.catalog()));
  // Only the ids grow with the rows.
  EXPECT_EQ(fixed(*all_entry), fixed(*some_entry));
  // The tables are left out because the plan scans them: under a plan that
  // scans neither, their stores would count.
  EXPECT_EQ(cache::EntryBytes(all_entry->view, *plan::Scan("GENRES"), engine.catalog()),
            all_entry->bytes + movies->store().Bytes() + directors->store().Bytes());

  // A union with right-only rows (Scoop) gathers both inputs into a store
  // of its own, which its entry counts; its left input alone has the same
  // schema and key and reads MOVIES.
  auto recent = [] {
    return plan::Select(eb::Ge(eb::Col("year"), eb::Lit(int64_t{2008})),
                        plan::Scan("MOVIES"));
  };
  PlanPtr left = recent();
  PlanPtr both = plan::Union(
      recent(), plan::Select(eb::Le(eb::Col("duration"), eb::Lit(int64_t{120})),
                             plan::Scan("MOVIES")));
  std::shared_ptr<const CachedResult> left_entry = entry_of(*left);
  std::shared_ptr<const CachedResult> union_entry = entry_of(*both);
  ASSERT_TRUE(left_entry != nullptr && union_entry != nullptr);
  EXPECT_EQ(left_entry->view.sources[0], &movies->store());
  ASSERT_EQ(union_entry->view.width(), 1u);
  const ColumnStore* gathered = union_entry->view.sources[0];
  EXPECT_NE(gathered, &movies->store());
  EXPECT_EQ(union_entry->view.NumRows(), 3u);
  EXPECT_EQ(fixed(*union_entry), fixed(*left_entry) + gathered->Bytes());
}

TEST(CacheEquivalenceTest, MetricsRegistryExposesCacheCounters) {
  Session session(MakeMovieCatalog());
  ASSERT_TRUE(session.Query("SET CACHE ON").ok());
  ASSERT_TRUE(session.Query(kPreferringQuery).ok());
  ASSERT_TRUE(session.Query(kPreferringQuery).ok());
  obs::MetricsRegistry& metrics = session.engine().metrics();
  EXPECT_GT(metrics.counter("pref.cache.hits")->value(), 0u);
  EXPECT_GT(metrics.counter("pref.cache.misses")->value(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: racing executions of the same and different plans against a
// shared engine, with the cache enabled. Results must match the serial
// answer, and every lookup must resolve to a hit or a miss (no lost
// updates, no torn entries). Run under TSan via the `parallel` ctest label.

TEST(CacheConcurrencyTest, ConcurrentHitsAndMissesAreSafe) {
  Engine engine{MakeMovieCatalog()};
  engine.cache()->set_enabled(true);

  auto parsed = ParseQuery(
      "SELECT title, year FROM MOVIES WHERE year >= 2004", engine.catalog());
  ASSERT_TRUE(parsed.ok());
  auto parsed2 = ParseQuery(
      "SELECT title, year FROM MOVIES WHERE year <= 2008", engine.catalog());
  ASSERT_TRUE(parsed2.ok());
  const PlanNode* plans[] = {parsed->plan.get(), parsed2->plan.get()};

  ExecStats serial_stats[2];
  StatusOr<RowView> serial[] = {
      engine.ExecuteConcurrent(*plans[0], &serial_stats[0]),
      engine.ExecuteConcurrent(*plans[1], &serial_stats[1])};
  ASSERT_TRUE(serial[0].ok() && serial[1].ok());
  engine.cache()->Clear();  // Drops entries; hit/miss counters are cumulative.
  QueryCache::Stats baseline = engine.cache()->snapshot();

  constexpr int kThreads = 8;
  constexpr int kRounds = 16;
  std::vector<Status> failures(kThreads, Status::OK());
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int which = (t + round) % 2;
        ExecStats stats;
        StatusOr<RowView> result =
            engine.ExecuteConcurrent(*plans[which], &stats);
        if (!result.ok()) {
          failures[t] = result.status();
          return;
        }
        if (result->Gather().rows() != serial[which]->Gather().rows()) {
          failures[t] = Status::Internal("rows diverged from serial answer");
          return;
        }
        if (stats.engine_queries != serial_stats[which].engine_queries) {
          failures[t] = Status::Internal("stats replay diverged");
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].ok()) << "thread " << t << ": "
                                  << failures[t].ToString();
  }
  QueryCache::Stats stats = engine.cache()->snapshot();
  EXPECT_EQ((stats.hits - baseline.hits) + (stats.misses - baseline.misses),
            static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_GT(stats.hits, baseline.hits);
}

TEST(CacheConcurrencyTest, ConcurrentInsertEvictChurnIsSafe) {
  // A budget small enough that concurrent inserts continuously evict.
  QueryCache cache(nullptr, /*max_bytes=*/256);
  cache.set_enabled(true);
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (uint64_t i = 0; i < 200; ++i) {
        CacheKey key{(t * 1000 + i) % 37, i % 5};
        cache.Insert(key, EntryOfBytes(64));
        std::shared_ptr<const CachedResult> entry = cache.Lookup(key);
        if (entry != nullptr && entry->bytes != 64) {
          ADD_FAILURE() << "torn entry";
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  QueryCache::Stats stats = cache.snapshot();
  EXPECT_LE(stats.bytes, 256u);
}

}  // namespace
}  // namespace prefdb

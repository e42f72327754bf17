#ifndef PREFDB_CACHE_QUERY_CACHE_H_
#define PREFDB_CACHE_QUERY_CACHE_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/fingerprint.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/exec_stats.h"
#include "engine/row_view.h"
#include "obs/metrics.h"
#include "prefs/score_conf.h"
#include "types/relation.h"

namespace prefdb {
namespace cache {

/// One cached result: the row-id view a delegated engine query returned
/// (its ids, the stores they index and the pins that keep those stores
/// alive), plus the ExecStats delta recorded while computing it on the miss
/// path. A hit hands out a copy of the view: the id array is copied, no
/// value is.
///
/// The stats delta is the trick that keeps counters deterministic: a hit
/// *replays* the delta into the caller's ExecStats instead of executing, so
/// `tuples_materialized`, `rows_scanned`, `engine_queries` etc. are
/// identical cold vs. warm and cache on vs. off, at every thread count —
/// the savings show up in wall time and the pref.cache.* metrics, never as
/// counter drift the equivalence tests would have to special-case.
struct CachedResult {
  RowView view;
  ExecStats stats;
  /// The entry's footprint (EntryBytes), set by whoever builds it.
  size_t bytes = 0;
};

/// What an entry holding `view`, the result of `plan`, costs resident: its
/// id array, schema and key, plus every distinct store it reads that is not
/// the store of a table `plan` scans (a union's gathered rows). The scanned
/// tables are the catalog's and resident anyway. Deterministic (same view,
/// same estimate), so the byte budget behaves reproducibly in tests.
size_t EntryBytes(const RowView& view, const PlanNode& plan,
                  const Catalog& catalog);

/// Rough heap footprint of a view's rows gathered into a Relation, and of
/// row-aligned pairs, used by the governor's memory accounting. Strings
/// count at the capacity a copy of them has.
size_t EstimateViewBytes(const RowView& view);
size_t EstimatePairsBytes(const std::vector<ScoreConf>& pairs);

/// The admission policy's verdict on one value (QueryCache::Insert).
enum class Admission {
  kAdmitted,
  /// Bigger than the whole budget: admitting it would evict every entry and
  /// still not fit.
  kOversize,
  /// The ExecStats delta records zero rows scanned and zero tuples
  /// materialized: a recompute costs nothing, so caching it could only
  /// displace entries that are expensive to rebuild.
  kTrivial,
};

/// A thread-safe LRU result cache with one byte budget.
///
/// Entries are held as shared_ptr<const CachedResult>: a Lookup returns a
/// pin, so eviction (which merely drops the cache's own reference) can run
/// concurrently with readers still consuming the result — no reader ever
/// observes a freed entry. One mutex guards the list, the index and the
/// totals; a lookup holds it for one hash probe and one list splice.
///
/// Disabled by default: the seed semantics (every query recomputed) are
/// preserved until a session opts in via the `SET CACHE ON` pragma,
/// QueryOptions::cache, or set_enabled().
class QueryCache {
 public:
  static constexpr size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB.

  /// `metrics` (nullable) receives the pref.cache.{hits,misses,evictions,
  /// admission_rejected} counters and the pref.cache.{bytes,entries} gauges.
  explicit QueryCache(obs::MetricsRegistry* metrics = nullptr,
                      size_t max_bytes = kDefaultMaxBytes);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  size_t max_bytes() const { return max_bytes_.load(std::memory_order_relaxed); }
  /// Sets the byte budget and evicts immediately down to it.
  void set_max_bytes(size_t max_bytes);

  /// Drops every entry (readers holding pins keep their data).
  void Clear();

  /// The entry under `key`, or null on miss. A hit refreshes LRU recency.
  /// Counts a hit/miss either way — call only when actually consulting the
  /// cache, not to peek. Discarding the result throws the hit away and
  /// still skews the hit/miss counters, hence [[nodiscard]].
  [[nodiscard]] std::shared_ptr<const CachedResult> Lookup(const CacheKey& key);

  /// Offers `value` (its bytes already set) under `key`. The admission
  /// policy decides on value->bytes and value->stats: a rejected value is
  /// not stored, and the verdict says why (each rejection increments the
  /// pref.cache.admission_rejected counter). An admitted value replaces any
  /// entry under `key`, then LRU-last entries are evicted until the cache
  /// fits its budget.
  Admission Insert(const CacheKey& key,
                   std::shared_ptr<const CachedResult> value);

  /// Point-in-time totals.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
    uint64_t admission_rejected = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };
  Stats snapshot() const;

  std::string ToString() const;

 private:
  // Pops LRU-last entries until the cache fits `budget`.
  void EvictLocked(size_t budget) PREFDB_REQUIRES(mu_);
  // Sets the pref.cache.{bytes,entries} gauges to `totals`.
  void PublishGauges(const Stats& totals);

  std::atomic<bool> enabled_{false};
  std::atomic<size_t> max_bytes_;

  obs::MetricsRegistry* metrics_;
  obs::Counter* hit_counter_ = nullptr;       // "pref.cache.hits"
  obs::Counter* miss_counter_ = nullptr;      // "pref.cache.misses"
  obs::Counter* eviction_counter_ = nullptr;  // "pref.cache.evictions"
  obs::Counter* admission_counter_ = nullptr;  // "pref.cache.admission_rejected"

  mutable Mutex mu_;
  // Front = most recently used. The index maps key -> list position.
  std::list<std::pair<CacheKey, std::shared_ptr<const CachedResult>>> lru_
      PREFDB_GUARDED_BY(mu_);
  std::unordered_map<CacheKey, decltype(lru_)::iterator, CacheKeyHash> index_
      PREFDB_GUARDED_BY(mu_);
  Stats totals_ PREFDB_GUARDED_BY(mu_);
};

}  // namespace cache
}  // namespace prefdb

#endif  // PREFDB_CACHE_QUERY_CACHE_H_

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

/// One cached result: the rows of a delegated engine query, copied into a
/// column store (one typed column per output column) with their schema and
/// key, plus the ExecStats delta recorded while computing it on the miss
/// path.
///
/// The stats delta is the trick that keeps counters deterministic: a hit
/// *replays* the delta into the caller's ExecStats instead of executing, so
/// `tuples_materialized`, `rows_scanned`, `engine_queries` etc. are
/// identical cold vs. warm and cache on vs. off, at every thread count —
/// the savings show up in wall time and the pref.cache.* metrics, never as
/// counter drift the equivalence tests would have to special-case.
struct CachedResult {
  Schema schema;
  std::vector<size_t> key_columns;
  ColumnStore rows;
  ExecStats stats;
  /// The entry's footprint, EstimateEntryBytes; filled by Insert when
  /// left 0.
  size_t bytes = 0;

  /// The view of every row of the entry, pinning `self` (this entry).
  RowView View(std::shared_ptr<const CachedResult> self) const {
    return RowView::Of(schema, key_columns, rows, std::move(self));
  }
};

/// What a cache entry costs resident: its column store's arrays
/// (ColumnStore::Bytes) plus the entry and its schema. Deterministic (same
/// rows, same estimate), so the byte budget behaves reproducibly in tests.
size_t EstimateEntryBytes(const CachedResult& entry);

/// Rough heap footprint of a view's rows gathered into a Relation, and of
/// row-aligned pairs, used by the governor's memory accounting. Strings
/// count at the capacity a copy of them has.
size_t EstimateViewBytes(const RowView& view);
size_t EstimatePairsBytes(const std::vector<ScoreConf>& pairs);

/// The admission policy's verdict on one value (QueryCache::Admit).
enum class Admission {
  kAdmitted,
  /// Bigger than a whole shard's budget slice: admitting it would evict an
  /// entire shard for one key.
  kOversize,
  /// The ExecStats delta records zero rows scanned and zero tuples
  /// materialized: a recompute costs nothing, so caching it could only
  /// displace entries that are expensive to rebuild.
  kTrivial,
};

/// A thread-safe, sharded LRU result cache with a byte budget.
///
/// Entries are held as shared_ptr<const CachedResult>: a Lookup returns a
/// pin, so eviction (which merely drops the cache's own reference) can run
/// concurrently with readers still consuming the result — no reader ever
/// observes a freed relation, and no lock is held while copying row data.
///
/// Disabled by default: the seed semantics (every query recomputed) are
/// preserved until a session opts in via the `SET CACHE ON` pragma,
/// QueryOptions::cache, or set_enabled().
class QueryCache {
 public:
  static constexpr size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB.

  /// `metrics` (nullable) receives the pref.cache.{hits,misses,evictions}
  /// counters and the pref.cache.{bytes,entries} gauges.
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

  /// Stores `value` under `key` (replacing any existing entry), computing
  /// value->bytes (EstimateEntryBytes) if unset, then evicts LRU-last until
  /// the shard fits its budget slice. Values that Admit() rejects are not stored.
  void Insert(const CacheKey& key, std::shared_ptr<CachedResult> value);

  /// The admission policy, callable before a value is built so a rejected
  /// result is never copied: why a value of `bytes` whose miss execution
  /// recorded `stats` is not worth a slot (Admission), or kAdmitted. Each
  /// rejection increments the pref.cache.admission_rejected counter.
  Admission Admit(size_t bytes, const ExecStats& stats);

  /// Point-in-time totals (atomics; exact when quiescent).
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

  /// Resident bytes per shard, indexed by shard number — the source for the
  /// per-shard pref.cache.shard_bytes.<i> telemetry gauges. Takes each
  /// shard lock briefly; the vector is a point-in-time snapshot, not an
  /// atomic cross-shard view.
  std::vector<size_t> ShardBytes() const;

  /// Number of LRU shards (the length of ShardBytes()).
  static constexpr size_t shard_count() { return kShards; }

  std::string ToString() const;

 private:
  static constexpr size_t kShards = 8;

  struct Shard {
    mutable Mutex mu;
    // Front = most recently used. The index maps key -> list position.
    std::list<std::pair<CacheKey, std::shared_ptr<const CachedResult>>> lru
        PREFDB_GUARDED_BY(mu);
    std::unordered_map<CacheKey, decltype(lru)::iterator, CacheKeyHash> index
        PREFDB_GUARDED_BY(mu);
    size_t bytes PREFDB_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const CacheKey& key) {
    return shards_[CacheKeyHash()(key) % kShards];
  }
  size_t ShardBudget() const { return max_bytes() / kShards; }
  // Pops LRU-last entries until `shard` fits `budget`.
  void EvictLocked(Shard* shard, size_t budget) PREFDB_REQUIRES(shard->mu);
  void PublishGauges();

  std::atomic<bool> enabled_{false};
  std::atomic<size_t> max_bytes_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> admission_rejected_{0};
  std::atomic<size_t> total_bytes_{0};
  std::atomic<size_t> entry_count_{0};

  obs::MetricsRegistry* metrics_;
  obs::Counter* hit_counter_ = nullptr;       // "pref.cache.hits"
  obs::Counter* miss_counter_ = nullptr;      // "pref.cache.misses"
  obs::Counter* eviction_counter_ = nullptr;  // "pref.cache.evictions"
  obs::Counter* admission_counter_ = nullptr;  // "pref.cache.admission_rejected"

  Shard shards_[kShards];
};

}  // namespace cache
}  // namespace prefdb

#endif  // PREFDB_CACHE_QUERY_CACHE_H_

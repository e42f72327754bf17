#ifndef PREFDB_OBS_QUERY_LOG_H_
#define PREFDB_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace prefdb {
namespace obs {

/// One completed query as recorded by the session — the structured query
/// log's unit. The PrefSQL text itself is not retained (logs may be
/// scraped off-box); `sql_hash` is the FNV-1a of the original statement,
/// enough to group repeats and join against client-side records.
struct QueryRecord {
  uint64_t sql_hash = 0;        // 0 for programmatically built plans.
  std::string strategy;         // "FtP", "BU", "GBU", ...
  double millis = 0.0;          // Wall time of the whole Run().
  size_t rows_out = 0;          // Final result cardinality (0 on failure).
  uint64_t cache_hits = 0;      // pref.cache.hits delta over this query.
  uint64_t cache_misses = 0;    // pref.cache.misses delta over this query.
  size_t threads = 1;           // QueryOptions::parallel.threads.
  bool failed = false;
  std::string failure_message;  // Session::last_failure() message.
  /// Status code name of the failure ("Cancelled", "DeadlineExceeded",
  /// "ResourceExhausted", "Internal", ...); empty on success. Lets /queries
  /// scrapers distinguish governor trips from genuine execution errors.
  std::string failure_code;
  /// Full rendered span tree (with timings) when the query ran at/above
  /// the slowlog threshold (`SET SLOWLOG <ms>`); empty otherwise.
  std::string slow_trace;
  /// Monotonic record number assigned by Add() — survives ring-buffer
  /// wraparound, so a scraper can detect records it missed.
  uint64_t sequence = 0;
};

/// A mutex-guarded ring buffer of the most recent query records, owned by
/// the Engine and served by the telemetry endpoint (/queries). Writers are
/// sessions finishing a query; readers are scrapes — both touch only the
/// fixed-capacity ring under one lock, so the log is safe under concurrent
/// sessions and concurrent scrapes, and a hot query path never allocates
/// beyond the record it hands in.
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit QueryLog(size_t capacity = kDefaultCapacity);

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Appends `record`, assigning its sequence number; once the ring is
  /// full each Add overwrites the oldest record.
  void Add(QueryRecord record);

  /// The retained records, oldest first. A point-in-time copy — scrapes
  /// never block writers beyond the copy itself.
  std::vector<QueryRecord> Snapshot() const;

  size_t capacity() const { return capacity_; }
  /// Currently retained record count (<= capacity).
  size_t size() const;
  /// Total records ever added.
  uint64_t total_added() const;
  /// Records lost to wraparound (total_added - size).
  uint64_t dropped() const;

  /// Slowlog threshold in milliseconds: queries with millis >= threshold
  /// get their rendered span tree stamped into QueryRecord::slow_trace.
  /// Negative (the default) disables slow-trace stamping entirely — the
  /// session then doesn't even force tracing on.
  void set_slow_threshold_ms(double ms) {
    slow_threshold_ms_.store(ms, std::memory_order_relaxed);
  }
  double slow_threshold_ms() const {
    return slow_threshold_ms_.load(std::memory_order_relaxed);
  }
  bool slowlog_enabled() const { return slow_threshold_ms() >= 0.0; }

  /// JSON object {"capacity": ..., "size": ..., "dropped": ...,
  /// "records": [...]} with records oldest first — the /queries endpoint
  /// body. All strings are JSON-escaped.
  std::string ToJson() const;

 private:
  const size_t capacity_;
  std::atomic<double> slow_threshold_ms_{-1.0};

  mutable Mutex mu_;
  std::vector<QueryRecord> ring_ PREFDB_GUARDED_BY(mu_);
  size_t next_ PREFDB_GUARDED_BY(mu_) = 0;  // Ring slot the next Add takes.
  uint64_t added_ PREFDB_GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace prefdb

#endif  // PREFDB_OBS_QUERY_LOG_H_

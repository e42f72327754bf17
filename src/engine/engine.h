#ifndef PREFDB_ENGINE_ENGINE_H_
#define PREFDB_ENGINE_ENGINE_H_

#include <string>
#include <vector>

#include "cache/query_cache.h"
#include "engine/exec_stats.h"
#include "engine/executor.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "parallel/parallel_context.h"
#include "parallel/thread_pool.h"
#include "plan/plan.h"
#include "storage/catalog.h"
#include "types/relation.h"

namespace prefdb {

/// The native database engine facade: the component the paper treats as the
/// conventional DBMS underneath the preference layer. It accepts only
/// *conventional* plans (no prefer operators), optimizes them with the
/// native optimizer and executes them, exactly like the prototype delegates
/// SQL fragments to PostgreSQL. The preference-aware strategies (src/exec)
/// interact with the database exclusively through this interface — that is
/// what makes the implementation "hybrid" rather than native.
class Engine {
 public:
  explicit Engine(Catalog catalog)
      : catalog_(std::move(catalog)),
        query_count_(metrics_.counter("engine.queries")),
        query_micros_(metrics_.histogram("engine.query_micros")),
        rows_gathered_(metrics_.counter(obs::kPrefExecRowsGathered)) {
    // Resolve the native executor's counters once so each delegated query
    // hands the executor pre-looked-up handles (no registry locking on the
    // per-operator path).
    native_metrics_.scan_rows = metrics_.counter(obs::kPrefNativeScanRows);
    native_metrics_.join_build_rows =
        metrics_.counter(obs::kPrefNativeJoinBuildRows);
    native_metrics_.join_probe_rows =
        metrics_.counter(obs::kPrefNativeJoinProbeRows);
    native_metrics_.join_index_hits =
        metrics_.counter(obs::kPrefNativeJoinIndexHits);
    native_metrics_.setop_probe_rows =
        metrics_.counter(obs::kPrefNativeSetopProbeRows);
    native_metrics_.distinct_rows = metrics_.counter(obs::kPrefNativeDistinctRows);
    // No operator splits into parallel regions: the counter stays
    // registered, at 0, for the benchmarks that read it.
    metrics_.counter(obs::kPrefNativeParallelRegions);
    // Live gauges: refreshed at every metrics export (scrape time), so
    // /metrics always reflects the current cache residency, pool pressure
    // and query-log occupancy without the hot paths publishing continuously.
    // The hook captures `this`; it dies with metrics_ (a member), so it
    // cannot outlive the state it reads.
    metrics_.AddRefreshHook([this] {
      std::vector<size_t> shard_bytes = cache_.ShardBytes();
      for (size_t i = 0; i < shard_bytes.size(); ++i) {
        metrics_.SetGauge(
            std::string(obs::kPrefCacheShardBytesPrefix) + std::to_string(i),
            static_cast<double>(shard_bytes[i]));
      }
      metrics_.SetGauge(
          obs::kPrefPoolQueueDepth,
          static_cast<double>(ThreadPool::Shared().queue_depth()));
      metrics_.SetGauge(obs::kPrefQuerylogSize,
                        static_cast<double>(query_log_.size()));
      metrics_.SetGauge(obs::kPrefQuerylogDropped,
                        static_cast<double>(query_log_.dropped()));
    });
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const Catalog& catalog() const { return catalog_; }
  Catalog* mutable_catalog() { return &catalog_; }

  /// Registers a strategy-built temporary table (GBU region inputs),
  /// marking it temporary so the result cache refuses to key plans that
  /// reference it. This is the only sanctioned catalog mutation during
  /// execution — tools/prefdb_lint rejects direct mutable_catalog() use
  /// outside src/engine, so every runtime mutation funnels through here.
  Status RegisterTempTable(std::unique_ptr<Table> table) {
    table->MarkTemporary();
    return catalog_.AddTable(std::move(table));
  }

  /// Drops a temporary registered with RegisterTempTable. No-op if absent.
  void DropTempTable(const std::string& name) { catalog_.DropTable(name); }

  /// Optimizes and executes a conventional plan and gathers its rows;
  /// counts one engine query. Fails if the plan contains prefer operators.
  StatusOr<Relation> Execute(const PlanNode& query);

  /// Like Execute(), but returns the result as the root operator's row-id
  /// view (no value is copied) and accumulates all counters into the
  /// caller-provided `stats` instead of the engine's. This is the entry
  /// point of the strategies, which may issue engine queries concurrently
  /// (parallel plug-ins): each task executes into its own ExecStats, merged
  /// into the engine's counters in a deterministic order at the join point.
  /// Concurrent calls are safe: the executor only reads the catalog, lazy
  /// per-table index/statistics builds are internally synchronized, and
  /// the view pins the tables it reads.
  ///
  /// When the result cache is enabled, the query is fingerprinted first: a
  /// hit returns a view of the cached relation (no copy) and replays its
  /// ExecStats delta into `stats` (so counters match an uncached execution
  /// exactly); a miss executes, gathers the result once into a new entry
  /// when the cache admits it, and returns a view of that entry. `span`
  /// (nullable) receives the outcome, surfaced by EXPLAIN ANALYZE:
  /// "cache=hit", "cache=miss", "cache=miss(rejected:oversize)" or
  /// "cache=miss(rejected:trivial)" when the admission policy turned the
  /// result away, and "cache=skip(temp)" for a plan over a temporary table,
  /// which is never cached.
  StatusOr<RowView> ExecuteConcurrent(const PlanNode& query, ExecStats* stats,
                                      obs::Span* span = nullptr);

  /// Executes without native optimization and gathers the rows (for the
  /// optimizer-ablation benchmarks and as a differential-testing oracle).
  StatusOr<Relation> ExecuteUnoptimized(const PlanNode& query);

  /// Counts rows copied out of a row-id view (pref.exec.rows_gathered).
  void NoteRowsGathered(size_t rows) { rows_gathered_->Increment(rows); }

  /// The paper's `EXPLAIN [query]`: returns the join order the native
  /// optimizer would choose, without executing (negligible overhead). The
  /// extended optimizer uses this to match its subtree arrangement to the
  /// native one (§VI-A, rule "match the native join order").
  StatusOr<std::vector<std::string>> ExplainJoinOrder(const PlanNode& query) const;

  /// Human-readable optimized plan (EXPLAIN output).
  StatusOr<std::string> Explain(const PlanNode& query) const;

  /// Cumulative execution statistics since the last ResetStats().
  const ExecStats& stats() const { return stats_; }
  /// Mutable access for the preference layer's operators, so middle-layer
  /// work (prefer evaluation, score-relation writes) lands in the same
  /// per-query counters as delegated engine work.
  ExecStats* mutable_stats() { return &stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Per-engine metrics: named counters and latency histograms that
  /// accumulate across every query (thread-safe; unlike the ExecStats
  /// block, which belongs to exactly one task at a time). The Session
  /// folds its per-query ExecStats deltas in here too, so this registry is
  /// the one cumulative view of a database instance.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Toggles the native optimizer (default on).
  void set_native_optimizer_enabled(bool enabled) {
    native_optimizer_enabled_ = enabled;
  }
  bool native_optimizer_enabled() const { return native_optimizer_enabled_; }

  /// The per-query context consulted by the execution strategies: the
  /// plug-ins' delegated-query fan-out width and the governor. Defaults to
  /// serial and ungoverned; the Session installs the per-query context
  /// before executing (runner.cc).
  const ParallelContext& parallel_context() const { return parallel_; }
  void set_parallel_context(const ParallelContext& ctx) { parallel_ = ctx; }

  /// The result cache shared by every query against this engine: the
  /// results of delegated conventional queries, keyed by plan fingerprints
  /// (src/cache). Off by default.
  cache::QueryCache* cache() { return &cache_; }
  const cache::QueryCache& cache() const { return cache_; }

  /// The structured query log: a ring buffer of recent query records the
  /// Session appends to and the telemetry endpoint (/queries) serves. Also
  /// carries the `SET SLOWLOG` threshold.
  obs::QueryLog& query_log() { return query_log_; }
  const obs::QueryLog& query_log() const { return query_log_; }

 private:
  /// Copies a miss result `view` into a cache entry (a column store) and
  /// offers it to the cache under `key`. Returns a view of the entry, which
  /// aliases its rows, when the cache admitted it; else `view` unchanged,
  /// with the admission's verdict in `verdict`.
  RowView InsertGathered(const cache::CacheKey& key, RowView view,
                         const ExecStats& stats, cache::Admission* verdict);

  Catalog catalog_;
  ExecStats stats_;
  obs::MetricsRegistry metrics_;
  cache::QueryCache cache_{&metrics_};
  obs::QueryLog query_log_;
  obs::Counter* query_count_;     // "engine.queries"
  obs::Histogram* query_micros_;  // "engine.query_micros"
  obs::Counter* rows_gathered_;   // "pref.exec.rows_gathered"
  NativeExecMetrics native_metrics_;  // "pref.native.*"
  bool native_optimizer_enabled_ = true;
  ParallelContext parallel_;
};

}  // namespace prefdb

#endif  // PREFDB_ENGINE_ENGINE_H_

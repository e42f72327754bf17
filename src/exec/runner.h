#ifndef PREFDB_EXEC_RUNNER_H_
#define PREFDB_EXEC_RUNNER_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "exec/strategy.h"
#include "obs/trace.h"
#include "optimizer/extended_optimizer.h"
#include "parallel/parallel_context.h"
#include "parser/parser.h"
#include "prefs/profile.h"

namespace prefdb {

/// Per-query options: which execution strategy to use and how (whether) to
/// run the preference-aware optimizer first.
struct QueryOptions {
  StrategyKind strategy = StrategyKind::kGBU;
  /// Run the extended optimizer before execution (BU/GBU benefit; FtP and
  /// the plug-ins work from the unoptimized plan, as in the paper).
  bool optimize = true;
  ExtendedOptimizerOptions optimizer;
  /// Parallelism: `threads` is how many of a plug-in strategy's independent
  /// delegated queries run at once. Defaults to serial execution; every
  /// strategy produces the same p-relation, rows, row order, pairs and
  /// counters at any thread count.
  ParallelContext parallel;
  /// Collect a hierarchical span trace of the execution (QueryResult::trace).
  /// Off by default: the strategies then see a null span and pay one pointer
  /// test per annotation site. An `EXPLAIN ANALYZE` query prefix — or an
  /// armed `SET SLOWLOG` threshold — forces tracing on regardless of this
  /// flag.
  bool trace = false;
  /// Per-query override of the engine's result cache: when set, the cache
  /// is enabled/disabled for this query only (the engine-wide setting —
  /// toggled by the `SET CACHE ON|OFF` pragma — is restored afterwards).
  std::optional<bool> cache;
  /// Wall-clock statement deadline in milliseconds, enforced cooperatively
  /// at the governor checkpoints. Negative (the default) defers to the
  /// session's `SET STATEMENT_TIMEOUT` value; >= 0 overrides it for this
  /// query (0 trips at the first checkpoint).
  double timeout_ms = -1.0;
  /// Cooperative memory budget in bytes for this query's materializations
  /// (intermediate p-relations, GBU temp tables, cached results). 0 (the
  /// default) defers to the session's `SET MEMORY LIMIT` value.
  size_t memory_limit_bytes = 0;
  /// Optional caller-owned cancellation handle: flip it from any thread
  /// and the query unwinds (Status kCancelled) at its next checkpoint.
  /// Must outlive the Run() call. Null means not externally cancellable.
  const CancellationToken* cancel_token = nullptr;
};

/// The answer of a preferential query plus its execution telemetry.
struct QueryResult {
  /// Final relation: the requested columns plus trailing `score` and `conf`
  /// columns, filtered and ordered per the query's filter clauses.
  Relation relation;
  /// Statistics accumulated while executing this query.
  ExecStats stats;
  /// Wall-clock time, milliseconds.
  double millis = 0.0;
  /// The plan that was executed (after extended optimization), printable.
  std::string executed_plan;
  /// The span tree of this execution when tracing was requested
  /// (QueryOptions::trace or EXPLAIN ANALYZE), else null. Shared so results
  /// stay copyable; the tree is immutable once the query returns.
  std::shared_ptr<const obs::Span> trace;
  /// Rendered trace for an EXPLAIN ANALYZE query; empty otherwise. The
  /// default FORMAT TEXT is the indented span tree with timings; FORMAT
  /// CHROME is the deterministic (untimed) Chrome trace-event document —
  /// the timed tree stays available on `trace`.
  std::string explain_analyze;
};

/// A database session: owns the engine (catalog + native optimizer +
/// executor) and runs preferential queries end to end —
/// parse → extended optimize → strategy execute → filter → project.
///
///   Session session(BuildCatalog());
///   auto result = session.Query(
///       "SELECT title FROM MOVIES "
///       "PREFERRING (year >= 2000) SCORE recency(year, 2011) CONF 0.9 "
///       "TOP 10 BY SCORE");
class Session {
 public:
  explicit Session(Catalog catalog) : engine_(std::move(catalog)) {}

  /// Parses and runs a PrefSQL query.
  StatusOr<QueryResult> Query(std::string_view prefsql,
                              const QueryOptions& options = QueryOptions());

  /// Runs an already parsed query (the programmatic entry point; the
  /// workload builders and benches use this to reuse parses).
  StatusOr<QueryResult> Run(const ParsedQuery& parsed,
                            const QueryOptions& options = QueryOptions());

  /// Query personalization (paper §I/§V): parses `prefsql` (typically a
  /// plain SQL query without a PREFERRING clause) and transparently
  /// injects the relevant preferences from `profile` before executing.
  StatusOr<QueryResult> QueryPersonalized(
      std::string_view prefsql, const Profile& profile,
      const QueryOptions& options = QueryOptions());

  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }

  /// Telemetry of the most recent failed Run() on this session: the error,
  /// the strategy, the wall time until the failure and the stats of the
  /// partial execution. Queries used to discard all of this on the error
  /// path; benches and tests use it to attribute the cost of failures.
  /// Reset (to nullopt) by every Run(); set only when that Run() fails.
  struct FailureReport {
    std::string strategy;
    std::string message;
    /// Status code of the failure — distinguishes governor trips
    /// (kCancelled / kDeadlineExceeded / kResourceExhausted) from genuine
    /// execution errors.
    StatusCode code = StatusCode::kOk;
    double millis = 0.0;
    ExecStats stats;
  };
  const std::optional<FailureReport>& last_failure() const {
    return last_failure_;
  }

 private:
  StatusOr<QueryResult> RunInternal(const ParsedQuery& parsed,
                                    const QueryOptions& options,
                                    Strategy* strategy, ExecStats* stats,
                                    obs::Span* root);
  /// Applies a `SET CACHE` pragma to the engine's cache and returns the
  /// synthetic (empty-relation) result describing what was done.
  QueryResult ApplyCachePragma(const CachePragma& pragma);
  /// Applies a `SET SLOWLOG` pragma to the engine's query log.
  QueryResult ApplySlowlogPragma(const SlowlogPragma& pragma);
  /// Applies a `SET STATEMENT_TIMEOUT` pragma (session deadline default).
  QueryResult ApplyTimeoutPragma(const TimeoutPragma& pragma);
  /// Applies a `SET MEMORY LIMIT` pragma (session budget default).
  QueryResult ApplyMemoryPragma(const MemoryPragma& pragma);
  /// Applies a `SET FAULT` pragma to the process-wide fault registry.
  QueryResult ApplyFaultPragma(const FaultPragma& pragma);

  Engine engine_;
  std::optional<FailureReport> last_failure_;
  /// Session defaults armed by the governor pragmas; per-query
  /// QueryOptions values take precedence when set.
  double statement_timeout_ms_ = -1.0;
  size_t session_memory_limit_bytes_ = 0;
};

}  // namespace prefdb

#endif  // PREFDB_EXEC_RUNNER_H_

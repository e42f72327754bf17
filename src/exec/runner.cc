#include "exec/runner.h"

#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "exec/personalize.h"
#include "obs/metric_names.h"
#include "palgebra/filters.h"

namespace prefdb {

StatusOr<QueryResult> Session::Query(std::string_view prefsql,
                                     const QueryOptions& options) {
  ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(prefsql, engine_.catalog()));
  return Run(parsed, options);
}

StatusOr<QueryResult> Session::QueryPersonalized(std::string_view prefsql,
                                                 const Profile& profile,
                                                 const QueryOptions& options) {
  ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(prefsql, engine_.catalog()));
  if (parsed.cache_pragma.kind == CachePragmaKind::kNone) {
    RETURN_IF_ERROR(
        InjectProfile(&parsed, profile, engine_.catalog()).status());
  }
  return Run(parsed, options);
}

QueryResult Session::ApplyCachePragma(const CachePragma& pragma) {
  cache::QueryCache* cache = engine_.cache();
  QueryResult result;
  switch (pragma.kind) {
    case CachePragmaKind::kOn:
      cache->set_enabled(true);
      result.executed_plan = "SET CACHE ON";
      break;
    case CachePragmaKind::kOff:
      cache->set_enabled(false);
      result.executed_plan = "SET CACHE OFF";
      break;
    case CachePragmaKind::kClear:
      cache->Clear();
      result.executed_plan = "SET CACHE CLEAR";
      break;
    case CachePragmaKind::kLimit:
      cache->set_max_bytes(pragma.limit_bytes);
      result.executed_plan =
          StrFormat("SET CACHE LIMIT %zu", pragma.limit_bytes);
      break;
    case CachePragmaKind::kNone:
      break;
  }
  return result;
}

QueryResult Session::ApplySlowlogPragma(const SlowlogPragma& pragma) {
  engine_.query_log().set_slow_threshold_ms(pragma.threshold_ms);
  QueryResult result;
  result.executed_plan =
      pragma.threshold_ms < 0.0
          ? "SET SLOWLOG OFF"
          : StrFormat("SET SLOWLOG %.0f", pragma.threshold_ms);
  return result;
}

QueryResult Session::ApplyTimeoutPragma(const TimeoutPragma& pragma) {
  statement_timeout_ms_ = pragma.timeout_ms;
  QueryResult result;
  result.executed_plan =
      pragma.timeout_ms < 0.0
          ? "SET STATEMENT_TIMEOUT OFF"
          : StrFormat("SET STATEMENT_TIMEOUT %.0f", pragma.timeout_ms);
  return result;
}

QueryResult Session::ApplyMemoryPragma(const MemoryPragma& pragma) {
  session_memory_limit_bytes_ = pragma.limit_bytes;
  QueryResult result;
  result.executed_plan =
      pragma.limit_bytes == 0
          ? "SET MEMORY LIMIT OFF"
          : StrFormat("SET MEMORY LIMIT %zu", pragma.limit_bytes);
  return result;
}

QueryResult Session::ApplyFaultPragma(const FaultPragma& pragma) {
  QueryResult result;
  if (pragma.point.empty()) {
    FaultInjection::Global().Disarm();
    result.executed_plan = "SET FAULT OFF";
  } else {
    FaultInjection::Global().Arm(pragma.point, pragma.skip);
    result.executed_plan =
        StrFormat("SET FAULT '%s' AFTER %llu", pragma.point.c_str(),
                  static_cast<unsigned long long>(pragma.skip));
  }
  return result;
}

StatusOr<QueryResult> Session::Run(const ParsedQuery& parsed,
                                   const QueryOptions& options) {
  last_failure_.reset();
  if (parsed.cache_pragma.kind != CachePragmaKind::kNone) {
    return ApplyCachePragma(parsed.cache_pragma);
  }
  if (parsed.slowlog_pragma.present) {
    return ApplySlowlogPragma(parsed.slowlog_pragma);
  }
  if (parsed.timeout_pragma.present) {
    return ApplyTimeoutPragma(parsed.timeout_pragma);
  }
  if (parsed.memory_pragma.present) {
    return ApplyMemoryPragma(parsed.memory_pragma);
  }
  if (parsed.fault_pragma.present) {
    return ApplyFaultPragma(parsed.fault_pragma);
  }
  Stopwatch watch;

  // Per-query governor: lives on this frame for the duration of one query
  // (sessions run one query at a time, and the engine's parallel context
  // drops the pointer below before Run returns). Per-query options win
  // over the session defaults armed by the governor pragmas.
  QueryGovernor governor;
  const double timeout_ms =
      options.timeout_ms >= 0.0 ? options.timeout_ms : statement_timeout_ms_;
  if (timeout_ms >= 0.0) governor.ArmDeadline(timeout_ms);
  governor.ArmMemoryLimit(options.memory_limit_bytes != 0
                              ? options.memory_limit_bytes
                              : session_memory_limit_bytes_);
  if (options.cancel_token != nullptr) {
    governor.AttachToken(options.cancel_token);
  }
  ParallelContext governed = options.parallel;
  governed.governor = &governor;
  engine_.set_parallel_context(governed);

  // Per-query cache override: flip the engine-wide switch for the duration
  // of this query only. Sessions are not re-entrant (one query at a time),
  // so the save/restore cannot interleave with another query.
  const bool saved_cache_enabled = engine_.cache()->enabled();
  if (options.cache.has_value()) {
    engine_.cache()->set_enabled(*options.cache);
  }

  // An armed slowlog forces tracing: whether a query turns out slow is only
  // known after it ran, so the trace must already exist by then.
  obs::QueryLog& query_log = engine_.query_log();
  bool tracing = options.trace || parsed.explain_analyze ||
                 query_log.slowlog_enabled();
  obs::SpanPtr root = tracing ? obs::Span::Detached("Query") : nullptr;
  std::unique_ptr<Strategy> strategy = MakeStrategy(options.strategy);
  // Cache counters are sampled around the execution so the query record
  // carries this query's hit/miss delta (sessions run one query at a time).
  const cache::QueryCache::Stats cache_before = engine_.cache()->snapshot();

  // The query executes into a local ExecStats (merged into the engine's
  // cumulative counters below), replacing the old before/after subtraction
  // of the engine counters — which was both racy under concurrent sessions
  // and blind on the error path.
  ExecStats stats;
  const uint64_t faults_before = FaultInjection::Global().fired();
  StatusOr<QueryResult> outcome = Status::Internal("unreachable");
  // Checkpoints inside void row loops unwind as exceptions; most convert
  // back to Status inside Engine::ExecuteConcurrent, but trips in the
  // strategies' own operators (prefer passes, BU's p-operators) surface
  // here. This is the outermost boundary — the public API never throws.
  try {
    outcome = RunInternal(parsed, options, strategy.get(), &stats, root.get());
  } catch (const QueryAbortedException& aborted) {
    outcome = aborted.status();
  }
  double millis = watch.ElapsedMillis();
  if (options.cache.has_value()) {
    engine_.cache()->set_enabled(saved_cache_enabled);
  }
  // Drop the stack-local governor from the engine's context: anything that
  // executes against the engine after this frame returns (telemetry
  // refresh hooks, direct Engine::Execute calls) must not observe a
  // dangling pointer.
  engine_.set_parallel_context(options.parallel);

  engine_.mutable_stats()->Merge(stats);
  // Fold the per-query deltas into the engine's cumulative metrics registry
  // (counters are thread-safe; the hot paths above only touched `stats`).
  obs::MetricsRegistry& metrics = engine_.metrics();
  metrics.counter("session.queries")->Increment();
  metrics.histogram("session.query_micros")->Record(millis * 1000.0);
  metrics.counter("exec.tuples_materialized")
      ->Increment(stats.tuples_materialized);
  metrics.counter("exec.rows_scanned")->Increment(stats.rows_scanned);
  metrics.counter("exec.operator_invocations")
      ->Increment(stats.operator_invocations);
  metrics.counter("exec.score_entries_written")
      ->Increment(stats.score_entries_written);

  // Structured query log: every query — pragmas aside — leaves one record,
  // success or failure, so /queries shows what the session actually ran.
  const cache::QueryCache::Stats cache_after = engine_.cache()->snapshot();
  obs::QueryRecord record;
  record.sql_hash = parsed.text_hash;
  record.strategy = std::string(strategy->name());
  record.millis = millis;
  record.cache_hits = cache_after.hits - cache_before.hits;
  record.cache_misses = cache_after.misses - cache_before.misses;
  record.threads = options.parallel.threads;
  const bool slow = query_log.slowlog_enabled() &&
                    millis >= query_log.slow_threshold_ms();

  if (!outcome.ok()) {
    // A failed query used to discard its Stopwatch and partial counters;
    // keep them on the session so callers can attribute the wasted work.
    metrics.counter("session.query_failures")->Increment();
    // Governor accounting: which limit (if any) ended this query, and
    // whether an armed fault point fired during it.
    switch (outcome.status().code()) {
      case StatusCode::kCancelled:
        metrics.counter(obs::kPrefGovernorCancelled)->Increment();
        break;
      case StatusCode::kDeadlineExceeded:
        metrics.counter(obs::kPrefGovernorDeadlineExceeded)->Increment();
        break;
      case StatusCode::kResourceExhausted:
        metrics.counter(obs::kPrefGovernorResourceExhausted)->Increment();
        break;
      default:
        break;
    }
    const uint64_t faults_fired = FaultInjection::Global().fired() - faults_before;
    if (faults_fired > 0) {
      metrics.counter(obs::kPrefGovernorFaultsInjected)->Increment(faults_fired);
    }
    FailureReport report;
    report.strategy = std::string(strategy->name());
    report.message = outcome.status().message();
    report.code = outcome.status().code();
    report.millis = millis;
    report.stats = stats;
    last_failure_ = std::move(report);
    record.failed = true;
    record.failure_message = outcome.status().message();
    record.failure_code = std::string(StatusCodeName(outcome.status().code()));
    if (slow && root != nullptr) record.slow_trace = root->ToString();
    query_log.Add(std::move(record));
    return outcome.status();
  }

  QueryResult result = std::move(*outcome);
  result.millis = millis;
  result.stats = stats;
  if (root != nullptr) {
    root->micros = millis * 1000.0;
    root->rows_out = result.relation.NumRows();
    if (parsed.explain_analyze) {
      result.explain_analyze = parsed.explain_format == ExplainFormat::kChrome
                                   ? root->ToChromeTrace(false)
                                   : root->ToString();
    }
    if (slow) record.slow_trace = root->ToString();
    result.trace = std::move(root);
  }
  record.rows_out = result.relation.NumRows();
  query_log.Add(std::move(record));
  return result;
}

StatusOr<QueryResult> Session::RunInternal(const ParsedQuery& parsed,
                                           const QueryOptions& options,
                                           Strategy* strategy, ExecStats* stats,
                                           obs::Span* root) {
  const PlanNode* plan = parsed.plan.get();
  PlanPtr optimized;
  // FtP and the plug-ins rebuild their own query from the plan's prefer
  // operators and non-preference skeleton; the extended optimizer serves
  // the plan-driven strategies (BU, GBU).
  bool plan_driven = options.strategy == StrategyKind::kBU ||
                     options.strategy == StrategyKind::kGBU;
  if (options.optimize && plan_driven) {
    obs::SpanScope opt_scope(root, "ExtendedOptimize");
    ExtendedOptimizer optimizer(&engine_, options.optimizer);
    ASSIGN_OR_RETURN(optimized, optimizer.Optimize(*parsed.plan));
    plan = optimized.get();
  }

  const AggregateFunction* agg = parsed.agg;
  if (agg == nullptr) {
    ASSIGN_OR_RETURN(agg, GetAggregateFunction("wsum"));
  }
  ASSIGN_OR_RETURN(PRelation evaluated,
                   strategy->ExecuteWithStats(*plan, *agg, &engine_, stats, root));

  obs::SpanScope filter_scope(root, "FilterAndProject");
  obs::SetRowsIn(filter_scope.get(), evaluated.NumRows());
  // The answer is the one place a preference query copies values out of
  // the row-id views: the surviving rows, already projected.
  ASSIGN_OR_RETURN(Relation final_rel,
                   ApplyFiltersAndProject(evaluated, parsed.filters,
                                          parsed.output_columns));
  engine_.NoteRowsGathered(final_rel.NumRows());
  obs::SetRowsOut(filter_scope.get(), final_rel.NumRows());

  QueryResult result;
  result.relation = std::move(final_rel);
  result.executed_plan = plan->ToString();
  return result;
}

}  // namespace prefdb

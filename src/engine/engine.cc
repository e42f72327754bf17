#include "engine/engine.h"

#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "engine/executor.h"
#include "engine/native_optimizer.h"

namespace prefdb {

StatusOr<Relation> Engine::Execute(const PlanNode& query) {
  ASSIGN_OR_RETURN(RowView view, ExecuteConcurrent(query, &stats_));
  NoteRowsGathered(view.NumRows());
  return view.Gather();
}

StatusOr<RowView> Engine::ExecuteConcurrent(const PlanNode& query,
                                             ExecStats* stats,
                                             obs::Span* span) {
  // The registry instruments here (and not per-caller) so that every
  // delegated query — serial or issued from a pool task — lands in the
  // same thread-safe counters; the per-task ExecStats keeps carrying the
  // race-free per-query deltas as before.
  Stopwatch watch;
  query_count_->Increment();
  RETURN_IF_ERROR(FaultInjection::Global().Hit("engine.execute"));
  const QueryGovernor* governor = parallel_.governor;
  RETURN_IF_ERROR(GovernorCheck(governor));
  auto run = [&](ExecStats* s) -> StatusOr<RowView> {
    ++s->engine_queries;
    // The executor inherits this engine's parallel context and span: its
    // hot operators evaluate in concurrent morsels and record `native.*`
    // child spans under the delegated-query span, so EXPLAIN ANALYZE shows
    // where delegated time goes. Nested fork/join is safe even when this
    // call itself runs on a pool task — TaskGroup::Wait is a helping join.
    NativeExecOptions exec;
    exec.parallel = &parallel_;
    exec.span = span;
    exec.metrics = &native_metrics_;
    exec.trace_level = trace_level_;
    // Governor trips inside morsel-loop bodies unwind as exceptions
    // (rethrown by TaskGroup::Wait after every sibling joined); this is
    // the boundary where they become the Status the strategies propagate.
    try {
      if (!native_optimizer_enabled_) {
        return ExecutePlan(query, &catalog_, s, exec);
      }
      ASSIGN_OR_RETURN(NativeOptimizerResult optimized,
                       NativeOptimize(query, catalog_));
      return ExecutePlan(*optimized.plan, &catalog_, s, exec);
    } catch (const QueryAbortedException& aborted) {
      return aborted.status();
    }
  };

  // Fingerprint against the *pre*-native-optimization plan: the optimizer
  // is deterministic for a fixed catalog, so the logical plan plus the
  // optimizer toggle (folded into the seed) identifies the physical result.
  cache::CacheKey key;
  bool use_cache = false;
  if (cache_.enabled()) {
    StatusOr<cache::PlanFingerprint> fp = cache::FingerprintPlan(
        query, catalog_, native_optimizer_enabled_ ? 1 : 0);
    if (fp.ok() && fp->cacheable) {
      key = fp->key;
      use_cache = true;
    } else if (fp.ok()) {
      obs::AppendDetail(span, "cache=skip(temp)");
    }
  }

  // Cooperative memory accounting: every result this call hands its
  // caller — warm or cold — is charged against the governor's budget, at
  // the size of its gathered rows, before it can be admitted to the cache
  // or returned.
  auto charge = [&](const RowView& view) -> Status {
    // The byte estimate walks the rows, so skip it (not just the charge)
    // unless a budget is actually armed.
    if (governor == nullptr || !governor->memory_armed()) return Status::OK();
    return governor->ChargeBytes(cache::EstimateViewBytes(view));
  };

  StatusOr<RowView> result = Status::Internal("unreachable");
  if (use_cache) {
    if (std::shared_ptr<const cache::CachedResult> entry =
            cache_.Lookup(key)) {
      // Replay the miss execution's counter delta so cold and warm runs
      // are indistinguishable to the ExecStats equivalence checks.
      stats->Merge(entry->stats);
      obs::AppendDetail(span, "cache=hit");
      query_micros_->Record(watch.ElapsedMicros());
      RowView hit = entry->View(entry);
      RETURN_IF_ERROR(charge(hit));
      return hit;
    }
    std::string_view outcome = "cache=miss";
    ExecStats local;
    result = run(&local);
    stats->Merge(local);
    if (result.ok()) {
      Status admitted = charge(*result);
      if (admitted.ok()) {
        admitted = FaultInjection::Global().Hit("cache.insert");
      }
      if (!admitted.ok()) {
        result = std::move(admitted);
      } else if (governor == nullptr || !governor->tripped()) {
        // Only untripped results are admitted: a query that failed, was
        // cancelled mid-flight or hit a fault point never populates a
        // shard, so later queries cannot reuse poisoned state. Admission
        // is decided on the entry's column store, so an oversize result is
        // copied once and dropped.
        cache::Admission verdict = cache::Admission::kAdmitted;
        result = InsertGathered(key, std::move(*result), local, &verdict);
        switch (verdict) {
          case cache::Admission::kAdmitted:
            break;
          case cache::Admission::kOversize:
            outcome = "cache=miss(rejected:oversize)";
            break;
          case cache::Admission::kTrivial:
            outcome = "cache=miss(rejected:trivial)";
            break;
        }
      }
    }
    obs::AppendDetail(span, outcome);
  } else {
    result = run(stats);
    if (result.ok()) {
      Status admitted = charge(*result);
      if (!admitted.ok()) result = std::move(admitted);
    }
  }
  query_micros_->Record(watch.ElapsedMicros());
  return result;
}

RowView Engine::InsertGathered(const cache::CacheKey& key, RowView view,
                               const ExecStats& stats, cache::Admission* verdict) {
  auto entry = std::make_shared<cache::CachedResult>();
  entry->schema = view.schema;
  entry->key_columns = view.key_columns;
  entry->rows = view.GatherColumns();
  NoteRowsGathered(view.NumRows());
  entry->stats = stats;
  entry->bytes = cache::EstimateEntryBytes(*entry);
  *verdict = cache_.Admit(entry->bytes, stats);
  if (*verdict != cache::Admission::kAdmitted) return view;
  cache_.Insert(key, entry);
  return entry->View(entry);
}

StatusOr<Relation> Engine::ExecuteUnoptimized(const PlanNode& query) {
  ++stats_.engine_queries;
  ASSIGN_OR_RETURN(RowView view, ExecutePlan(query, &catalog_, &stats_));
  NoteRowsGathered(view.NumRows());
  return view.Gather();
}

StatusOr<std::vector<std::string>> Engine::ExplainJoinOrder(
    const PlanNode& query) const {
  ASSIGN_OR_RETURN(NativeOptimizerResult optimized, NativeOptimize(query, catalog_));
  return optimized.join_order;
}

StatusOr<std::string> Engine::Explain(const PlanNode& query) const {
  ASSIGN_OR_RETURN(NativeOptimizerResult optimized, NativeOptimize(query, catalog_));
  return optimized.plan->ToString();
}

}  // namespace prefdb

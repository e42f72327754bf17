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
    // The executor inherits this engine's governor and span: its operators
    // record `native.*` child spans under the delegated-query span, so
    // EXPLAIN ANALYZE shows where delegated time goes.
    NativeExecOptions exec;
    exec.governor = governor;
    exec.span = span;
    exec.metrics = &native_metrics_;
    // Governor trips inside the kernels' row loops unwind as exceptions;
    // this is the boundary where they become the Status the strategies
    // propagate.
    try {
      if (!native_optimizer_enabled_) {
        return ExecutePlan(query, &catalog_, s, exec);
      }
      obs::SpanScope optimize(span, "native.optimize");
      ASSIGN_OR_RETURN(NativeOptimizerResult optimized,
                       NativeOptimize(query, catalog_));
      optimize.Finish();
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
      RowView hit = entry->view;
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
        // cancelled mid-flight or hit a fault point never populates the
        // cache, so later queries cannot reuse poisoned state. The entry is
        // the view itself, so admission costs no copy of a value: an
        // admitted miss returns a copy of the entry's view (its ids), a
        // rejected one its own view.
        auto entry = std::make_shared<cache::CachedResult>();
        entry->bytes = cache::EntryBytes(*result, query, catalog_);
        entry->stats = local;
        entry->view = std::move(*result);
        const cache::Admission verdict = cache_.Insert(key, entry);
        result = verdict == cache::Admission::kAdmitted ? entry->view
                                                        : std::move(entry->view);
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

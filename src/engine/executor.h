#ifndef PREFDB_ENGINE_EXECUTOR_H_
#define PREFDB_ENGINE_EXECUTOR_H_

#include "common/governor.h"
#include "engine/exec_stats.h"
#include "engine/row_view.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "storage/catalog.h"

namespace prefdb {

/// Pre-resolved handles to the native executor's pref.native.* counters.
/// The Engine resolves the names once at construction so the per-operator
/// hot path is a lock-free atomic add; a default-constructed (all-null)
/// block disables metric collection entirely — the direct-call entry used
/// by tests and the ablation oracle.
struct NativeExecMetrics {
  obs::Counter* scan_rows = nullptr;         // "pref.native.scan_rows"
  obs::Counter* join_build_rows = nullptr;   // "pref.native.join_build_rows"
  obs::Counter* join_probe_rows = nullptr;   // "pref.native.join_probe_rows"
  obs::Counter* join_index_hits = nullptr;   // "pref.native.join_index_hits"
  obs::Counter* setop_probe_rows = nullptr;  // "pref.native.setop_probe_rows"
  obs::Counter* distinct_rows = nullptr;     // "pref.native.distinct_rows"
};

/// Optional execution context for the native executor: the query's
/// governor, the delegated-query span the operator spans nest under, and
/// the metric handles above. Every field is nullable and defaults off, so
/// direct callers (tests, the ablation oracle) run ungoverned and untraced.
struct NativeExecOptions {
  const QueryGovernor* governor = nullptr;    // null = ungoverned.
  obs::Span* span = nullptr;                  // null = no tracing.
  const NativeExecMetrics* metrics = nullptr; // null = no metrics.
};

/// Executes a *conventional* plan (no kPrefer nodes) against the catalog —
/// the substrate's stand-in for the black-box DBMS executor of the paper's
/// prototype.
///
/// Physical behaviour:
///   * Operators pass row ids into the base tables' rows, not copied
///     tuples, and the result is the root operator's RowView: no value is
///     copied here. The view pins every table it reads, so it outlives this
///     call; consumers gather what they need (Engine::Execute gathers the
///     whole result, the preference layer only the answer's survivors).
///   * Each operator is a kernel over views (engine/row_view.h) wrapped with
///     this executor's spans, ExecStats and pref.native.* counters; the
///     p-algebra wraps the same kernels with its own.
///   * Select-over-Scan is fused; an equality conjunct on an indexed base
///     column uses the table's hash index instead of a full scan.
///   * Joins use a hash join when an equi-conjunct links the two sides,
///     falling back to a nested-loop join otherwise. A hash join whose
///     build (right) side is a predicate-free scan of a base table probes
///     the table's persistent hash index on the key column; any other build
///     side gets a per-query hash table.
///   * Set operations and DISTINCT use whole-tuple hashing.
///
/// Every operator runs one serial body on the calling thread; concurrent
/// calls (the plug-ins' batches of delegated queries) are safe. With a
/// span, each operator records a `native.*` child span carrying its
/// cardinalities.
///
/// Execution updates `stats` (rows scanned/materialized, operator count).
/// Returns Unimplemented if the plan contains a kPrefer node.
StatusOr<RowView> ExecutePlan(const PlanNode& node, Catalog* catalog,
                              ExecStats* stats,
                              const NativeExecOptions& options);

/// Ungoverned, untraced convenience overload.
StatusOr<RowView> ExecutePlan(const PlanNode& node, Catalog* catalog,
                              ExecStats* stats);

}  // namespace prefdb

#endif  // PREFDB_ENGINE_EXECUTOR_H_

#ifndef PREFDB_ENGINE_EXECUTOR_H_
#define PREFDB_ENGINE_EXECUTOR_H_

#include "engine/exec_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_context.h"
#include "plan/plan.h"
#include "storage/catalog.h"
#include "types/relation.h"

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
  obs::Counter* setop_probe_rows = nullptr;  // "pref.native.setop_probe_rows"
  obs::Counter* distinct_rows = nullptr;     // "pref.native.distinct_rows"
  obs::Counter* parallel_regions = nullptr;  // "pref.native.parallel_regions"
};

/// Optional execution context for the native executor: the intra-query
/// parallelism knobs, the delegated-query span the operator spans nest
/// under, and the metric handles above. Every field is nullable and
/// defaults off, so direct callers (tests, the ablation oracle) run
/// serially and untraced.
struct NativeExecOptions {
  const ParallelContext* parallel = nullptr;  // null = serial.
  obs::Span* span = nullptr;                  // null = no tracing.
  const NativeExecMetrics* metrics = nullptr; // null = no metrics.
  /// At TraceLevel::kMorsel (and with `span` set) every morselized region
  /// additionally records one "morsel[i]" child per morsel, adopted in
  /// morsel order (see obs::TraceLevel). At threads=1 the region records
  /// its single covering morsel, so the untimed trace stays byte-identical
  /// run to run.
  obs::TraceLevel trace_level = obs::TraceLevel::kOperator;
};

/// Executes a *conventional* plan (no kPrefer nodes) against the catalog —
/// the substrate's stand-in for the black-box DBMS executor of the paper's
/// prototype.
///
/// Physical behaviour:
///   * Operators pass row ids into the base tables' rows, not copied
///     tuples; the returned Relation is gathered once, at the root.
///   * Select-over-Scan is fused; an equality conjunct on an indexed base
///     column uses the table's hash index instead of a full scan.
///   * Joins use a hash join when an equi-conjunct links the two sides,
///     falling back to a nested-loop join otherwise.
///   * Set operations and DISTINCT use whole-tuple hashing.
///
/// Under a parallel context the hot operators evaluate in concurrent
/// morsels with morsel-order merges — full-scan predicate filtering, the
/// join probe phase (the build stays serial), set-operation membership
/// probes and DISTINCT hashing — so the output rows, their order, and every
/// ExecStats counter are bit-identical to serial execution (DESIGN.md §12).
/// With a span, each operator records a `native.*` child span carrying its
/// cardinalities; the annotations are scheduling-independent, so the traced
/// subtree is also identical at every thread count.
///
/// Execution updates `stats` (rows scanned/materialized, operator count).
/// Returns Unimplemented if the plan contains a kPrefer node.
StatusOr<Relation> ExecutePlan(const PlanNode& node, Catalog* catalog,
                               ExecStats* stats,
                               const NativeExecOptions& options);

/// Serial, untraced convenience overload (the pre-parallel signature).
StatusOr<Relation> ExecutePlan(const PlanNode& node, Catalog* catalog,
                               ExecStats* stats);

}  // namespace prefdb

#endif  // PREFDB_ENGINE_EXECUTOR_H_

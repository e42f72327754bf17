#ifndef PREFDB_ENGINE_NATIVE_OPTIMIZER_H_
#define PREFDB_ENGINE_NATIVE_OPTIMIZER_H_

#include <string>
#include <vector>

#include "plan/plan.h"
#include "storage/catalog.h"

namespace prefdb {

/// Result of native optimization: the rewritten plan plus the left-deep
/// join order that was chosen (base-table aliases, outermost first). The
/// join order is what the paper's prototype retrieves from the DBMS via
/// `EXPLAIN` and feeds into its extended optimizer ("rearrange the subtrees
/// ... to match the join order that would be followed by the native query
/// optimizer", §VI-A).
struct NativeOptimizerResult {
  PlanPtr plan;
  std::vector<std::string> join_order;
};

/// The substrate's conventional query optimizer (the "native" optimizer in
/// the paper's terminology). Rewrites a *conventional* plan:
///   * splits conjunctive selections and pushes each conjunct onto the
///     base scan (or smallest subtree) it binds to;
///   * flattens inner-join clusters and reorders them greedily by estimated
///     cardinality into a left-deep tree, preferring connected (non-cross)
///     joins;
///   * leaves other operators in place, recursively optimizing beneath them.
///
/// Plans containing kPrefer are rejected — the native engine is
/// preference-unaware by design.
StatusOr<NativeOptimizerResult> NativeOptimize(const PlanNode& input,
                                               const Catalog& catalog);

/// The join order NativeOptimize picks for the join cluster of `units`
/// (joined in order) under the conjuncts of `predicates`, read off its own
/// ordering step without building the plan. Prefer operators inside the
/// units are looked through, as if stripped: the extended optimizer matches
/// its join arrangement to the order the native optimizer gives the
/// non-preference skeleton (§VI-A).
StatusOr<std::vector<std::string>> NativeJoinOrder(
    const std::vector<const PlanNode*>& units,
    const std::vector<const Expr*>& predicates, const Catalog& catalog);

/// Estimated output cardinality of an arbitrary conventional plan, using
/// the catalog statistics and the selectivity model in cardinality.h.
double EstimatePlanCardinality(const PlanNode& node, const Catalog& catalog);

}  // namespace prefdb

#endif  // PREFDB_ENGINE_NATIVE_OPTIMIZER_H_

#ifndef PREFDB_OPTIMIZER_EXTENDED_OPTIMIZER_H_
#define PREFDB_OPTIMIZER_EXTENDED_OPTIMIZER_H_

#include "engine/engine.h"
#include "obs/trace.h"
#include "plan/plan.h"

namespace prefdb {

/// Toggles for the heuristic transformation rules of the preference-aware
/// query optimizer (paper §VI-A). All rules are on by default; the
/// optimizer-ablation benchmark switches them off individually.
struct ExtendedOptimizerOptions {
  /// Rule 1: push selections down the plan, splitting conjunctions.
  bool push_selections = true;
  /// Rule 2: push projections down (prune unused columns above base scans).
  bool push_projections = true;
  /// Rule 3: push prefer operators down, to just on top of a select /
  /// project / scan (Prop. 4.1).
  bool push_prefer = true;
  /// Rule 4: push a prefer over a binary operator into the input it binds
  /// to (Prop. 4.4).
  bool push_prefer_over_binary = true;
  /// Rule 5: reorder chains of prefer operators in ascending selectivity of
  /// their conditional parts (Prop. 4.3).
  bool reorder_prefers = true;
  /// Rearrange join clusters into left-deep trees; when
  /// `match_native_join_order` is set, the order is the native optimizer's
  /// for the cluster's non-preference skeleton (NativeJoinOrder), otherwise
  /// a greedy cardinality order is used.
  bool left_deep = true;
  bool match_native_join_order = true;
  /// Extension (off by default to reproduce the paper's behaviour): make
  /// rules 3/4 cost-based — push a prefer operator across a binary operator
  /// only when the estimated cardinality of the target input is no larger
  /// than the operator's estimated output. The paper's blind pushdown
  /// assumes base relations are smaller than join products; with reductive
  /// joins (e.g. a selective foreign-key join) the opposite holds and
  /// pushdown makes the prefer operator score *more* tuples.
  bool cost_based_prefer_placement = false;

  static ExtendedOptimizerOptions AllDisabled() {
    ExtendedOptimizerOptions opts;
    opts.push_selections = false;
    opts.push_projections = false;
    opts.push_prefer = false;
    opts.push_prefer_over_binary = false;
    opts.reorder_prefers = false;
    opts.left_deep = false;
    opts.match_native_join_order = false;
    return opts;
  }
};

/// The preference-aware (extended-plan) query optimizer. Applies the
/// paper's heuristic rules, leveraging the algebraic properties of the
/// prefer operator (Prop. 4.1-4.4), and validates that the rewritten plan
/// has the same output shape as the input. The native optimizer is
/// consulted (its join order) but never modified — the "hybrid" posture.
class ExtendedOptimizer {
 public:
  ExtendedOptimizer(const Engine* engine, ExtendedOptimizerOptions options)
      : engine_(engine), options_(options) {}

  /// Rewrites `input` into a more efficient extended plan. With a `span`,
  /// each rule that runs records a child span under it, named after the
  /// rule: PushSelections, PushPrefers, ReorderPreferChains, ReorderJoins,
  /// PruneProjections.
  StatusOr<PlanPtr> Optimize(const PlanNode& input,
                             obs::Span* span = nullptr) const;

 private:
  const Engine* engine_;
  ExtendedOptimizerOptions options_;
};

/// Returns a clone of `input` with every prefer operator removed — the
/// non-preference query part Q_NP (paper Alg. 1, extractNPQuery).
PlanPtr StripPrefers(const PlanNode& input);

/// Collects the prefer operators of a plan in evaluation (bottom-up, left
/// to right) order.
std::vector<PreferencePtr> CollectPrefers(const PlanNode& input);

}  // namespace prefdb

#endif  // PREFDB_OPTIMIZER_EXTENDED_OPTIMIZER_H_

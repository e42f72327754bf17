#ifndef PREFDB_EXEC_STRATEGY_H_
#define PREFDB_EXEC_STRATEGY_H_

#include <memory>
#include <string>
#include <string_view>

#include "engine/engine.h"
#include "obs/trace.h"
#include "palgebra/p_relation.h"
#include "prefs/agg_func.h"

namespace prefdb {

/// The available execution strategies for preferential queries (paper
/// §VI-B and §VII):
///   * kFtP  — Filter-then-Prefer (Alg. 1): run the non-preference query
///     part on the native engine once, then evaluate all prefer operators
///     on its result.
///   * kBU   — Bottom-Up: execute the (optimized) extended plan one
///     operator at a time, materializing every intermediate p-relation.
///   * kGBU  — Group Bottom-Up (Alg. 2): like BU but defers and groups
///     maximal non-preference subplans into single queries delegated to the
///     native engine (which then applies its own optimizer to them).
///   * kPlugInBasic — the classic plug-in rewrite–materialize–aggregate
///     baseline: one full conventional query per preference.
///   * kPlugInCombined — an improved plug-in that merges all preference
///     conditions into a single disjunctive query.
enum class StrategyKind {
  kFtP,
  kBU,
  kGBU,
  kPlugInBasic,
  kPlugInCombined,
};

std::string_view StrategyKindName(StrategyKind kind);

/// An execution strategy: evaluates an extended plan (containing prefer
/// operators) into a p-relation, using the native engine for whatever parts
/// it chooses to delegate. All strategies must produce identical
/// p-relations for the same plan (modulo row order and floating-point
/// association) — this is checked by the strategy-equivalence tests.
class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual std::string_view name() const = 0;

  /// Evaluates `plan` with aggregate function `agg`. Statistics (engine
  /// queries, tuples materialized, score entries) accumulate on the
  /// engine's counters.
  StatusOr<PRelation> Execute(const PlanNode& plan, const AggregateFunction& agg,
                              Engine* engine) {
    return ExecuteWithStats(plan, agg, engine, engine->mutable_stats());
  }

  /// Like Execute(), but accumulates all counters into the caller-provided
  /// `stats`. Strategies are stateless and route every counter write —
  /// including delegated engine queries, via Engine::ExecuteConcurrent —
  /// through `stats`, so concurrent executions against one engine are safe
  /// as long as each caller supplies its own ExecStats (they then share
  /// only the internally synchronized catalog and the read-only parallel
  /// context).
  ///
  /// When `span` is non-null the strategy records its execution as a
  /// hierarchical trace under it: one child span per plan operator /
  /// strategy phase / delegated engine query, with wall time, cardinalities
  /// and score-relation writes. A batch of concurrent delegated queries
  /// builds each query's spans detached and adopts them at the join point
  /// in plan order, so the assembled tree is the same at every thread
  /// count. A null span (the default) keeps tracing entirely off the hot
  /// paths.
  virtual StatusOr<PRelation> ExecuteWithStats(const PlanNode& plan,
                                               const AggregateFunction& agg,
                                               Engine* engine, ExecStats* stats,
                                               obs::Span* span = nullptr) = 0;
};

/// Creates the strategy implementation for `kind`.
std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind);

}  // namespace prefdb

#endif  // PREFDB_EXEC_STRATEGY_H_

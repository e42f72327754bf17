#include "exec/strategy.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "cache/query_cache.h"
#include "common/fault_injection.h"
#include "common/governor.h"
#include "common/string_util.h"
#include "optimizer/extended_optimizer.h"
#include "palgebra/p_ops.h"
#include "parallel/thread_pool.h"

namespace prefdb {

std::string_view StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFtP:
      return "FtP";
    case StrategyKind::kBU:
      return "BU";
    case StrategyKind::kGBU:
      return "GBU";
    case StrategyKind::kPlugInBasic:
      return "PlugInBasic";
    case StrategyKind::kPlugInCombined:
      return "PlugInCombined";
  }
  return "?";
}

namespace {

// Span label for one plan node, e.g. "Scan[MOVIES]" or "Prefer[p1]".
std::string NodeLabel(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan:
      return StrFormat("Scan[%s]", node.table_name.c_str());
    case PlanKind::kPrefer:
      return StrFormat("Prefer[%s]", node.preference->name().c_str());
    default:
      return std::string(PlanKindName(node.kind));
  }
}

// Attributes the score-relation writes of one traced region to its span:
// snapshots the counter on entry and records the delta on destruction.
// No-op (not even a snapshot) when the span is null.
class ScoreWriteScope {
 public:
  ScoreWriteScope(obs::Span* span, const ExecStats* stats)
      : span_(span),
        stats_(stats),
        before_(span != nullptr ? stats->score_entries_written : 0) {}

  ScoreWriteScope(const ScoreWriteScope&) = delete;
  ScoreWriteScope& operator=(const ScoreWriteScope&) = delete;

  ~ScoreWriteScope() {
    if (span_ != nullptr) {
      span_->score_entries = stats_->score_entries_written - before_;
    }
  }

 private:
  obs::Span* span_;
  const ExecStats* stats_;
  size_t before_;
};

// Charges one p-relation (its rows, at their gathered size, plus score
// entries) against the governor's memory budget. The byte estimate is an
// O(rows) walk, so it only runs once a budget is actually armed —
// ungoverned and unlimited-memory queries pay two loads here and nothing
// else.
Status ChargePRelation(Engine* engine, const PRelation& p) {
  const QueryGovernor* governor = engine->parallel_context().governor;
  if (governor == nullptr || !governor->memory_armed()) return Status::OK();
  RETURN_IF_ERROR(governor->ChargeBytes(cache::EstimateViewBytes(p.view)));
  return governor->ChargeBytes(cache::EstimatePairsBytes(p.pairs));
}

// True if any prefer operator occurs strictly below a set operation — the
// situation where the origin side of a result tuple is no longer
// distinguishable in the flat result of the non-preference query, so the
// result-level strategies (FtP and the plug-ins) cannot apply preferences
// faithfully and refuse (BU/GBU handle these plans).
bool HasPreferUnderSetOp(const PlanNode& node, bool under_setop = false) {
  bool is_setop = node.kind == PlanKind::kUnion ||
                  node.kind == PlanKind::kIntersect ||
                  node.kind == PlanKind::kExcept;
  if (node.kind == PlanKind::kPrefer && under_setop) return true;
  for (size_t i = 0; i < node.children.size(); ++i) {
    // The right side of a semijoin only qualifies tuples; prefer operators
    // there never surface scores and are equally out of reach for
    // result-level evaluation.
    bool child_blocked = under_setop || is_setop ||
                         (node.kind == PlanKind::kSemiJoin && i == 1);
    if (HasPreferUnderSetOp(*node.children[i], child_blocked)) return true;
  }
  return false;
}

// Evaluates the prefer operators collected from an extended plan on the
// engine's result view, folding each preference's contribution into the
// result rows' pairs. Sound because
// every aggregate function is associative and commutative, so evaluating
// the prefer operators in sequence on the final result is equivalent to
// evaluating them at their original plan positions — provided no prefer
// sat below a set operation (checked by the caller).
StatusOr<PRelation> ApplyPrefersOnResult(const std::vector<PreferencePtr>& prefs,
                                         RowView result,
                                         const AggregateFunction& agg,
                                         Engine* engine, ExecStats* stats,
                                         obs::Span* span = nullptr) {
  // One prefer pass per preference over the result (the post-filter sweep
  // of FtP), in order, so the fold into the score relation is deterministic.
  PRelation current(std::move(result));
  for (const PreferencePtr& pref : prefs) {
    obs::SpanScope scope(span, StrFormat("Prefer[%s]", pref->name().c_str()));
    ScoreWriteScope scores(scope.get(), stats);
    ASSIGN_OR_RETURN(current,
                     EvalPrefer(*pref, std::move(current), agg,
                                &engine->catalog(), stats,
                                engine->parallel_context().governor,
                                scope.get()));
    RETURN_IF_ERROR(ChargePRelation(engine, current));
  }
  return current;
}

// Executes `plans` against the engine and returns their results in plan
// order: the plug-ins' batches of independent delegated queries, the one
// concurrent path of query execution. Up to the engine's parallel context's
// `threads` queries run at once (ParallelInvoke: the calling thread plus
// pool tasks claim plans from a shared cursor), each executing into its
// own ExecStats; the per-query stats are merged into `stats` in plan order
// at the join point, so counter totals match serial execution.
//
// With a non-null `span`, each query gets a child span named by `labels`,
// built under a detached holder of its own and adopted in plan order at the
// join (the same discipline as the stats merge), so the trace is the same
// at every thread count.
StatusOr<std::vector<RowView>> ExecuteEngineQueries(
    const std::vector<const PlanNode*>& plans, Engine* engine,
    ExecStats* stats, obs::Span* span, const std::vector<std::string>& labels) {
  const size_t n = plans.size();
  std::vector<std::optional<StatusOr<RowView>>> partials(n);
  std::vector<ExecStats> partial_stats(n);
  std::vector<obs::SpanPtr> holders(n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (span != nullptr) holders[i] = obs::Span::Detached("task");
    tasks.push_back([&partials, &partial_stats, &plans, &holders, &labels,
                     engine, i] {
      obs::SpanScope scope(holders[i].get(), labels[i]);
      partials[i] =
          engine->ExecuteConcurrent(*plans[i], &partial_stats[i], scope.get());
      if (partials[i]->ok()) {
        obs::SetRowsOut(scope.get(), (*partials[i])->NumRows());
      }
    });
  }
  ParallelInvoke(engine->parallel_context(), tasks);
  for (obs::SpanPtr& holder : holders) {
    if (holder == nullptr) continue;
    for (obs::SpanPtr& child : holder->children) span->Adopt(std::move(child));
  }

  std::vector<RowView> results;
  results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stats->Merge(partial_stats[i]);
    RETURN_IF_ERROR(partials[i]->status());
    results.push_back(std::move(**partials[i]));
  }
  return results;
}

// ---------------------------------------------------------------------------
// Filter-then-Prefer (paper Alg. 1).

class FtPStrategy final : public Strategy {
 public:
  std::string_view name() const override { return "FtP"; }

  StatusOr<PRelation> ExecuteWithStats(const PlanNode& plan,
                                       const AggregateFunction& agg,
                                       Engine* engine, ExecStats* stats,
                                       obs::Span* span) override {
    if (HasPreferUnderSetOp(plan)) {
      return Status::Unimplemented(
          "FtP cannot evaluate prefer operators below set operations; "
          "use BU or GBU");
    }
    obs::SpanScope strategy_scope(span, "strategy[FtP]");
    obs::Span* s = strategy_scope.get();
    // Extract and run the non-preference part Q_NP. The parser already
    // projected every attribute the prefer operators need, so they can be
    // evaluated directly on R_NP.
    PlanPtr q_np = StripPrefers(plan);
    obs::SpanScope q_scope(s, "EngineQuery[Q_NP]");
    ASSIGN_OR_RETURN(RowView r_np,
                     engine->ExecuteConcurrent(*q_np, stats, q_scope.get()));
    size_t np_rows = r_np.NumRows();
    obs::SetRowsOut(q_scope.get(), np_rows);
    q_scope.Finish();
    std::vector<PreferencePtr> prefs = CollectPrefers(plan);
    obs::SpanScope sweep(s, "PostFilterSweep");
    obs::SetRowsIn(sweep.get(), np_rows);
    ScoreWriteScope scores(sweep.get(), stats);
    return ApplyPrefersOnResult(prefs, std::move(r_np), agg, engine, stats,
                                sweep.get());
  }
};

// ---------------------------------------------------------------------------
// Bottom-Up: one extended operator at a time, everything materialized.

class BUStrategy final : public Strategy {
 public:
  std::string_view name() const override { return "BU"; }

  StatusOr<PRelation> ExecuteWithStats(const PlanNode& plan,
                                       const AggregateFunction& agg,
                                       Engine* engine, ExecStats* stats,
                                       obs::Span* span) override {
    obs::SpanScope scope(span, "strategy[BU]");
    return Eval(plan, agg, engine, stats, scope.get());
  }

 private:
  // Evaluates the two children of a binary operator, left then right, into
  // the shared counters; a left failure stops before the right child.
  StatusOr<std::pair<PRelation, PRelation>> EvalChildren(
      const PlanNode& node, const AggregateFunction& agg, Engine* engine,
      ExecStats* stats, obs::Span* span) {
    ASSIGN_OR_RETURN(PRelation left,
                     Eval(node.child(0), agg, engine, stats, span));
    ASSIGN_OR_RETURN(PRelation right,
                     Eval(node.child(1), agg, engine, stats, span));
    return std::make_pair(std::move(left), std::move(right));
  }

  // Opens one span per plan node (inclusive of its children's evaluation)
  // and attributes the node's score-relation writes to it, then dispatches
  // to the per-operator evaluation.
  StatusOr<PRelation> Eval(const PlanNode& node, const AggregateFunction& agg,
                           Engine* engine, ExecStats* stats, obs::Span* parent) {
    obs::SpanScope scope(parent, NodeLabel(node));
    ScoreWriteScope scores(scope.get(), stats);
    ASSIGN_OR_RETURN(PRelation out,
                     EvalNode(node, agg, engine, stats, scope.get()));
    // BU materializes every intermediate p-relation; each one is charged
    // against the governor's budget as it comes into existence.
    RETURN_IF_ERROR(ChargePRelation(engine, out));
    return out;
  }

  StatusOr<PRelation> EvalNode(const PlanNode& node,
                               const AggregateFunction& agg, Engine* engine,
                               ExecStats* stats, obs::Span* span) {
    const QueryGovernor* governor = engine->parallel_context().governor;
    switch (node.kind) {
      case PlanKind::kScan: {
        // Base access goes through the engine (one trivial query), like the
        // prototype's UDFs reading base relations from the DBMS.
        ASSIGN_OR_RETURN(RowView view,
                         engine->ExecuteConcurrent(node, stats, span));
        obs::SetRowsOut(span, view.NumRows());
        return PRelation(std::move(view));
      }
      case PlanKind::kSelect: {
        ASSIGN_OR_RETURN(PRelation input,
                         Eval(node.child(), agg, engine, stats, span));
        return PSelect(*node.predicate, input, stats, governor, span);
      }
      case PlanKind::kProject: {
        ASSIGN_OR_RETURN(PRelation input,
                         Eval(node.child(), agg, engine, stats, span));
        return PProject(node.project_columns, input, stats, span);
      }
      case PlanKind::kJoin: {
        ASSIGN_OR_RETURN(auto children,
                         EvalChildren(node, agg, engine, stats, span));
        return PJoin(*node.predicate, children.first, children.second, agg,
                     stats, governor, span);
      }
      case PlanKind::kSemiJoin: {
        ASSIGN_OR_RETURN(auto children,
                         EvalChildren(node, agg, engine, stats, span));
        return PSemiJoin(*node.predicate, children.first, children.second,
                         stats, governor, span);
      }
      case PlanKind::kUnion: {
        ASSIGN_OR_RETURN(auto children,
                         EvalChildren(node, agg, engine, stats, span));
        return PUnion(children.first, children.second, agg, stats, governor,
                      span);
      }
      case PlanKind::kIntersect: {
        ASSIGN_OR_RETURN(auto children,
                         EvalChildren(node, agg, engine, stats, span));
        return PIntersect(children.first, children.second, agg, stats, governor,
                          span);
      }
      case PlanKind::kExcept: {
        ASSIGN_OR_RETURN(auto children,
                         EvalChildren(node, agg, engine, stats, span));
        return PDiff(children.first, children.second, stats, governor, span);
      }
      case PlanKind::kDistinct: {
        ASSIGN_OR_RETURN(PRelation input,
                         Eval(node.child(), agg, engine, stats, span));
        return PDistinct(input, stats, span);
      }
      case PlanKind::kSort: {
        ASSIGN_OR_RETURN(PRelation input,
                         Eval(node.child(), agg, engine, stats, span));
        return PSort(node.sort_keys, input, stats, span);
      }
      case PlanKind::kLimit: {
        ASSIGN_OR_RETURN(PRelation input,
                         Eval(node.child(), agg, engine, stats, span));
        return PLimit(node.limit, input, stats, span);
      }
      case PlanKind::kPrefer: {
        ASSIGN_OR_RETURN(PRelation input,
                         Eval(node.child(), agg, engine, stats, span));
        return EvalPrefer(*node.preference, std::move(input), agg,
                          &engine->catalog(), stats, governor, span);
      }
    }
    return Status::Internal("unknown plan kind");
  }
};

// ---------------------------------------------------------------------------
// Group Bottom-Up (paper Alg. 2): defer and batch non-preference operators.

// Drops the temporary tables registered during one GBU region evaluation
// when the region goes out of scope — success, early error return, or an
// exception alike — so a failed execution can never leak temps into the
// shared catalog.
class TempTableGuard {
 public:
  explicit TempTableGuard(Engine* engine) : engine_(engine) {}

  TempTableGuard(const TempTableGuard&) = delete;
  TempTableGuard& operator=(const TempTableGuard&) = delete;

  ~TempTableGuard() {
    for (const std::string& name : names_) {
      engine_->DropTempTable(name);
    }
  }

  void Track(std::string name) { names_.push_back(std::move(name)); }

 private:
  Engine* engine_;
  std::vector<std::string> names_;
};

class GBUStrategy final : public Strategy {
 public:
  std::string_view name() const override { return "GBU"; }

  StatusOr<PRelation> ExecuteWithStats(const PlanNode& plan,
                                       const AggregateFunction& agg,
                                       Engine* engine, ExecStats* stats,
                                       obs::Span* span) override {
    obs::SpanScope scope(span, "strategy[GBU]");
    return Eval(plan, agg, engine, stats, scope.get());
  }

 private:
  // A prefer-subtree result registered as a view-backed temporary table so
  // the engine can reference it inside a grouped query. `pairs[i]` is the
  // pair of row i of the table's view.
  struct TempInput {
    const Table* table = nullptr;
    std::vector<std::string> key_column_names;  // Full names, canonical order.
    std::vector<ScoreConf> pairs;
    bool scored = false;  // Some pair is not ⟨⊥, 0⟩.
    bool contributes_scores = true;
    bool inputs_kept = true;  // The region output keeps its scan's inputs.
  };

  StatusOr<PRelation> Eval(const PlanNode& node, const AggregateFunction& agg,
                           Engine* engine, ExecStats* stats, obs::Span* parent) {
    if (!node.ContainsPrefer()) {
      // Maximal non-preference subtree: one grouped query to the engine.
      obs::SpanScope scope(parent, "EngineQuery");
      obs::SetDetail(scope.get(), StrFormat("root=%s", NodeLabel(node).c_str()));
      ASSIGN_OR_RETURN(RowView view,
                       engine->ExecuteConcurrent(node, stats, scope.get()));
      obs::SetRowsOut(scope.get(), view.NumRows());
      return PRelation(std::move(view));
    }
    if (node.kind == PlanKind::kPrefer) {
      obs::SpanScope scope(parent, NodeLabel(node));
      ScoreWriteScope scores(scope.get(), stats);
      ASSIGN_OR_RETURN(PRelation input,
                       Eval(node.child(), agg, engine, stats, scope.get()));
      ASSIGN_OR_RETURN(PRelation out,
                       EvalPrefer(*node.preference, std::move(input), agg,
                                  &engine->catalog(), stats,
                                  engine->parallel_context().governor,
                                  scope.get()));
      RETURN_IF_ERROR(ChargePRelation(engine, out));
      return out;
    }

    // An operator region above at least one prefer: materialize the
    // region's prefer-subtrees, clone the
    // maximal non-prefer region rooted here with each prefer-subtree
    // replaced by a scan of a freshly registered temporary table, delegate
    // the region to the engine as a single query, then recombine the
    // temporaries' score relations into the region output. The temps are
    // needed in the catalog only for the region query, so the guard scopes
    // them to this region — released even on early error returns.
    obs::SpanScope region_scope(parent,
                                StrFormat("Region[%s]", NodeLabel(node).c_str()));
    obs::Span* span = region_scope.get();
    std::vector<const PlanNode*> prefer_roots;
    CollectRegionPrefers(node, &prefer_roots);
    ASSIGN_OR_RETURN(std::vector<PRelation> materialized,
                     EvalPreferSubtrees(prefer_roots, agg, engine, stats, span));

    TempTableGuard guard(engine);
    std::vector<TempInput> temps;
    size_t next_materialized = 0;
    ASSIGN_OR_RETURN(PlanPtr region,
                     CloneRegion(node, engine, &materialized,
                                 &next_materialized, &temps, &guard, span,
                                 /*score_contributing=*/true,
                                 /*inputs_kept=*/true));
    obs::SpanScope q_scope(span, "RegionQuery");
    ASSIGN_OR_RETURN(RowView view,
                     engine->ExecuteConcurrent(*region, stats, q_scope.get()));
    obs::SetRowsOut(q_scope.get(), view.NumRows());
    q_scope.Finish();

    // The region result reads the temp tables through its view, which pins
    // them: it stays readable after the guard drops them from the catalog.
    PRelation out(std::move(view));
    obs::SpanScope recombine(span, "RecombineScores");
    ScoreWriteScope scores(recombine.get(), stats);
    RETURN_IF_ERROR(RecombineScores(temps, agg, &out, stats));
    RETURN_IF_ERROR(ChargePRelation(engine, out));
    return out;
  }

  // Collects the prefer-subtree roots of the operator region rooted at
  // `node`, in the order CloneRegion visits them (pre-order over children
  // that still contain prefer operators).
  void CollectRegionPrefers(const PlanNode& node,
                            std::vector<const PlanNode*>* out) {
    for (const PlanPtr& child : node.children) {
      if (!child->ContainsPrefer()) continue;
      if (child->kind == PlanKind::kPrefer) {
        out->push_back(child.get());
      } else {
        CollectRegionPrefers(*child, out);
      }
    }
  }

  // Materializes the region's prefer-subtrees, in plan order, into the
  // shared counters (the "region materialization" phase of the trace).
  StatusOr<std::vector<PRelation>> EvalPreferSubtrees(
      const std::vector<const PlanNode*>& roots, const AggregateFunction& agg,
      Engine* engine, ExecStats* stats, obs::Span* span) {
    obs::SpanScope phase(span, "MaterializeRegionInputs");
    std::vector<PRelation> results;
    results.reserve(roots.size());
    for (const PlanNode* root : roots) {
      ASSIGN_OR_RETURN(PRelation sub,
                       Eval(*root, agg, engine, stats, phase.get()));
      results.push_back(std::move(sub));
    }
    return results;
  }

  // Clones `node`'s operator region. Children that contain prefer operators
  // were materialized up front (EvalPreferSubtrees, same visit order) and
  // are consumed here via `next_materialized`, each replaced by a
  // temp-table scan; children without prefers stay in the region (the
  // engine executes them as part of the same grouped query).
  StatusOr<PlanPtr> CloneRegion(const PlanNode& node, Engine* engine,
                                std::vector<PRelation>* materialized,
                                size_t* next_materialized,
                                std::vector<TempInput>* temps,
                                TempTableGuard* guard, obs::Span* span,
                                bool score_contributing, bool inputs_kept) {
    if (node.kind == PlanKind::kPrefer) {
      PRelation sub = std::move((*materialized)[(*next_materialized)++]);
      return RegisterTemp(std::move(sub), engine, temps, guard, span,
                          score_contributing, inputs_kept);
    }
    if (!node.ContainsPrefer()) {
      return node.Clone();
    }
    PlanPtr copy = node.Clone();
    for (size_t i = 0; i < copy->children.size(); ++i) {
      // Scores under the right side of a set difference or semijoin never
      // reach the output (those operators keep left pairs only).
      bool child_contributes =
          score_contributing &&
          !((node.kind == PlanKind::kExcept || node.kind == PlanKind::kSemiJoin) &&
            i == 1);
      // The region output keeps the inputs of the scans below a child,
      // except under the right side of a semijoin, intersection or
      // difference (they keep left rows), and under a union (which copies
      // its rows when it keeps right-only ones).
      bool child_kept =
          inputs_kept && node.kind != PlanKind::kUnion &&
          !((node.kind == PlanKind::kSemiJoin || node.kind == PlanKind::kIntersect ||
             node.kind == PlanKind::kExcept) &&
            i == 1);
      ASSIGN_OR_RETURN(copy->children[i],
                       CloneRegion(node.child(i), engine, materialized,
                                   next_materialized, temps, guard, span,
                                   child_contributes, child_kept));
    }
    return copy;
  }

  // Registers a materialized prefer subtree as a temp table that is its
  // row-id view: nothing is copied, the region query reads the subtree's
  // rows in place.
  StatusOr<PlanPtr> RegisterTemp(PRelation sub, Engine* engine,
                                 std::vector<TempInput>* temps,
                                 TempTableGuard* guard, obs::Span* span,
                                 bool score_contributing, bool inputs_kept) {
    obs::SpanScope scope(span, "RegisterTemp");
    obs::SetRowsIn(scope.get(), sub.NumRows());
    // Temp names come from a process-wide counter: concurrent GBU
    // executions against one engine must never collide in the shared
    // catalog.
    static std::atomic<uint64_t> temp_counter{0};
    std::string name =
        StrFormat("__gbu_tmp_%llu",
                  static_cast<unsigned long long>(
                      temp_counter.fetch_add(1, std::memory_order_relaxed) + 1));
    // The temp holds the materialized subtree for the region query — charge
    // it like any other materialization, and give fault tests a hook at the
    // exact point where a temp is about to be registered (the unwind must
    // drop every earlier temp of this region).
    RETURN_IF_ERROR(ChargePRelation(engine, sub));
    RETURN_IF_ERROR(FaultInjection::Global().Hit("gbu.register_temp"));
    TempInput temp;
    temp.contributes_scores = score_contributing;
    temp.inputs_kept = inputs_kept;
    for (size_t k : sub.key_columns()) {
      temp.key_column_names.push_back(sub.schema().column(k).FullName());
    }
    obs::SetRowsOut(scope.get(), sub.NumRows());
    obs::AppendDetail(scope.get(), "view");
    if (sub.view.base_table != nullptr) {
      obs::AppendDetail(scope.get(), "base=" + sub.view.base_table->name());
    }
    temp.pairs = std::move(sub.pairs);
    for (const ScoreConf& pair : temp.pairs) temp.scored |= !pair.IsDefault();
    // The view keeps the intermediate schema's qualifiers, so predicates
    // referring to the original relations still bind inside the grouped
    // query. Plans referencing the table (the region query) must never
    // enter the result cache: the name and version are unique to this
    // evaluation — RegisterTempTable marks it temporary for exactly that
    // reason.
    std::unique_ptr<Table> table = Table::CreateView(name, std::move(sub.view));
    temp.table = table.get();
    RETURN_IF_ERROR(engine->RegisterTempTable(std::move(table)));
    guard->Track(name);
    temps->push_back(std::move(temp));
    return plan::Scan(name, name);
  }

  // The first of the region inputs that the temp's scan contributed, or -1
  // when they are not identifiable: the region dropped them, or another
  // input reads one of the temp's row sources (a self-join, or a direct
  // scan of a temp's base table). A temp's inputs stay consecutive: joins
  // concatenate them.
  static int TempInputsAt(const RowView& view, const TempInput& temp) {
    const std::vector<const ColumnStore*>& own = temp.table->view()->sources;
    if (!temp.inputs_kept || own.empty()) return -1;
    for (const ColumnStore* source : own) {
      if (std::count(view.sources.begin(), view.sources.end(), source) !=
          std::count(own.begin(), own.end(), source)) {
        return -1;
      }
    }
    return static_cast<int>(
        std::find(view.sources.begin(), view.sources.end(), own.front()) -
        view.sources.begin());
  }

  // An input of `rows` whose ids differ from row to row, so that its id
  // names one row; `position` receives the row of each of its ids. -1 when
  // every input repeats an id.
  static int IdentifyingInput(const RowView& rows, std::vector<uint32_t>* position) {
    const size_t n = rows.NumRows();
    for (size_t j = 0; j < rows.width(); ++j) {
      position->assign(rows.sources[j]->NumRows(), kNoRow);
      size_t r = 0;
      for (; r < n; ++r) {
        uint32_t& slot = (*position)[rows.Row(r)[j]];
        if (slot != kNoRow) break;
        slot = static_cast<uint32_t>(r);
      }
      if (r == n) return static_cast<int>(j);
    }
    position->clear();
    return -1;
  }

  // Combines the temporaries' pairs into the region output: for each output
  // row, find the pair of each contributing temp's row and fold with `agg`.
  // This is the paper's two-step evaluation of joins/set operations on
  // p-relations: conventional result first, then score combination. The
  // region result is a view whose ids on a temp's inputs are a row of the
  // temp's view. Where those inputs are identifiable (TempInputsAt) and one
  // of them has a different id on every temp row, the id finds the row,
  // and so its pair, through a position array. Otherwise — a temp whose
  // inputs the region dropped or shares with another input, or whose every
  // input repeats ids — the output rows find their pairs by key, through
  // the paper's pk-keyed R_P.
  Status RecombineScores(const std::vector<TempInput>& temps,
                         const AggregateFunction& agg, PRelation* out,
                         ExecStats* stats) {
    struct ResolvedTemp {
      const TempInput* temp = nullptr;
      int input = -1;  // The region input whose id names the temp row, or
                       // -1: found by key.
      std::vector<uint32_t> position;  // Temp row by that input's id.
      ScoreRelation scores;  // R_P of the temp, when `input` is -1.
      std::vector<size_t> key;  // The output rows' key columns then.
    };
    const RowView& view = out->view;
    std::vector<ResolvedTemp> resolved;
    for (const TempInput& temp : temps) {
      if (!temp.contributes_scores || !temp.scored) continue;
      std::vector<size_t> key_indices;
      for (const std::string& key_name : temp.key_column_names) {
        int idx = out->schema().FindColumnOrNegative(key_name);
        if (idx < 0) {
          return Status::Internal(
              "GBU: temp key columns missing from region output (projection "
              "dropped a key?)");
        }
        key_indices.push_back(static_cast<size_t>(idx));
      }
      ResolvedTemp rt;
      rt.temp = &temp;
      const RowView& rows = *temp.table->view();
      const int first = TempInputsAt(view, temp);
      const int identifying = first < 0 ? -1 : IdentifyingInput(rows, &rt.position);
      if (identifying >= 0) {
        rt.input = first + identifying;
      } else {
        for (size_t r = 0; r < rows.NumRows(); ++r) {
          if (temp.pairs[r].IsDefault()) continue;
          Tuple key;
          key.reserve(rows.key_columns.size());
          for (size_t k : rows.key_columns) key.push_back(rows.Get(r, k));
          rt.scores.Set(key, temp.pairs[r]);
        }
        rt.key = std::move(key_indices);
      }
      resolved.push_back(std::move(rt));
    }
    if (resolved.empty()) return Status::OK();

    // Only the keys of the temps found by key are read out of the view.
    for (size_t i = 0; i < out->NumRows(); ++i) {
      ScoreConf pair;  // Identity.
      for (const ResolvedTemp& rt : resolved) {
        const ScoreConf& temp_pair =
            rt.input >= 0
                ? rt.temp->pairs[rt.position[view.Row(i)[rt.input]]]
                : rt.scores.Lookup(ViewKey{view, i, rt.key});
        pair = CombineCounted(agg, pair, temp_pair);
      }
      if (!pair.IsDefault()) {
        out->pairs[i] = pair;
        ++stats->score_entries_written;
      }
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Plug-in baselines: rewrite - materialize - aggregate, strictly through the
// engine facade (the DBMS is a black box; no operator-level integration).

class PlugInStrategy final : public Strategy {
 public:
  explicit PlugInStrategy(bool combined) : combined_(combined) {}

  std::string_view name() const override {
    return combined_ ? "PlugInCombined" : "PlugInBasic";
  }

  StatusOr<PRelation> ExecuteWithStats(const PlanNode& plan,
                                       const AggregateFunction& agg,
                                       Engine* engine, ExecStats* stats,
                                       obs::Span* span) override {
    if (HasPreferUnderSetOp(plan)) {
      return Status::Unimplemented(
          "plug-in strategies cannot evaluate prefer operators below set "
          "operations; use BU or GBU");
    }
    obs::SpanScope strategy_scope(
        span, StrFormat("strategy[%s]", std::string(name()).c_str()));
    obs::Span* s = strategy_scope.get();
    PlanPtr q_np = StripPrefers(plan);
    std::vector<PreferencePtr> prefs = CollectPrefers(plan);

    // Materialize the full (non-preference) answer. The span is passed
    // through so the Q_NP query carries its cache=hit/miss annotation in
    // EXPLAIN ANALYZE, like every other delegated query.
    obs::SpanScope q_scope(s, "EngineQuery[Q_NP]");
    ASSIGN_OR_RETURN(RowView r_np,
                     engine->ExecuteConcurrent(*q_np, stats, q_scope.get()));
    obs::SetRowsOut(q_scope.get(), r_np.NumRows());
    q_scope.Finish();

    // The rewritten queries return rows of their own, not positions in
    // R_NP: their scores accumulate in the pk-keyed R_P, and R_NP's rows
    // find their pairs in it by key at the end.
    ASSIGN_OR_RETURN(PlanShape np_shape,
                     DerivePlanShape(*q_np, engine->catalog()));
    ScoreRelation scores;
    if (combined_) {
      RETURN_IF_ERROR(ExecuteCombined(*q_np, np_shape, prefs, agg, engine,
                                      stats, s, &scores));
    } else {
      RETURN_IF_ERROR(ExecuteBasic(*q_np, np_shape, prefs, agg, engine, stats,
                                   s, &scores));
    }
    // R_NP's rows find their pairs in R_P by key.
    obs::SpanScope align(s, "AlignScores");
    return PRelation(std::move(r_np), scores);
  }

 private:
  // Basic plug-in: one rewritten query per preference. Each rewrite embeds
  // the preference's conditional part as a hard filter on Q_NP (Rewrite),
  // is executed by the DBMS (Materialize), and its rows are scored and
  // merged into the answer (Aggregate). The rewritten queries are
  // independent, so they are issued to the engine concurrently (up to the
  // parallel context's thread budget); aggregation stays in preference
  // order for deterministic score folding.
  Status ExecuteBasic(const PlanNode& q_np, const PlanShape& np_shape,
                      const std::vector<PreferencePtr>& prefs,
                      const AggregateFunction& agg, Engine* engine,
                      ExecStats* stats, obs::Span* span, ScoreRelation* scores) {
    std::vector<PlanPtr> rewrites;
    std::vector<std::string> labels;
    rewrites.reserve(prefs.size());
    labels.reserve(prefs.size());
    for (const PreferencePtr& pref : prefs) {
      PlanPtr rewritten = q_np.Clone();
      rewritten = plan::Select(pref->CloneCondition(), std::move(rewritten));
      if (pref->membership() != nullptr) {
        const MembershipSpec& m = *pref->membership();
        ASSIGN_OR_RETURN(std::string local_full,
                         ResolveFullName(np_shape, m.local_column));
        rewritten = plan::SemiJoin(
            eb_eq(local_full, m.member_relation + "." + m.member_column),
            std::move(rewritten), plan::Scan(m.member_relation));
      }
      rewrites.push_back(std::move(rewritten));
      labels.push_back(StrFormat("RewriteQuery[%s]", pref->name().c_str()));
    }
    std::vector<const PlanNode*> plans;
    plans.reserve(rewrites.size());
    for (const PlanPtr& plan : rewrites) plans.push_back(plan.get());
    ASSIGN_OR_RETURN(std::vector<RowView> partials,
                     ExecuteEngineQueries(plans, engine, stats, span, labels));
    for (size_t i = 0; i < prefs.size(); ++i) {
      obs::SpanScope merge(
          span, StrFormat("MergePartial[%s]", prefs[i]->name().c_str()));
      obs::SetRowsIn(merge.get(), partials[i].NumRows());
      ScoreWriteScope writes(merge.get(), stats);
      RETURN_IF_ERROR(MergePartial(*prefs[i], partials[i], agg, stats, scores));
    }
    return Status::OK();
  }

  // Combined plug-in: a single rewritten query whose filter is the
  // disjunction of all (non-membership) preference conditions; rows of the
  // combined result are then tested per preference client-side. Membership
  // preferences are handled by materializing the member relation once. The
  // disjunction query and the per-membership queries are mutually
  // independent and issued to the engine concurrently.
  Status ExecuteCombined(const PlanNode& q_np, const PlanShape& np_shape,
                         const std::vector<PreferencePtr>& prefs,
                         const AggregateFunction& agg, Engine* engine,
                         ExecStats* stats, obs::Span* span,
                         ScoreRelation* scores) {
    std::vector<const Preference*> plain;
    std::vector<const Preference*> membership;
    for (const PreferencePtr& pref : prefs) {
      (pref->membership() == nullptr ? plain : membership).push_back(pref.get());
    }

    std::vector<PlanPtr> rewrites;
    std::vector<std::string> labels;
    if (!plain.empty()) {
      ExprPtr disjunction;
      for (const Preference* pref : plain) {
        ExprPtr cond = pref->CloneCondition();
        disjunction = disjunction
                          ? std::make_unique<LogicalExpr>(LogicalOp::kOr,
                                                          std::move(disjunction),
                                                          std::move(cond))
                          : std::move(cond);
      }
      rewrites.push_back(plan::Select(std::move(disjunction), q_np.Clone()));
      labels.push_back("CombinedQuery");
    }
    for (const Preference* pref : membership) {
      const MembershipSpec& m = *pref->membership();
      ASSIGN_OR_RETURN(std::string local_full,
                       ResolveFullName(np_shape, m.local_column));
      rewrites.push_back(plan::SemiJoin(
          eb_eq(local_full, m.member_relation + "." + m.member_column),
          plan::Select(pref->CloneCondition(), q_np.Clone()),
          plan::Scan(m.member_relation)));
      labels.push_back(
          StrFormat("MembershipQuery[%s]", pref->name().c_str()));
    }

    std::vector<const PlanNode*> plans;
    plans.reserve(rewrites.size());
    for (const PlanPtr& plan : rewrites) plans.push_back(plan.get());
    ASSIGN_OR_RETURN(std::vector<RowView> materialized,
                     ExecuteEngineQueries(plans, engine, stats, span, labels));

    size_t next = 0;
    if (!plain.empty()) {
      const RowView& matched = materialized[next++];
      for (const Preference* pref : plain) {
        obs::SpanScope merge(span,
                             StrFormat("MergePartial[%s]", pref->name().c_str()));
        obs::SetRowsIn(merge.get(), matched.NumRows());
        ScoreWriteScope writes(merge.get(), stats);
        RETURN_IF_ERROR(MergePartial(*pref, matched, agg, stats, scores));
      }
    }
    for (const Preference* pref : membership) {
      const RowView& matched = materialized[next++];
      obs::SpanScope merge(span,
                           StrFormat("MergePartial[%s]", pref->name().c_str()));
      obs::SetRowsIn(merge.get(), matched.NumRows());
      ScoreWriteScope writes(merge.get(), stats);
      RETURN_IF_ERROR(MergePartial(*pref, matched, agg, stats, scores));
    }
    return Status::OK();
  }

  // Scores the rows of a partial (rewritten-query) result under `pref` and
  // folds them into the answer's score relation by key, probed in place.
  // Re-checks the conditional part, since the combined rewrite over-fetches
  // (disjunction), compiled over the partial's columns. Only the columns
  // the scoring expression and the key use are read out of its view.
  Status MergePartial(const Preference& pref, const RowView& partial,
                      const AggregateFunction& agg, ExecStats* stats,
                      ScoreRelation* scores) {
    ASSIGN_OR_RETURN(ViewPreference bound, ViewPreference::Bind(pref, partial));
    ScratchRow scratch = bound.MakeScratch();
    std::vector<uint32_t> matching;
    bound.Matching(0, partial.NumRows(), &matching);
    for (uint32_t i : matching) {
      std::optional<double> score = bound.Score(i, &scratch);
      if (!score.has_value()) continue;
      scores->Fold(ViewKey{partial, i, partial.key_columns},
                   ScoreConf::Known(*score, pref.confidence()), agg);
      ++stats->score_entries_written;
    }
    return Status::OK();
  }

  static StatusOr<std::string> ResolveFullName(const PlanShape& shape,
                                               const std::string& column) {
    ASSIGN_OR_RETURN(size_t idx, shape.schema.FindColumn(column));
    return shape.schema.column(idx).FullName();
  }

  static ExprPtr eb_eq(const std::string& left, const std::string& right) {
    return std::make_unique<ComparisonExpr>(
        CompareOp::kEq, std::make_unique<ColumnRefExpr>(left),
        std::make_unique<ColumnRefExpr>(right));
  }

  bool combined_;
};

}  // namespace

std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFtP:
      return std::make_unique<FtPStrategy>();
    case StrategyKind::kBU:
      return std::make_unique<BUStrategy>();
    case StrategyKind::kGBU:
      return std::make_unique<GBUStrategy>();
    case StrategyKind::kPlugInBasic:
      return std::make_unique<PlugInStrategy>(false);
    case StrategyKind::kPlugInCombined:
      return std::make_unique<PlugInStrategy>(true);
  }
  return nullptr;
}

}  // namespace prefdb

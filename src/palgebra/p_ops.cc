#include "palgebra/p_ops.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "expr/compiled_predicate.h"
#include "parallel/morsel.h"
#include "plan/plan.h"
#include "storage/table.h"

namespace prefdb {

namespace {

// Annotates the caller-provided span with an operator's cardinalities and
// (when the operator actually split into morsels) its parallel shape. The
// span's wall time is owned by the caller: strategies wrap each operator
// call in a SpanScope, so a null span here costs only this pointer test.
void AnnotateSpan(obs::Span* span, size_t rows_in, size_t rows_out,
                  const MorselPlan* plan = nullptr) {
  if (span == nullptr) return;
  span->rows_in = rows_in;
  span->rows_out = rows_out;
  if (plan != nullptr && !plan->serial()) {
    span->detail = StrFormat("morsels=%zu slots=%zu", plan->morsel_count(),
                             plan->slots());
  }
}

// Appends the pairs of rows `positions` of `input` to `out`: the score
// carry-over of the operators that drop tuples (select, semijoin, set
// difference, distinct, limit). Each carried non-default pair counts as a
// score entry written.
void CarryScores(const PRelation& input, const std::vector<uint32_t>& positions,
                 PRelation* out, ExecStats* stats) {
  out->pairs.reserve(out->pairs.size() + positions.size());
  for (uint32_t i : positions) {
    const ScoreConf& pair = input.pairs[i];
    out->pairs.push_back(pair);
    if (!pair.IsDefault()) ++stats->score_entries_written;
  }
}

// The rows `positions` of `input`, with their pairs carried.
PRelation KeepRows(const PRelation& input, const std::vector<uint32_t>& positions,
                   ExecStats* stats) {
  PRelation out;
  out.view = input.view.Rows(positions);
  stats->tuples_materialized += out.NumRows();
  CarryScores(input, positions, &out, stats);
  return out;
}

// Operators read pairs by row position: a p-relation whose pairs are not
// row-aligned is a caller bug, reported here rather than read out of bounds.
Status CheckAligned(const PRelation& p) {
  if (p.pairs.size() == p.NumRows()) return Status::OK();
  return Status::Internal(StrFormat("p-relation has %zu rows but %zu pairs",
                                    p.NumRows(), p.pairs.size()));
}

// ⋈ and ⋉ over the join kernel: with an equi-conjunct the right side is
// served by its base table's persistent index when the view is still that
// table's identity, else by a JoinTable over the view. `positions`
// receives the matched rows.
StatusOr<RowView> JoinViews(const Expr& predicate, const PRelation& left,
                            const PRelation& right, bool semi,
                            const MorselPlan& plan,
                            const ParallelContext* parallel,
                            JoinPositions* positions) {
  RETURN_IF_ERROR(CheckAligned(left));
  RETURN_IF_ERROR(CheckAligned(right));
  RETURN_IF_ERROR(GovernorCheck(parallel));
  ExprPtr bound = predicate.Clone();
  RETURN_IF_ERROR(bound->Bind(left.schema().Concat(right.schema())));
  ASSIGN_OR_RETURN(std::optional<EquiKeys> keys,
                   FindEquiKeys(predicate, left.schema(), right.schema()));
  std::optional<JoinBuild> build;
  if (keys.has_value()) {
    const RowView& r = right.view;
    build.emplace(r, *keys,
                  r.base_table == nullptr
                      ? nullptr
                      : &r.base_table->EnsureIndex(r.columns[keys->right].column));
  }
  return JoinRows(left.view, right.view, *bound, semi,
                  build.has_value() ? &*build : nullptr, plan, parallel,
                  nullptr, positions);
}

// ∪_F, ∩_F and − over the set kernel: a row present on both sides combines
// the two pairs with `agg` (never the case for −, which needs no `agg`).
StatusOr<PRelation> SetOp(PlanKind kind, const PRelation& left,
                          const PRelation& right, const AggregateFunction* agg,
                          ExecStats* stats, const ParallelContext* parallel,
                          obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  RETURN_IF_ERROR(CheckAligned(left));
  RETURN_IF_ERROR(CheckAligned(right));
  if (left.schema().size() != right.schema().size()) {
    return Status::InvalidArgument("set operation inputs differ in arity");
  }
  if (left.key_columns() != right.key_columns()) {
    return Status::InvalidArgument("set operation inputs differ in keys");
  }
  MorselPlan plan = MorselPlan::Make(left.NumRows(), parallel);
  ASSIGN_OR_RETURN(std::vector<SetMatch> matches,
                   MatchSetOp(kind, left.view, right.view, plan, parallel,
                              nullptr));
  PRelation out;
  out.view = SetOpView(left.view, right.view, matches);
  out.pairs.reserve(matches.size());
  for (const auto& [l, r] : matches) {
    ScoreConf pair = l == kNoRow   ? right.pairs[r]
                     : r == kNoRow ? left.pairs[l]
                                   : CombineCounted(*agg, left.pairs[l], right.pairs[r]);
    if (!pair.IsDefault()) ++stats->score_entries_written;
    out.pairs.push_back(pair);
  }
  stats->tuples_materialized += out.NumRows();
  AnnotateSpan(span, left.NumRows() + right.NumRows(), out.NumRows(), &plan);
  return out;
}

}  // namespace

StatusOr<ViewPreference> ViewPreference::Bind(const Preference& pref,
                                              const RowView& view) {
  ExprPtr condition = pref.CloneCondition();
  RETURN_IF_ERROR(condition->Bind(view.schema));
  ScoringFunction scoring = pref.CloneScoring();
  RETURN_IF_ERROR(scoring.Bind(view.schema));
  return ViewPreference(view, std::move(condition), std::move(scoring));
}

StatusOr<PRelation> PSelect(const Expr& predicate, const PRelation& input,
                            ExecStats* stats, const ParallelContext* parallel,
                            obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  RETURN_IF_ERROR(GovernorCheck(parallel));
  ExprPtr bound = predicate.Clone();
  RETURN_IF_ERROR(bound->Bind(input.schema()));
  MorselPlan plan = MorselPlan::Make(input.NumRows(), parallel);
  PRelation out = KeepRows(
      input, FilterRows(input.view, *bound, plan, parallel, nullptr), stats);
  AnnotateSpan(span, input.NumRows(), out.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PProject(const std::vector<std::string>& columns,
                             const PRelation& input, ExecStats* stats,
                             obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  // The key columns survive projection by construction, and every row keeps
  // its position, so the pairs carry over unchanged.
  PRelation out = input;
  RETURN_IF_ERROR(ProjectView(columns, &out.view));
  stats->tuples_materialized += out.NumRows();
  AnnotateSpan(span, input.NumRows(), out.NumRows());
  return out;
}

StatusOr<PRelation> PJoin(const Expr& predicate, const PRelation& left,
                          const PRelation& right, const AggregateFunction& agg,
                          ExecStats* stats, const ParallelContext* parallel,
                          obs::Span* span) {
  ++stats->operator_invocations;
  MorselPlan plan = MorselPlan::Make(left.NumRows(), parallel);
  JoinPositions matched;
  PRelation out;
  ASSIGN_OR_RETURN(out.view, JoinViews(predicate, left, right, /*semi=*/false,
                                       plan, parallel, &matched));
  // Score combination: each joined row folds its two input rows' pairs.
  out.pairs.reserve(matched.left.size());
  for (size_t k = 0; k < matched.left.size(); ++k) {
    ScoreConf pair = CombineCounted(agg, left.pairs[matched.left[k]],
                                    right.pairs[matched.right[k]]);
    if (!pair.IsDefault()) ++stats->score_entries_written;
    out.pairs.push_back(pair);
  }
  stats->tuples_materialized += out.NumRows();
  AnnotateSpan(span, left.NumRows() + right.NumRows(), out.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PSemiJoin(const Expr& predicate, const PRelation& left,
                              const PRelation& right, ExecStats* stats,
                              const ParallelContext* parallel,
                              obs::Span* span) {
  ++stats->operator_invocations;
  MorselPlan plan = MorselPlan::Make(left.NumRows(), parallel);
  JoinPositions matched;
  PRelation out;
  ASSIGN_OR_RETURN(out.view, JoinViews(predicate, left, right, /*semi=*/true,
                                       plan, parallel, &matched));
  stats->tuples_materialized += out.NumRows();
  CarryScores(left, matched.left, &out, stats);
  AnnotateSpan(span, left.NumRows() + right.NumRows(), out.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PUnion(const PRelation& left, const PRelation& right,
                           const AggregateFunction& agg, ExecStats* stats,
                           const ParallelContext* parallel, obs::Span* span) {
  return SetOp(PlanKind::kUnion, left, right, &agg, stats, parallel, span);
}

StatusOr<PRelation> PIntersect(const PRelation& left, const PRelation& right,
                               const AggregateFunction& agg, ExecStats* stats,
                               const ParallelContext* parallel,
                               obs::Span* span) {
  return SetOp(PlanKind::kIntersect, left, right, &agg, stats, parallel, span);
}

StatusOr<PRelation> PDiff(const PRelation& left, const PRelation& right,
                          ExecStats* stats, const ParallelContext* parallel,
                          obs::Span* span) {
  return SetOp(PlanKind::kExcept, left, right, nullptr, stats, parallel, span);
}

StatusOr<PRelation> PDistinct(const PRelation& input, ExecStats* stats,
                              obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  PRelation out = KeepRows(
      input,
      DistinctRows(input.view, MorselPlan::Make(input.NumRows(), nullptr),
                   nullptr, nullptr),
      stats);
  AnnotateSpan(span, input.NumRows(), out.NumRows());
  return out;
}

StatusOr<PRelation> PSort(const std::vector<SortKey>& keys,
                          const PRelation& input, ExecStats* stats,
                          obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  ASSIGN_OR_RETURN(std::vector<uint32_t> order, SortRows(input.view, keys));
  PRelation out;
  out.view = input.view.Rows(order);
  out.pairs.reserve(order.size());
  for (uint32_t i : order) out.pairs.push_back(input.pairs[i]);
  stats->tuples_materialized += out.NumRows();
  AnnotateSpan(span, input.NumRows(), out.NumRows());
  return out;
}

StatusOr<PRelation> PLimit(size_t n, const PRelation& input, ExecStats* stats,
                           obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  std::vector<uint32_t> first(std::min(n, input.NumRows()));
  std::iota(first.begin(), first.end(), 0u);
  PRelation out = KeepRows(input, first, stats);
  AnnotateSpan(span, input.NumRows(), out.NumRows());
  return out;
}

StatusOr<PRelation> EvalPrefer(const Preference& pref, PRelation input,
                               const AggregateFunction& agg,
                               const Catalog* catalog, ExecStats* stats,
                               const ParallelContext* parallel,
                               obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  RETURN_IF_ERROR(GovernorCheck(parallel));
  PRelation out = std::move(input);
  const RowView& view = out.view;
  ASSIGN_OR_RETURN(ViewPreference bound, ViewPreference::Bind(pref, view));

  // Membership preferences additionally require a join partner in the
  // member relation, found through the member table's persistent index on
  // the member column. The member relation still counts as scanned.
  const HashIndex* member_index = nullptr;
  size_t local_col = 0;
  if (pref.membership() != nullptr) {
    const MembershipSpec& spec = *pref.membership();
    if (catalog == nullptr) {
      return Status::InvalidArgument(
          "membership preference requires catalog access: " + pref.name());
    }
    ASSIGN_OR_RETURN(Table * member, catalog->GetTable(spec.member_relation));
    ASSIGN_OR_RETURN(size_t member_idx,
                     member->schema().FindColumn(spec.member_column));
    ASSIGN_OR_RETURN(size_t local_idx,
                     view.schema.FindColumn(spec.local_column));
    local_col = local_idx;
    member_index = &member->EnsureIndex(member_idx);
    stats->rows_scanned += member->NumRows();
  }

  // The scoring pass is tuple-local: each morsel folds its rows'
  // contributions into their own pairs, in place. Writes are disjoint, so
  // no partials are merged; the condition, scoring function and member
  // index are immutable after binding and shared by all slots.
  const size_t n = view.NumRows();
  MorselPlan plan = MorselPlan::Make(n, parallel);
  std::vector<size_t> contributions(plan.morsel_count(), 0);
  ParallelFor(plan, [&](size_t, const Morsel& m) {
    GovernorCheckpoint(parallel);
    // threads=1 runs one covering morsel, so per-morsel checkpoints never
    // fire mid-loop; the ticker bounds cancellation latency by rows instead,
    // checking once per batch of input rows.
    GovernorTicker ticker(parallel == nullptr ? nullptr : parallel->governor,
                          /*period=*/1);
    ScratchRow scratch = bound.MakeScratch();
    std::vector<uint32_t> matching;
    for (size_t begin = m.begin; begin < m.end;
         begin += CompiledPredicate::kBatch) {
      ticker.Tick();
      matching.clear();
      bound.Matching(begin, std::min(m.end, begin + CompiledPredicate::kBatch),
                     &matching);
      for (uint32_t i : matching) {
        if (member_index != nullptr) {
          // Membership is the SQL `=` the plug-ins' semijoin evaluates: a
          // NULL local key has no member, even when the member relation
          // holds a NULL key.
          const ValueView key = view.View(i, local_col);
          if (key.is_null() || member_index->Lookup(key).empty()) {
            continue;  // Membership not satisfied: tuple unaffected.
          }
        }
        // S(r) = ⊥ contributes nothing.
        std::optional<double> score = bound.Score(i, &scratch);
        if (!score.has_value()) continue;
        out.pairs[i] = CombineCounted(
            agg, out.pairs[i], ScoreConf::Known(*score, pref.confidence()));
        ++contributions[m.index];
      }
    }
  });
  for (size_t count : contributions) stats->score_entries_written += count;
  stats->tuples_materialized += n;
  AnnotateSpan(span, n, n, &plan);
  return out;
}

}  // namespace prefdb

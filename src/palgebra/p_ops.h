#ifndef PREFDB_PALGEBRA_P_OPS_H_
#define PREFDB_PALGEBRA_P_OPS_H_

#include "common/governor.h"
#include "common/string_util.h"
#include "engine/exec_stats.h"
#include "obs/trace.h"
#include "palgebra/p_relation.h"
#include "plan/plan.h"
#include "prefs/agg_func.h"
#include "prefs/preference.h"
#include "storage/catalog.h"

namespace prefdb {

/// Physical implementations of the extended relational operators over
/// p-relations (paper §IV-B) and of the prefer operator λ_{p,F}
/// (paper §IV-C). These are the "user defined functions" of the paper's
/// prototype: they run in the middle layer, outside the native engine —
/// but over the engine's own row-id views and operator kernels
/// (engine/row_view.h). Each operator is the paper's "conventional result,
/// then score combination": the native kernel computes the output rows
/// (and, for the binary operators, which input rows they pair up), and a
/// pair hook here carries or combines the pairs. No operator copies a row
/// value or keeps a hash table, set structure or sort of its own.
///
/// All operators keep each output row's pair at the row's position
/// (PRelation::pairs): tuple-dropping and reordering operators carry the
/// pairs of the rows the kernel kept, by position, and binary operators
/// combine the two inputs' pairs with the aggregate function `F`. No
/// operator hashes a key to find a pair. The operators count into
/// ExecStats only: the native executor's pref.native.* counters are its
/// own.
///
/// Operators with a per-tuple hot loop — selection, prefer, the joins and
/// the set operations — accept an optional governor, checked on entry and
/// by the kernel (null means ungoverned). Every operator runs one serial
/// body on the calling thread.
///
/// Every operator also accepts an optional trace span (obs/trace.h). When
/// non-null, the operator annotates it with input/output cardinalities;
/// the caller owns the span's timing (strategies wrap each operator call in
/// a SpanScope). A null span costs one pointer test.

/// σ_φ over a p-relation: hard boolean filter; surviving tuples keep their
/// pairs, in input row order.
StatusOr<PRelation> PSelect(const Expr& predicate, const PRelation& input,
                            ExecStats* stats,
                            const QueryGovernor* governor = nullptr,
                            obs::Span* span = nullptr);

/// π over a p-relation: projects columns, implicitly preserving the key
/// columns (and thereby scores and confidences, paper §IV-B).
StatusOr<PRelation> PProject(const std::vector<std::string>& columns,
                             const PRelation& input, ExecStats* stats,
                             obs::Span* span = nullptr);

/// Inner join ⋈_{φ,F}: joins tuples and combines their pairs with `F`
/// (paper Fig. 3), reading `left.pairs` and `right.pairs` by the matched
/// row positions the join kernel reports. The output key is the
/// concatenation of the input keys. With an equi-conjunct it is a hash
/// join: a right input that is still the identity view of a base table
/// (BU's Prefer(Scan)) probes the table's persistent index
/// (Table::EnsureIndex); any other right input gets a per-call JoinTable.
/// Both list each key's right rows in order, and NULL left keys never
/// match (`NULL = x` is never true).
StatusOr<PRelation> PJoin(const Expr& predicate, const PRelation& left,
                          const PRelation& right, const AggregateFunction& agg,
                          ExecStats* stats,
                          const QueryGovernor* governor = nullptr,
                          obs::Span* span = nullptr);

/// Left semijoin ⋉_φ: keeps left tuples with at least one match; left pairs
/// are kept unchanged (the right side only qualifies tuples). Builds and
/// probes like PJoin.
StatusOr<PRelation> PSemiJoin(const Expr& predicate, const PRelation& left,
                              const PRelation& right, ExecStats* stats,
                              const QueryGovernor* governor = nullptr,
                              obs::Span* span = nullptr);

/// Set union ∪_F with duplicate elimination (first occurrence wins); pairs
/// of tuples present in both inputs are combined with `F`. The set kernel
/// (MatchSetOp) reports, per output row, the position of the equal row on
/// the other side — and with it that row's pair.
StatusOr<PRelation> PUnion(const PRelation& left, const PRelation& right,
                           const AggregateFunction& agg, ExecStats* stats,
                           const QueryGovernor* governor = nullptr,
                           obs::Span* span = nullptr);

/// Set intersection ∩_F; pairs combined with `F`.
StatusOr<PRelation> PIntersect(const PRelation& left, const PRelation& right,
                               const AggregateFunction& agg, ExecStats* stats,
                               const QueryGovernor* governor = nullptr,
                               obs::Span* span = nullptr);

/// Set difference: tuples of `left` not in `right`, keeping left pairs.
StatusOr<PRelation> PDiff(const PRelation& left, const PRelation& right,
                          ExecStats* stats,
                          const QueryGovernor* governor = nullptr,
                          obs::Span* span = nullptr);

/// Duplicate elimination over a p-relation: each distinct tuple keeps the
/// pair of its first occurrence.
StatusOr<PRelation> PDistinct(const PRelation& input, ExecStats* stats,
                              obs::Span* span = nullptr);

/// ORDER BY over a p-relation: the sort kernel orders row positions; the
/// view and the pairs follow that order.
StatusOr<PRelation> PSort(const std::vector<SortKey>& keys,
                          const PRelation& input, ExecStats* stats,
                          obs::Span* span = nullptr);

/// First-n over a p-relation.
StatusOr<PRelation> PLimit(size_t n, const PRelation& input, ExecStats* stats,
                           obs::Span* span = nullptr);

/// A preference's conditional part σ_φ and scoring function S, bound for
/// the rows of one view: the condition compiled over the view's typed
/// columns (ViewPredicate), and S compiled over them too (ViewScore),
/// scoring a batch of matching rows into a score array. Shared by the
/// prefer operator and the plug-ins' merge of rewritten-query rows. The
/// view must outlive it.
class ViewPreference {
 public:
  static StatusOr<ViewPreference> Bind(const Preference& pref,
                                       const RowView& view);

  /// Appends the positions in [begin, end) of the rows satisfying φ to
  /// `out`, ascending.
  void Matching(size_t begin, size_t end, std::vector<uint32_t>* out) const {
    condition_.Select(begin, end, out);
  }

  /// S over the rows at positions rows[0..n) (or 0..n-1), which satisfy φ:
  /// writes the positions whose S(r) is not ⊥, in order, to `kept` and S(r)
  /// to `scores` (ViewScore::Score).
  size_t Score(const uint32_t* rows, size_t n, uint32_t* kept, double* scores) {
    return score_.Score(rows, n, kept, scores);
  }

  /// "score=compiled", or "score=fallback(n)" when n leaves of S's program
  /// call Expr::Eval: the detail of the span that scores.
  std::string ScoreDetail() const {
    const size_t n = score_.program().fallback_count();
    return n == 0 ? "score=compiled" : StrFormat("score=fallback(%zu)", n);
  }

 private:
  ViewPreference(const RowView& view, ExprPtr condition, ScoringFunction scoring)
      : condition_expr_(std::move(condition)),
        condition_(view, *condition_expr_),
        scoring_(std::move(scoring)),
        score_(view, scoring_.expr()) {}

  ExprPtr condition_expr_;  // Read by the compiled condition's fallbacks.
  ViewPredicate condition_;
  ScoringFunction scoring_;  // Read by the compiled score's fallbacks.
  ViewScore score_;
};

/// The prefer operator λ_{p,F} (paper Def. in §IV-C): evaluates preference
/// `pref` on the p-relation. For every tuple satisfying the conditional
/// part, the contributed pair ⟨S(r), C⟩ is combined with the tuple's
/// current pair using `F`; other tuples pass through unchanged. Never
/// filters tuples.
///
/// `catalog` is needed only for membership preferences, which probe the
/// member table's persistent index on the member column
/// (Table::EnsureIndex, built on first use); it may be null otherwise.
/// Membership is SQL `=`: a tuple whose local key is NULL has no member.
/// The member relation still counts as scanned in `stats->rows_scanned`.
///
/// Takes its input by value (callers move it in) and updates `pairs[i]` in
/// place; the view passes through untouched. The pass runs the compiled
/// condition over the view's columns a batch at a time, checks membership
/// (a kInt local key probes the index as an int64), then scores the
/// matching rows with the compiled S (ViewPreference); `governor` ticks
/// once per batch. The span's detail says how S ran (ScoreDetail).
StatusOr<PRelation> EvalPrefer(const Preference& pref, PRelation input,
                               const AggregateFunction& agg,
                               const Catalog* catalog, ExecStats* stats,
                               const QueryGovernor* governor = nullptr,
                               obs::Span* span = nullptr);

}  // namespace prefdb

#endif  // PREFDB_PALGEBRA_P_OPS_H_

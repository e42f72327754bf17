#include "palgebra/p_ops.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "parallel/morsel.h"
#include "plan/plan.h"
#include "storage/hash_index.h"

namespace prefdb {

namespace {

// Partitioning decision for a tuple-local operator: serial when no context
// was supplied, otherwise per the context's knobs.
MorselPlan PlanFor(size_t n, const ParallelContext* parallel) {
  return MorselPlan::Make(n, parallel);
}

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

// Runs `keep(i)` over the rows of `plan` in morsels and returns the row
// indices it kept, in input order (per-morsel lists concatenated in morsel
// order).
template <typename Keep>
std::vector<uint32_t> KeptRows(const MorselPlan& plan,
                               const ParallelContext* parallel,
                               const Keep& keep) {
  std::vector<std::vector<uint32_t>> kept(plan.morsel_count());
  ParallelFor(plan, [&](size_t, const Morsel& m) {
    GovernorCheckpoint(parallel);
    std::vector<uint32_t>& local = kept[m.index];
    for (size_t i = m.begin; i < m.end; ++i) {
      if (keep(i)) local.push_back(static_cast<uint32_t>(i));
    }
  });
  if (kept.size() == 1) return std::move(kept[0]);
  size_t total = 0;
  for (const std::vector<uint32_t>& local : kept) total += local.size();
  std::vector<uint32_t> ids;
  ids.reserve(total);
  for (const std::vector<uint32_t>& local : kept) {
    ids.insert(ids.end(), local.begin(), local.end());
  }
  return ids;
}

// An empty p-relation with `like`'s schema and key.
PRelation EmptyLike(const Relation& like) {
  PRelation out;
  out.rel = Relation(like.schema());
  out.rel.set_key_columns(like.key_columns());
  return out;
}

// Appends the rows `ids` of `input` to `out`.
void CopyRows(const Relation& input, const std::vector<uint32_t>& ids,
              Relation* out) {
  out->Reserve(out->NumRows() + ids.size());
  for (uint32_t i : ids) out->AddRow(input.rows()[i]);
}

// Appends the pairs of rows `ids` of `input` to `out`: the score carry-over
// of the operators that drop tuples (select, semijoin, set difference,
// distinct, limit). Each carried non-default pair counts as a score entry
// written.
void CarryScores(const PRelation& input, const std::vector<uint32_t>& ids,
                 PRelation* out, ExecStats* stats) {
  out->pairs.reserve(out->pairs.size() + ids.size());
  for (uint32_t i : ids) {
    const ScoreConf& pair = input.pairs[i];
    out->pairs.push_back(pair);
    if (!pair.IsDefault()) ++stats->score_entries_written;
  }
}

// The set operations' and DISTINCT's membership structure: a hash set of
// positions into `rows`, hashed and compared by row content. It copies no
// tuple, and a probe by tuple returns the position of the first-inserted
// equal row — how the set operations reach the other side's pair.
class RowIndexSet {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  explicit RowIndexSet(const std::vector<Tuple>& rows)
      : set_(rows.size(), Hash{&rows}, Eq{&rows}) {}

  // Adds row `i`; false if an equal row is already present.
  bool Insert(uint32_t i) { return set_.insert(i).second; }

  // Position of the first-inserted row equal to `row`, or kAbsent.
  uint32_t Find(const Tuple& row) const {
    auto it = set_.find(row);
    return it == set_.end() ? kAbsent : *it;
  }

 private:
  struct Hash {
    using is_transparent = void;
    const std::vector<Tuple>* rows;
    size_t operator()(uint32_t i) const { return TupleHash()((*rows)[i]); }
    size_t operator()(const Tuple& t) const { return TupleHash()(t); }
  };
  struct Eq {
    using is_transparent = void;
    const std::vector<Tuple>* rows;
    bool operator()(uint32_t a, uint32_t b) const {
      return TupleEq()((*rows)[a], (*rows)[b]);
    }
    bool operator()(uint32_t a, const Tuple& b) const {
      return TupleEq()((*rows)[a], b);
    }
    bool operator()(const Tuple& a, uint32_t b) const {
      return TupleEq()(a, (*rows)[b]);
    }
  };
  std::unordered_set<uint32_t, Hash, Eq> set_;
};

// A RowIndexSet over all of `rows`; `first[i]` (when non-null) records
// whether row i is the first of its value.
RowIndexSet IndexRows(const std::vector<Tuple>& rows,
                      std::vector<uint8_t>* first = nullptr) {
  RowIndexSet set(rows);
  if (first != nullptr) first->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    bool inserted = set.Insert(static_cast<uint32_t>(i));
    if (first != nullptr) (*first)[i] = inserted ? 1 : 0;
  }
  return set;
}

// For every row of `rows`, the position of the equal row in `set` (or
// RowIndexSet::kAbsent), probed in concurrent morsels: the hash-probe half
// of the set operations, hoisted out of their serial emit loops.
std::vector<uint32_t> ProbeMembership(const std::vector<Tuple>& rows,
                                      const RowIndexSet& set,
                                      const MorselPlan& plan,
                                      const ParallelContext* parallel) {
  std::vector<uint32_t> match(rows.size(), RowIndexSet::kAbsent);
  ParallelFor(plan, [&](size_t, const Morsel& m) {
    GovernorCheckpoint(parallel);
    for (size_t i = m.begin; i < m.end; ++i) match[i] = set.Find(rows[i]);
  });
  return match;
}

// Operators read pairs by row position: a p-relation whose pairs are not
// row-aligned is a caller bug, reported here rather than read out of bounds.
Status CheckAligned(const PRelation& p) {
  if (p.pairs.size() == p.rel.NumRows()) return Status::OK();
  return Status::Internal(StrFormat("p-relation has %zu rows but %zu pairs",
                                    p.rel.NumRows(), p.pairs.size()));
}

Status CheckSetCompatible(const PRelation& left, const PRelation& right) {
  RETURN_IF_ERROR(CheckAligned(left));
  RETURN_IF_ERROR(CheckAligned(right));
  if (left.rel.schema().size() != right.rel.schema().size()) {
    return Status::InvalidArgument("set operation inputs differ in arity");
  }
  if (left.rel.key_columns() != right.rel.key_columns()) {
    return Status::InvalidArgument("set operation inputs differ in keys");
  }
  return Status::OK();
}

}  // namespace

StatusOr<PRelation> PSelect(const Expr& predicate, const PRelation& input,
                            ExecStats* stats, const ParallelContext* parallel,
                            obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  RETURN_IF_ERROR(GovernorCheck(parallel));
  ExprPtr bound = predicate.Clone();
  RETURN_IF_ERROR(bound->Bind(input.rel.schema()));
  // Bound expressions are immutable after Bind, so all slots share `bound`.
  const std::vector<Tuple>& rows = input.rel.rows();
  MorselPlan plan = PlanFor(rows.size(), parallel);
  std::vector<uint32_t> ids = KeptRows(
      plan, parallel, [&](size_t i) { return IsTruthy(bound->Eval(rows[i])); });
  PRelation out = EmptyLike(input.rel);
  CopyRows(input.rel, ids, &out.rel);
  stats->tuples_materialized += out.rel.NumRows();
  CarryScores(input, ids, &out, stats);
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PProject(const std::vector<std::string>& columns,
                             const PRelation& input, ExecStats* stats,
                             obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  PlanShape shape{input.rel.schema(), input.rel.key_columns()};
  ASSIGN_OR_RETURN(ProjectionResolution res, ResolveProjection(shape, columns));
  // The key columns survive projection by construction, and every row keeps
  // its position, so the pairs carry over unchanged.
  PRelation out;
  out.rel = Relation(input.rel.schema().Select(res.indices));
  out.rel.set_key_columns(res.key_positions);
  out.rel.Reserve(input.rel.NumRows());
  for (const Tuple& row : input.rel.rows()) {
    out.rel.AddRow(ProjectTuple(row, res.indices));
  }
  stats->tuples_materialized += out.rel.NumRows();
  out.pairs = input.pairs;
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> PJoin(const Expr& predicate, const PRelation& left,
                          const PRelation& right, const AggregateFunction& agg,
                          ExecStats* stats, const ParallelContext* parallel,
                          obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(left));
  RETURN_IF_ERROR(CheckAligned(right));
  RETURN_IF_ERROR(GovernorCheck(parallel));
  Schema combined = left.rel.schema().Concat(right.rel.schema());
  ExprPtr bound = predicate.Clone();
  RETURN_IF_ERROR(bound->Bind(combined));

  // Per-morsel buffers: joined rows plus each row's combined pair (an `F`
  // fold of the two inputs' pairs, read by row position). Concatenating the
  // buffers in morsel order gives the output row order; the bound
  // predicate, the build table and both inputs are read-only here.
  struct MatchBuffer {
    std::vector<Tuple> rows;
    std::vector<ScoreConf> pairs;
  };
  auto try_emit = [&](MatchBuffer* local, size_t l, size_t r) {
    Tuple joined = ConcatTuples(left.rel.rows()[l], right.rel.rows()[r]);
    if (!IsTruthy(bound->Eval(joined))) return;
    local->rows.push_back(std::move(joined));
    local->pairs.push_back(CombineCounted(agg, left.pairs[l], right.pairs[r]));
  };

  const std::vector<Tuple>& lrows = left.rel.rows();
  const std::vector<Tuple>& rrows = right.rel.rows();
  MorselPlan plan = PlanFor(lrows.size(), parallel);
  std::vector<MatchBuffer> buffers(plan.morsel_count());
  std::string left_col;
  std::string right_col;
  if (FindEquiConjunct(predicate, left.rel.schema(), right.rel.schema(),
                       &left_col, &right_col)) {
    ASSIGN_OR_RETURN(size_t li, left.rel.schema().FindColumn(left_col));
    ASSIGN_OR_RETURN(size_t ri, right.rel.schema().FindColumn(right_col));
    const HashIndex build(right.rel, ri);
    ParallelFor(plan, [&](size_t, const Morsel& m) {
      GovernorCheckpoint(parallel);
      MatchBuffer& local = buffers[m.index];
      for (size_t i = m.begin; i < m.end; ++i) {
        const Value& key = lrows[i][li];
        if (key.is_null()) continue;  // `NULL = x` is not true.
        for (uint32_t pos : build.Lookup(key)) try_emit(&local, i, pos);
      }
    });
  } else {
    ParallelFor(plan, [&](size_t, const Morsel& m) {
      GovernorCheckpoint(parallel);
      // The quadratic path: the ticker bounds cancellation latency by probe
      // count even when one covering morsel holds every row.
      GovernorTicker ticker(parallel == nullptr ? nullptr : parallel->governor);
      MatchBuffer& local = buffers[m.index];
      for (size_t i = m.begin; i < m.end; ++i) {
        for (size_t r = 0; r < rrows.size(); ++r) {
          ticker.Tick();
          try_emit(&local, i, r);
        }
      }
    });
  }

  PRelation out;
  out.rel = Relation(combined);
  std::vector<size_t> keys = left.rel.key_columns();
  for (size_t k : right.rel.key_columns()) {
    keys.push_back(k + left.rel.schema().size());
  }
  out.rel.set_key_columns(std::move(keys));
  if (buffers.size() == 1) {
    *out.rel.mutable_rows() = std::move(buffers[0].rows);
    out.pairs = std::move(buffers[0].pairs);
  } else {
    size_t total = 0;
    for (const MatchBuffer& local : buffers) total += local.rows.size();
    out.rel.Reserve(total);
    out.pairs.reserve(total);
    for (MatchBuffer& local : buffers) {
      for (Tuple& row : local.rows) out.rel.AddRow(std::move(row));
      out.pairs.insert(out.pairs.end(), local.pairs.begin(), local.pairs.end());
    }
  }
  for (const ScoreConf& pair : out.pairs) {
    if (!pair.IsDefault()) ++stats->score_entries_written;
  }
  stats->tuples_materialized += out.rel.NumRows();
  AnnotateSpan(span, left.rel.NumRows() + right.rel.NumRows(),
               out.rel.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PSemiJoin(const Expr& predicate, const PRelation& left,
                              const PRelation& right, ExecStats* stats,
                              const ParallelContext* parallel,
                              obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(left));
  RETURN_IF_ERROR(CheckAligned(right));
  RETURN_IF_ERROR(GovernorCheck(parallel));
  Schema combined = left.rel.schema().Concat(right.rel.schema());
  ExprPtr bound = predicate.Clone();
  RETURN_IF_ERROR(bound->Bind(combined));

  // Each left row's qualification is independent, so the probe runs in
  // morsels; the qualified row indices come back in input order.
  const std::vector<Tuple>& lrows = left.rel.rows();
  const std::vector<Tuple>& rrows = right.rel.rows();
  auto qualifies = [&](const Tuple& lrow, uint32_t r) {
    return IsTruthy(bound->Eval(ConcatTuples(lrow, rrows[r])));
  };
  MorselPlan plan = PlanFor(lrows.size(), parallel);
  std::vector<uint32_t> ids;
  std::string left_col;
  std::string right_col;
  if (FindEquiConjunct(predicate, left.rel.schema(), right.rel.schema(),
                       &left_col, &right_col)) {
    ASSIGN_OR_RETURN(size_t li, left.rel.schema().FindColumn(left_col));
    ASSIGN_OR_RETURN(size_t ri, right.rel.schema().FindColumn(right_col));
    const HashIndex build(right.rel, ri);
    ids = KeptRows(plan, parallel, [&](size_t i) {
      const Value& key = lrows[i][li];
      if (key.is_null()) return false;  // `NULL = x` is not true.
      for (uint32_t pos : build.Lookup(key)) {
        if (qualifies(lrows[i], pos)) return true;
      }
      return false;
    });
  } else {
    ids = KeptRows(plan, parallel, [&](size_t i) {
      for (size_t r = 0; r < rrows.size(); ++r) {
        if (qualifies(lrows[i], static_cast<uint32_t>(r))) return true;
      }
      return false;
    });
  }
  PRelation out = EmptyLike(left.rel);
  CopyRows(left.rel, ids, &out.rel);
  stats->tuples_materialized += out.rel.NumRows();
  CarryScores(left, ids, &out, stats);
  AnnotateSpan(span, left.rel.NumRows() + right.rel.NumRows(),
               out.rel.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PUnion(const PRelation& left, const PRelation& right,
                           const AggregateFunction& agg, ExecStats* stats,
                           const ParallelContext* parallel, obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  RETURN_IF_ERROR(CheckSetCompatible(left, right));
  // Duplicate elimination is first-occurrence-wins over left-then-right
  // order: a left row is emitted iff it is the first of its value on the
  // left, a right row iff no left row equals it and it is the first of its
  // value on the right. The right-side probes of the left rows run in
  // morsels; the emit loops stay serial.
  const std::vector<Tuple>& lrows = left.rel.rows();
  const std::vector<Tuple>& rrows = right.rel.rows();
  std::vector<uint8_t> left_first;
  std::vector<uint8_t> right_first;
  RowIndexSet left_set = IndexRows(lrows, &left_first);
  RowIndexSet right_set = IndexRows(rrows, &right_first);
  MorselPlan plan = PlanFor(lrows.size(), parallel);
  std::vector<uint32_t> in_right =
      ProbeMembership(lrows, right_set, plan, parallel);

  PRelation out = EmptyLike(left.rel);
  auto emit = [&](const Tuple& row, const ScoreConf& pair) {
    out.rel.AddRow(row);
    out.pairs.push_back(pair);
    if (!pair.IsDefault()) ++stats->score_entries_written;
  };
  for (size_t i = 0; i < lrows.size(); ++i) {
    if (!left_first[i]) continue;
    ScoreConf pair = left.pairs[i];
    if (in_right[i] != RowIndexSet::kAbsent) {
      pair = CombineCounted(agg, pair, right.pairs[in_right[i]]);
    }
    emit(lrows[i], pair);
  }
  for (size_t j = 0; j < rrows.size(); ++j) {
    if (!right_first[j] || left_set.Find(rrows[j]) != RowIndexSet::kAbsent) {
      continue;
    }
    emit(rrows[j], right.pairs[j]);
  }
  stats->tuples_materialized += out.rel.NumRows();
  AnnotateSpan(span, left.rel.NumRows() + right.rel.NumRows(),
               out.rel.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PIntersect(const PRelation& left, const PRelation& right,
                               const AggregateFunction& agg, ExecStats* stats,
                               const ParallelContext* parallel,
                               obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  RETURN_IF_ERROR(CheckSetCompatible(left, right));
  const std::vector<Tuple>& lrows = left.rel.rows();
  std::vector<uint8_t> left_first;
  IndexRows(lrows, &left_first);
  RowIndexSet right_set = IndexRows(right.rel.rows());
  MorselPlan plan = PlanFor(lrows.size(), parallel);
  std::vector<uint32_t> in_right =
      ProbeMembership(lrows, right_set, plan, parallel);

  PRelation out = EmptyLike(left.rel);
  for (size_t i = 0; i < lrows.size(); ++i) {
    if (in_right[i] == RowIndexSet::kAbsent || !left_first[i]) continue;
    ScoreConf pair =
        CombineCounted(agg, left.pairs[i], right.pairs[in_right[i]]);
    out.rel.AddRow(lrows[i]);
    out.pairs.push_back(pair);
    if (!pair.IsDefault()) ++stats->score_entries_written;
  }
  stats->tuples_materialized += out.rel.NumRows();
  AnnotateSpan(span, left.rel.NumRows() + right.rel.NumRows(),
               out.rel.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PDiff(const PRelation& left, const PRelation& right,
                          ExecStats* stats, const ParallelContext* parallel,
                          obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  RETURN_IF_ERROR(CheckSetCompatible(left, right));
  const std::vector<Tuple>& lrows = left.rel.rows();
  std::vector<uint8_t> left_first;
  IndexRows(lrows, &left_first);
  RowIndexSet right_set = IndexRows(right.rel.rows());
  MorselPlan plan = PlanFor(lrows.size(), parallel);
  std::vector<uint32_t> in_right =
      ProbeMembership(lrows, right_set, plan, parallel);

  std::vector<uint32_t> ids;
  for (size_t i = 0; i < lrows.size(); ++i) {
    if (in_right[i] == RowIndexSet::kAbsent && left_first[i]) {
      ids.push_back(static_cast<uint32_t>(i));
    }
  }
  PRelation out = EmptyLike(left.rel);
  CopyRows(left.rel, ids, &out.rel);
  stats->tuples_materialized += out.rel.NumRows();
  CarryScores(left, ids, &out, stats);
  AnnotateSpan(span, left.rel.NumRows() + right.rel.NumRows(),
               out.rel.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PDistinct(const PRelation& input, ExecStats* stats,
                              obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  std::vector<uint8_t> first;
  IndexRows(input.rel.rows(), &first);
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < first.size(); ++i) {
    if (first[i]) ids.push_back(static_cast<uint32_t>(i));
  }
  PRelation out = EmptyLike(input.rel);
  CopyRows(input.rel, ids, &out.rel);
  stats->tuples_materialized += out.rel.NumRows();
  CarryScores(input, ids, &out, stats);
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> PSort(const std::vector<SortKey>& keys,
                          const PRelation& input, ExecStats* stats,
                          obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  struct ResolvedKey {
    size_t index;
    bool descending;
  };
  std::vector<ResolvedKey> resolved;
  resolved.reserve(keys.size());
  for (const SortKey& k : keys) {
    ASSIGN_OR_RETURN(size_t idx, input.rel.schema().FindColumn(k.column));
    resolved.push_back({idx, k.descending});
  }
  // Tie-break on the relation key for deterministic order (see ExecSort).
  const std::vector<Tuple>& rows = input.rel.rows();
  const std::vector<size_t>& pk = input.rel.key_columns();
  std::vector<uint32_t> ids(rows.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  std::stable_sort(ids.begin(), ids.end(),
                   [&resolved, &pk, &rows](uint32_t ia, uint32_t ib) {
                     const Tuple& a = rows[ia];
                     const Tuple& b = rows[ib];
                     for (const ResolvedKey& k : resolved) {
                       int c = a[k.index].Compare(b[k.index]);
                       if (c != 0) return k.descending ? c > 0 : c < 0;
                     }
                     for (size_t k : pk) {
                       int c = a[k].Compare(b[k]);
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  PRelation out = EmptyLike(input.rel);
  CopyRows(input.rel, ids, &out.rel);
  out.pairs.reserve(ids.size());
  for (uint32_t i : ids) out.pairs.push_back(input.pairs[i]);
  stats->tuples_materialized += out.rel.NumRows();
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> PLimit(size_t n, const PRelation& input, ExecStats* stats,
                           obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(CheckAligned(input));
  std::vector<uint32_t> ids(std::min(n, input.rel.NumRows()));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  PRelation out = EmptyLike(input.rel);
  CopyRows(input.rel, ids, &out.rel);
  stats->tuples_materialized += out.rel.NumRows();
  CarryScores(input, ids, &out, stats);
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
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
  ExprPtr condition = pref.CloneCondition();
  RETURN_IF_ERROR(condition->Bind(input.rel.schema()));
  ScoringFunction scoring = pref.CloneScoring();
  RETURN_IF_ERROR(scoring.Bind(input.rel.schema()));

  // Membership preferences additionally require a join partner in the
  // member relation, found through the member table's persistent index on
  // the member column. The member relation still counts as scanned.
  const HashIndex* member_index = nullptr;
  int local_col = -1;
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
                     input.rel.schema().FindColumn(spec.local_column));
    local_col = static_cast<int>(local_idx);
    member_index = &member->EnsureIndex(member_idx);
    stats->rows_scanned += member->NumRows();
  }

  // The scoring pass is tuple-local: each morsel folds its rows'
  // contributions into their own pairs, in place. Writes are disjoint, so
  // no partials are merged; the condition, scoring function and member
  // index are immutable after binding and shared by all slots.
  PRelation out = std::move(input);
  const std::vector<Tuple>& rows = out.rel.rows();
  MorselPlan plan = PlanFor(rows.size(), parallel);
  std::vector<size_t> contributions(plan.morsel_count(), 0);
  ParallelFor(plan, [&](size_t, const Morsel& m) {
    GovernorCheckpoint(parallel);
    // threads=1 runs one covering morsel, so per-morsel checkpoints never
    // fire mid-loop; the ticker bounds cancellation latency by rows instead.
    GovernorTicker ticker(parallel == nullptr ? nullptr : parallel->governor);
    for (size_t i = m.begin; i < m.end; ++i) {
      ticker.Tick();
      const Tuple& row = rows[i];
      if (local_col >= 0) {
        // Membership is the SQL `=` the plug-ins' semijoin evaluates: a
        // NULL local key has no member, even when the member relation holds
        // a NULL key.
        const Value& key = row[static_cast<size_t>(local_col)];
        if (key.is_null() || member_index->Lookup(key).empty()) {
          continue;  // Membership not satisfied: tuple unaffected.
        }
      }
      if (!IsTruthy(condition->Eval(row))) continue;
      std::optional<double> score = scoring.Score(row);
      if (!score.has_value()) continue;  // S(r) = ⊥ contributes nothing.
      out.pairs[i] = CombineCounted(
          agg, out.pairs[i], ScoreConf::Known(*score, pref.confidence()));
      ++contributions[m.index];
    }
  });
  for (size_t count : contributions) stats->score_entries_written += count;
  stats->tuples_materialized += rows.size();
  AnnotateSpan(span, rows.size(), rows.size(), &plan);
  return out;
}

}  // namespace prefdb

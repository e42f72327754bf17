#include "palgebra/p_ops.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "parallel/morsel.h"
#include "plan/plan.h"

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

// Copies the score entries of surviving rows from `input` into `out`.
// Used by operators that drop tuples (select, semijoin, set difference).
// Parallel plans probe the input score relation in concurrent morsels
// (key extraction + hash lookup per surviving row); each morsel buffers
// its hits, and the buffers are folded into the output score relation in
// morsel order — the same entries, in the same order, as the serial scan.
void CarryScores(const PRelation& input, PRelation* out, ExecStats* stats,
                 const ParallelContext* parallel = nullptr) {
  out->scores.Reserve(std::min(input.scores.size(), out->rel.NumRows()));
  MorselPlan plan = PlanFor(out->rel.NumRows(), parallel);
  if (plan.serial() || input.scores.empty()) {
    for (const Tuple& row : out->rel.rows()) {
      Tuple key = out->rel.KeyOf(row);
      const ScoreConf& pair = input.scores.Lookup(key);
      if (!pair.IsDefault()) {
        out->scores.Set(key, pair);
        ++stats->score_entries_written;
      }
    }
    return;
  }
  const std::vector<Tuple>& rows = out->rel.rows();
  std::vector<std::vector<std::pair<Tuple, ScoreConf>>> hits(
      plan.morsel_count());
  ParallelFor(plan, [&](size_t, const Morsel& m) {
    GovernorCheckpoint(parallel);
    std::vector<std::pair<Tuple, ScoreConf>>& local = hits[m.index];
    for (size_t i = m.begin; i < m.end; ++i) {
      Tuple key = out->rel.KeyOf(rows[i]);
      const ScoreConf& pair = input.scores.Lookup(key);
      if (!pair.IsDefault()) local.emplace_back(std::move(key), pair);
    }
  });
  for (std::vector<std::pair<Tuple, ScoreConf>>& local : hits) {
    for (std::pair<Tuple, ScoreConf>& hit : local) {
      out->scores.Set(hit.first, hit.second);
      ++stats->score_entries_written;
    }
  }
}

// Precomputes, in concurrent morsels, whether each row of `rows` occurs in
// `set` — the hash-probe half of the set operations, hoisted out of their
// (order-dependent, serial) duplicate-elimination loops.
std::vector<uint8_t> ParallelMembership(
    const std::vector<Tuple>& rows,
    const std::unordered_set<Tuple, TupleHash, TupleEq>& set,
    const MorselPlan& plan, const ParallelContext* parallel) {
  std::vector<uint8_t> member(rows.size(), 0);
  ParallelFor(plan, [&](size_t, const Morsel& m) {
    GovernorCheckpoint(parallel);
    for (size_t i = m.begin; i < m.end; ++i) {
      member[i] = set.count(rows[i]) > 0 ? 1 : 0;
    }
  });
  return member;
}

Status CheckSetCompatible(const PRelation& left, const PRelation& right) {
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
  RETURN_IF_ERROR(GovernorCheck(parallel));
  ExprPtr bound = predicate.Clone();
  RETURN_IF_ERROR(bound->Bind(input.rel.schema()));
  PRelation out;
  out.rel = Relation(input.rel.schema());
  out.rel.set_key_columns(input.rel.key_columns());
  MorselPlan plan = PlanFor(input.rel.NumRows(), parallel);
  if (plan.serial()) {
    for (const Tuple& row : input.rel.rows()) {
      if (IsTruthy(bound->Eval(row))) out.rel.AddRow(row);
    }
  } else {
    // Bound expressions are immutable after Bind, so all slots share
    // `bound`. Each morsel filters into its own buffer; concatenating the
    // buffers in morsel order reproduces the serial output row order.
    const std::vector<Tuple>& rows = input.rel.rows();
    std::vector<std::vector<Tuple>> kept(plan.morsel_count());
    ParallelFor(plan, [&](size_t, const Morsel& m) {
      GovernorCheckpoint(parallel);
      std::vector<Tuple>& local = kept[m.index];
      for (size_t i = m.begin; i < m.end; ++i) {
        if (IsTruthy(bound->Eval(rows[i]))) local.push_back(rows[i]);
      }
    });
    size_t total = 0;
    for (const std::vector<Tuple>& local : kept) total += local.size();
    out.rel.Reserve(total);
    for (std::vector<Tuple>& local : kept) {
      for (Tuple& row : local) out.rel.AddRow(std::move(row));
    }
  }
  stats->tuples_materialized += out.rel.NumRows();
  CarryScores(input, &out, stats, parallel);
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PProject(const std::vector<std::string>& columns,
                             const PRelation& input, ExecStats* stats,
                             obs::Span* span) {
  ++stats->operator_invocations;
  PlanShape shape{input.rel.schema(), input.rel.key_columns()};
  ASSIGN_OR_RETURN(ProjectionResolution res, ResolveProjection(shape, columns));
  PRelation out;
  out.rel = Relation(input.rel.schema().Select(res.indices));
  out.rel.set_key_columns(res.key_positions);
  out.rel.Reserve(input.rel.NumRows());
  for (const Tuple& row : input.rel.rows()) {
    out.rel.AddRow(ProjectTuple(row, res.indices));
  }
  stats->tuples_materialized += out.rel.NumRows();
  // The key column *set* is preserved by construction, but the canonical
  // (ascending-position) key order can change when projection permutes
  // columns, so the score map is re-keyed under that permutation.
  // perm[i] = position, within the input key order, of the column that the
  // i-th output key column came from.
  const std::vector<size_t>& in_keys = input.rel.key_columns();
  const std::vector<size_t>& out_keys = out.rel.key_columns();
  std::vector<size_t> perm(out_keys.size());
  bool identity = true;
  for (size_t i = 0; i < out_keys.size(); ++i) {
    size_t source_col = res.indices[out_keys[i]];
    auto it = std::find(in_keys.begin(), in_keys.end(), source_col);
    if (it == in_keys.end()) {
      return Status::Internal("projection lost a key column");
    }
    perm[i] = static_cast<size_t>(it - in_keys.begin());
    if (perm[i] != i) identity = false;
  }
  if (identity) {
    out.scores = input.scores;
  } else {
    out.scores.Reserve(input.scores.size());
    for (const auto& [key, pair] : input.scores.entries()) {
      Tuple permuted(perm.size());
      for (size_t i = 0; i < perm.size(); ++i) permuted[i] = key[perm[i]];
      out.scores.Set(permuted, pair);
      ++stats->score_entries_written;
    }
  }
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> PJoin(const Expr& predicate, const PRelation& left,
                          const PRelation& right, const AggregateFunction& agg,
                          ExecStats* stats, const ParallelContext* parallel,
                          obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  Schema combined = left.rel.schema().Concat(right.rel.schema());
  ExprPtr bound = predicate.Clone();
  RETURN_IF_ERROR(bound->Bind(combined));

  PRelation out;
  out.rel = Relation(combined);
  std::vector<size_t> keys = left.rel.key_columns();
  for (size_t k : right.rel.key_columns()) {
    keys.push_back(k + left.rel.schema().size());
  }
  out.rel.set_key_columns(std::move(keys));

  auto emit = [&](const Tuple& lrow, const Tuple& rrow, Tuple joined) {
    ScoreConf pair = CombineCounted(agg, left.ScoreOf(lrow), right.ScoreOf(rrow));
    out.rel.AddRow(std::move(joined));
    if (!pair.IsDefault()) {
      out.scores.Set(out.rel.KeyOf(out.rel.rows().back()), pair);
      ++stats->score_entries_written;
    }
  };

  // Per-morsel buffers for the parallel probe: joined rows plus each row's
  // combined pair (computed in the morsel — two score lookups and an `F`
  // fold per match). Concatenating buffers in morsel order reproduces the
  // serial output row order and score-relation contents exactly; the
  // bound predicate, the build table, and both inputs are read-only here.
  struct MatchBuffer {
    std::vector<Tuple> rows;
    std::vector<ScoreConf> pairs;
  };
  auto emit_local = [&](MatchBuffer* local, const Tuple& lrow,
                        const Tuple& rrow, Tuple joined) {
    local->rows.push_back(std::move(joined));
    local->pairs.push_back(
        CombineCounted(agg, left.ScoreOf(lrow), right.ScoreOf(rrow)));
  };
  auto merge_local = [&](std::vector<MatchBuffer>* buffers) {
    size_t total = 0;
    for (const MatchBuffer& local : *buffers) total += local.rows.size();
    out.rel.Reserve(total);
    for (MatchBuffer& local : *buffers) {
      for (size_t i = 0; i < local.rows.size(); ++i) {
        out.rel.AddRow(std::move(local.rows[i]));
        if (!local.pairs[i].IsDefault()) {
          out.scores.Set(out.rel.KeyOf(out.rel.rows().back()), local.pairs[i]);
          ++stats->score_entries_written;
        }
      }
    }
  };

  const std::vector<Tuple>& lrows = left.rel.rows();
  MorselPlan plan = PlanFor(lrows.size(), parallel);
  std::string left_col;
  std::string right_col;
  if (FindEquiConjunct(predicate, left.rel.schema(), right.rel.schema(),
                       &left_col, &right_col)) {
    ASSIGN_OR_RETURN(size_t li, left.rel.schema().FindColumn(left_col));
    ASSIGN_OR_RETURN(size_t ri, right.rel.schema().FindColumn(right_col));
    std::unordered_map<Value, std::vector<uint32_t>, ValueHash> build;
    build.reserve(right.rel.NumRows());
    const std::vector<Tuple>& rrows = right.rel.rows();
    for (size_t i = 0; i < rrows.size(); ++i) {
      build[rrows[i][ri]].push_back(static_cast<uint32_t>(i));
    }
    if (plan.serial()) {
      for (const Tuple& lrow : lrows) {
        auto it = build.find(lrow[li]);
        if (it == build.end()) continue;
        for (uint32_t pos : it->second) {
          Tuple joined = ConcatTuples(lrow, rrows[pos]);
          if (IsTruthy(bound->Eval(joined))) {
            emit(lrow, rrows[pos], std::move(joined));
          }
        }
      }
    } else {
      std::vector<MatchBuffer> buffers(plan.morsel_count());
      ParallelFor(plan, [&](size_t, const Morsel& m) {
        GovernorCheckpoint(parallel);
        MatchBuffer& local = buffers[m.index];
        for (size_t i = m.begin; i < m.end; ++i) {
          const Tuple& lrow = lrows[i];
          auto it = build.find(lrow[li]);
          if (it == build.end()) continue;
          for (uint32_t pos : it->second) {
            Tuple joined = ConcatTuples(lrow, rrows[pos]);
            if (IsTruthy(bound->Eval(joined))) {
              emit_local(&local, lrow, rrows[pos], std::move(joined));
            }
          }
        }
      });
      merge_local(&buffers);
    }
  } else {
    const std::vector<Tuple>& rrows = right.rel.rows();
    if (plan.serial()) {
      // The quadratic serial path: the ticker bounds cancellation latency
      // by probe count even when one covering morsel holds every row.
      GovernorTicker ticker(parallel == nullptr ? nullptr
                                                : parallel->governor);
      for (const Tuple& lrow : lrows) {
        for (const Tuple& rrow : rrows) {
          ticker.Tick();
          Tuple joined = ConcatTuples(lrow, rrow);
          if (IsTruthy(bound->Eval(joined))) {
            emit(lrow, rrow, std::move(joined));
          }
        }
      }
    } else {
      std::vector<MatchBuffer> buffers(plan.morsel_count());
      ParallelFor(plan, [&](size_t, const Morsel& m) {
        GovernorCheckpoint(parallel);
        MatchBuffer& local = buffers[m.index];
        for (size_t i = m.begin; i < m.end; ++i) {
          const Tuple& lrow = lrows[i];
          for (const Tuple& rrow : rrows) {
            Tuple joined = ConcatTuples(lrow, rrow);
            if (IsTruthy(bound->Eval(joined))) {
              emit_local(&local, lrow, rrow, std::move(joined));
            }
          }
        }
      });
      merge_local(&buffers);
    }
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
  RETURN_IF_ERROR(GovernorCheck(parallel));
  Schema combined = left.rel.schema().Concat(right.rel.schema());
  ExprPtr bound = predicate.Clone();
  RETURN_IF_ERROR(bound->Bind(combined));

  PRelation out;
  out.rel = Relation(left.rel.schema());
  out.rel.set_key_columns(left.rel.key_columns());

  // Each left row's qualification is independent, so the probe runs in
  // morsels; qualified rows are appended serially in input order (the
  // per-row flag buffer keeps the output row order bit-identical).
  const std::vector<Tuple>& lrows = left.rel.rows();
  MorselPlan plan = PlanFor(lrows.size(), parallel);
  auto emit_qualified = [&](const std::vector<uint8_t>& qualified) {
    for (size_t i = 0; i < lrows.size(); ++i) {
      if (qualified[i]) out.rel.AddRow(lrows[i]);
    }
  };

  std::string left_col;
  std::string right_col;
  if (FindEquiConjunct(predicate, left.rel.schema(), right.rel.schema(),
                       &left_col, &right_col)) {
    ASSIGN_OR_RETURN(size_t li, left.rel.schema().FindColumn(left_col));
    ASSIGN_OR_RETURN(size_t ri, right.rel.schema().FindColumn(right_col));
    std::unordered_map<Value, std::vector<uint32_t>, ValueHash> build;
    const std::vector<Tuple>& rrows = right.rel.rows();
    for (size_t i = 0; i < rrows.size(); ++i) {
      build[rrows[i][ri]].push_back(static_cast<uint32_t>(i));
    }
    auto matches = [&](const Tuple& lrow) {
      auto it = build.find(lrow[li]);
      if (it == build.end()) return false;
      for (uint32_t pos : it->second) {
        Tuple joined = ConcatTuples(lrow, rrows[pos]);
        if (IsTruthy(bound->Eval(joined))) return true;
      }
      return false;
    };
    if (plan.serial()) {
      for (const Tuple& lrow : lrows) {
        if (matches(lrow)) out.rel.AddRow(lrow);
      }
    } else {
      std::vector<uint8_t> qualified(lrows.size(), 0);
      ParallelFor(plan, [&](size_t, const Morsel& m) {
        GovernorCheckpoint(parallel);
        for (size_t i = m.begin; i < m.end; ++i) {
          qualified[i] = matches(lrows[i]) ? 1 : 0;
        }
      });
      emit_qualified(qualified);
    }
  } else {
    const std::vector<Tuple>& rrows = right.rel.rows();
    auto matches = [&](const Tuple& lrow) {
      for (const Tuple& rrow : rrows) {
        Tuple joined = ConcatTuples(lrow, rrow);
        if (IsTruthy(bound->Eval(joined))) return true;
      }
      return false;
    };
    if (plan.serial()) {
      for (const Tuple& lrow : lrows) {
        if (matches(lrow)) out.rel.AddRow(lrow);
      }
    } else {
      std::vector<uint8_t> qualified(lrows.size(), 0);
      ParallelFor(plan, [&](size_t, const Morsel& m) {
        GovernorCheckpoint(parallel);
        for (size_t i = m.begin; i < m.end; ++i) {
          qualified[i] = matches(lrows[i]) ? 1 : 0;
        }
      });
      emit_qualified(qualified);
    }
  }
  stats->tuples_materialized += out.rel.NumRows();
  CarryScores(left, &out, stats, parallel);
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
  PRelation out;
  out.rel = Relation(left.rel.schema());
  out.rel.set_key_columns(left.rel.key_columns());

  std::unordered_set<Tuple, TupleHash, TupleEq> right_set(right.rel.rows().begin(),
                                                          right.rel.rows().end());
  // The right-side membership probes are hoisted into a parallel pass; the
  // emit loop below stays serial because duplicate elimination is
  // first-occurrence-wins over the interleaved left/right order. The flags
  // are pure functions of the inputs, so the emitted rows, pairs and
  // counters are exactly the serial ones.
  const std::vector<Tuple>& lrows = left.rel.rows();
  MorselPlan plan = PlanFor(lrows.size(), parallel);
  std::vector<uint8_t> in_right;
  if (!plan.serial()) {
    in_right = ParallelMembership(lrows, right_set, plan, parallel);
  }

  std::unordered_set<Tuple, TupleHash, TupleEq> emitted;
  for (size_t i = 0; i < lrows.size(); ++i) {
    const Tuple& row = lrows[i];
    if (!emitted.insert(row).second) continue;
    out.rel.AddRow(row);
    ScoreConf pair = left.ScoreOf(row);
    bool in_both =
        plan.serial() ? right_set.count(row) > 0 : in_right[i] != 0;
    if (in_both) {
      pair = CombineCounted(agg, pair, right.ScoreOf(row));
    }
    if (!pair.IsDefault()) {
      out.scores.Set(out.rel.KeyOf(row), pair);
      ++stats->score_entries_written;
    }
  }
  for (const Tuple& row : right.rel.rows()) {
    if (!emitted.insert(row).second) continue;
    out.rel.AddRow(row);
    const ScoreConf& pair = right.ScoreOf(row);
    if (!pair.IsDefault()) {
      out.scores.Set(out.rel.KeyOf(row), pair);
      ++stats->score_entries_written;
    }
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
  PRelation out;
  out.rel = Relation(left.rel.schema());
  out.rel.set_key_columns(left.rel.key_columns());

  std::unordered_set<Tuple, TupleHash, TupleEq> right_set(right.rel.rows().begin(),
                                                          right.rel.rows().end());
  const std::vector<Tuple>& lrows = left.rel.rows();
  MorselPlan plan = PlanFor(lrows.size(), parallel);
  std::vector<uint8_t> in_right;
  if (!plan.serial()) {
    in_right = ParallelMembership(lrows, right_set, plan, parallel);
  }

  std::unordered_set<Tuple, TupleHash, TupleEq> emitted;
  for (size_t i = 0; i < lrows.size(); ++i) {
    const Tuple& row = lrows[i];
    bool in_both =
        plan.serial() ? right_set.count(row) > 0 : in_right[i] != 0;
    if (!in_both) continue;
    if (!emitted.insert(row).second) continue;
    out.rel.AddRow(row);
    ScoreConf pair = CombineCounted(agg, left.ScoreOf(row), right.ScoreOf(row));
    if (!pair.IsDefault()) {
      out.scores.Set(out.rel.KeyOf(row), pair);
      ++stats->score_entries_written;
    }
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
  PRelation out;
  out.rel = Relation(left.rel.schema());
  out.rel.set_key_columns(left.rel.key_columns());
  std::unordered_set<Tuple, TupleHash, TupleEq> right_set(right.rel.rows().begin(),
                                                          right.rel.rows().end());
  const std::vector<Tuple>& lrows = left.rel.rows();
  MorselPlan plan = PlanFor(lrows.size(), parallel);
  std::vector<uint8_t> in_right;
  if (!plan.serial()) {
    in_right = ParallelMembership(lrows, right_set, plan, parallel);
  }

  std::unordered_set<Tuple, TupleHash, TupleEq> emitted;
  for (size_t i = 0; i < lrows.size(); ++i) {
    const Tuple& row = lrows[i];
    bool in_both =
        plan.serial() ? right_set.count(row) > 0 : in_right[i] != 0;
    if (in_both) continue;
    if (!emitted.insert(row).second) continue;
    out.rel.AddRow(row);
  }
  stats->tuples_materialized += out.rel.NumRows();
  CarryScores(left, &out, stats, parallel);
  AnnotateSpan(span, left.rel.NumRows() + right.rel.NumRows(),
               out.rel.NumRows(), &plan);
  return out;
}

StatusOr<PRelation> PDistinct(const PRelation& input, ExecStats* stats,
                              obs::Span* span) {
  ++stats->operator_invocations;
  PRelation out;
  out.rel = Relation(input.rel.schema());
  out.rel.set_key_columns(input.rel.key_columns());
  std::unordered_set<Tuple, TupleHash, TupleEq> seen;
  seen.reserve(input.rel.NumRows());
  for (const Tuple& row : input.rel.rows()) {
    if (seen.insert(row).second) out.rel.AddRow(row);
  }
  stats->tuples_materialized += out.rel.NumRows();
  CarryScores(input, &out, stats);
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> PSort(const std::vector<SortKey>& keys,
                          const PRelation& input, ExecStats* stats,
                          obs::Span* span) {
  ++stats->operator_invocations;
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
  PRelation out = input;
  // Tie-break on the relation key for deterministic order (see ExecSort).
  const std::vector<size_t>& pk = out.rel.key_columns();
  std::stable_sort(out.rel.mutable_rows()->begin(), out.rel.mutable_rows()->end(),
                   [&resolved, &pk](const Tuple& a, const Tuple& b) {
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
  stats->tuples_materialized += out.rel.NumRows();
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> PLimit(size_t n, const PRelation& input, ExecStats* stats,
                           obs::Span* span) {
  ++stats->operator_invocations;
  PRelation out;
  out.rel = Relation(input.rel.schema());
  out.rel.set_key_columns(input.rel.key_columns());
  size_t count = std::min(n, input.rel.NumRows());
  out.rel.Reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.rel.AddRow(input.rel.rows()[i]);
  }
  stats->tuples_materialized += out.rel.NumRows();
  CarryScores(input, &out, stats);
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> EvalPrefer(const Preference& pref, const PRelation& input,
                               const AggregateFunction& agg,
                               const Catalog* catalog, ExecStats* stats,
                               const ParallelContext* parallel,
                               obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  ExprPtr condition = pref.CloneCondition();
  RETURN_IF_ERROR(condition->Bind(input.rel.schema()));
  ScoringFunction scoring = pref.CloneScoring();
  RETURN_IF_ERROR(scoring.Bind(input.rel.schema()));

  // Membership preferences additionally require a join partner in the
  // member relation; build the probe set once.
  std::unordered_set<Value, ValueHash> member_keys;
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
    member_keys.reserve(member->NumRows());
    for (const Tuple& row : member->relation().rows()) {
      member_keys.insert(row[member_idx]);
    }
    stats->rows_scanned += member->NumRows();
  }

  PRelation out;
  out.rel = input.rel;
  out.scores = input.scores;
  MorselPlan plan = PlanFor(out.rel.NumRows(), parallel);
  if (plan.serial()) {
    // threads=1 runs one covering morsel, so per-morsel checkpoints never
    // fire mid-loop; the ticker bounds cancellation latency by rows instead.
    GovernorTicker ticker(parallel == nullptr ? nullptr : parallel->governor);
    for (const Tuple& row : out.rel.rows()) {
      ticker.Tick();
      if (local_col >= 0 &&
          member_keys.count(row[static_cast<size_t>(local_col)]) == 0) {
        continue;  // Membership not satisfied: tuple unaffected.
      }
      if (!IsTruthy(condition->Eval(row))) continue;
      std::optional<double> score = scoring.Score(row);
      if (!score.has_value()) continue;  // S(r) = ⊥ contributes nothing.
      ScoreConf contributed = ScoreConf::Known(*score, pref.confidence());
      Tuple key = out.rel.KeyOf(row);
      ScoreConf combined = CombineCounted(agg, out.scores.Lookup(key), contributed);
      out.scores.Set(key, combined);
      ++stats->score_entries_written;
    }
  } else {
    // Morsel-parallel scoring pass. Each morsel folds the contributions of
    // its tuples into a local score relation starting from the identity
    // ⟨⊥, 0⟩; the condition, scoring function and member-key set are
    // immutable after binding and shared by all slots. Because F is
    // associative with identity ⟨⊥, 0⟩, folding the input pair with the
    // per-morsel partials (in morsel order, below) yields the same pairs as
    // the serial row-order fold, up to floating-point association.
    const std::vector<Tuple>& rows = out.rel.rows();
    std::vector<ScoreRelation> partials(plan.morsel_count());
    std::vector<size_t> contributions(plan.morsel_count(), 0);
    ParallelFor(plan, [&](size_t, const Morsel& m) {
      GovernorCheckpoint(parallel);
      ScoreRelation& local = partials[m.index];
      for (size_t i = m.begin; i < m.end; ++i) {
        const Tuple& row = rows[i];
        if (local_col >= 0 &&
            member_keys.count(row[static_cast<size_t>(local_col)]) == 0) {
          continue;
        }
        if (!IsTruthy(condition->Eval(row))) continue;
        std::optional<double> score = scoring.Score(row);
        if (!score.has_value()) continue;
        ScoreConf contributed = ScoreConf::Known(*score, pref.confidence());
        Tuple key = out.rel.KeyOf(row);
        local.Set(key, CombineCounted(agg, local.Lookup(key), contributed));
        ++contributions[m.index];
      }
    });
    // Join point: merge partials in morsel order. Distinct keys are
    // independent entries, so within one partial the (unordered) iteration
    // order cannot affect the result.
    for (size_t i = 0; i < partials.size(); ++i) {
      for (const auto& [key, pair] : partials[i].entries()) {
        out.scores.Set(key,
                       CombineCounted(agg, out.scores.Lookup(key), pair));
      }
      stats->score_entries_written += contributions[i];
    }
  }
  stats->tuples_materialized += out.rel.NumRows();
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows(), &plan);
  return out;
}

}  // namespace prefdb

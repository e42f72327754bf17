#include "engine/row_view.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace prefdb {

namespace {

// How many probe rows ahead an index-served join prefetches.
constexpr size_t kPrefetchAhead = 8;

// Whole-row hash and equality through views, consistent with TupleHash /
// TupleEq over the gathered rows.
size_t RowHash(const RowView& view, size_t r) {
  size_t h = 0x345678;
  for (size_t c = 0; c < view.columns.size(); ++c) {
    h = h * 1000003 ^ view.At(r, c).Hash();
  }
  return h;
}

bool RowEq(const RowView& a, size_t i, const RowView& b, size_t j) {
  for (size_t c = 0; c < a.columns.size(); ++c) {
    if (a.At(i, c) != b.At(j, c)) return false;
  }
  return true;
}

// Whole-row membership over one view: open addressing from a row value to
// the first position inserted with it. Rows stay in the view and compare
// in place; hashes are passed in (precomputed in morsels by the callers).
class RowSet {
 public:
  explicit RowSet(const RowView& view) : view_(&view) {
    size_t capacity = 16;
    while (capacity < 2 * view.NumRows()) capacity <<= 1;
    mask_ = capacity - 1;
    slots_.assign(capacity, kNoRow);
    hashes_.resize(capacity);
  }

  // Adds position `i`; false if an equal row is already present.
  bool Insert(uint32_t i, size_t hash) {
    size_t slot = Probe(*view_, i, hash);
    if (slots_[slot] != kNoRow) return false;
    slots_[slot] = i;
    hashes_[slot] = hash;
    return true;
  }

  // First position holding the value of row `j` of `other`, or kNoRow.
  uint32_t Find(const RowView& other, uint32_t j, size_t hash) const {
    return slots_[Probe(other, j, hash)];
  }

 private:
  size_t Probe(const RowView& other, uint32_t j, size_t hash) const {
    size_t slot = (hash * 0x9e3779b97f4a7c15ULL >> 17) & mask_;
    while (slots_[slot] != kNoRow &&
           (hashes_[slot] != hash || !RowEq(*view_, slots_[slot], other, j))) {
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  const RowView* view_;
  size_t mask_ = 0;
  std::vector<uint32_t> slots_;
  std::vector<size_t> hashes_;
};

// The schema positions the non-null `bound` read, plus `extra`, sorted and
// unique.
std::vector<size_t> UsedColumns(const Schema& schema,
                                const std::vector<const Expr*>& bound,
                                const std::vector<size_t>& extra) {
  std::vector<std::string> names;
  for (const Expr* expr : bound) {
    if (expr != nullptr) expr->CollectColumns(&names);
  }
  std::vector<size_t> used = extra;
  for (const std::string& name : names) {
    // Bind already resolved every name against `schema`.
    used.push_back(static_cast<size_t>(schema.FindColumnOrNegative(name)));
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used;
}

}  // namespace

ScratchRow::ScratchRow(const Schema& schema,
                       const std::vector<const Expr*>& bound,
                       const std::vector<size_t>& extra)
    : scratch_(schema.size()), used_(UsedColumns(schema, bound, extra)) {}

void ScratchRow::Load(const RowView& view, size_t r, size_t offset) {
  for (size_t c : used_) {
    if (c >= offset && c < offset + view.columns.size()) {
      scratch_[c] = view.At(r, c - offset);
    }
  }
}

ViewLayout LayoutFor(const RowView& view, const Expr& bound) {
  ViewLayout layout;
  layout.schema = view.schema;
  std::vector<std::string> names;
  bound.CollectColumns(&names);
  int input = view.width() > 0 ? 0 : -1;  // Any input serves no column.
  for (size_t i = 0; i < names.size(); ++i) {
    int c = view.schema.FindColumnOrNegative(names[i]);
    if (c < 0) return layout;
    int from = static_cast<int>(view.columns[static_cast<size_t>(c)].input);
    if (i > 0 && from != input) return layout;
    input = from;
  }
  if (input < 0) return layout;
  std::vector<const Column*> at;  // Source position -> view column.
  for (size_t c = 0; c < view.columns.size(); ++c) {
    if (view.columns[c].input != static_cast<uint32_t>(input)) continue;
    const size_t pos = view.columns[c].column;
    if (pos >= at.size()) at.resize(pos + 1, nullptr);
    if (at[pos] != nullptr) return layout;  // Two names for one column.
    at[pos] = &view.schema.column(c);
  }
  Schema source;
  for (const Column* column : at) source.AddColumn(column ? *column : Column{});
  layout.input = input;
  layout.schema = std::move(source);
  return layout;
}

ColumnsAt ColumnsFor(const RowView& view, const std::vector<size_t>& columns) {
  ColumnsAt at;
  for (size_t c : columns) {
    const ColumnSource& src = view.columns[c];
    if (at.input >= 0 && src.input != static_cast<uint32_t>(at.input)) {
      return {-1, columns};
    }
    at.input = static_cast<int>(src.input);
    at.columns.push_back(src.column);
  }
  if (at.input < 0) at.columns = columns;
  return at;
}

StatusOr<std::optional<EquiKeys>> FindEquiKeys(const Expr& predicate,
                                               const Schema& left,
                                               const Schema& right) {
  std::string left_col;
  std::string right_col;
  bool equi_only = false;
  if (!FindEquiConjunct(predicate, left, right, &left_col, &right_col,
                        &equi_only)) {
    return std::optional<EquiKeys>();
  }
  ASSIGN_OR_RETURN(size_t li, left.FindColumn(left_col));
  ASSIGN_OR_RETURN(size_t ri, right.FindColumn(right_col));
  return std::optional<EquiKeys>(EquiKeys{li, ri, equi_only});
}

JoinTable::JoinTable(const RowView& build, size_t column)
    : build_(&build), column_(column), next_(build.NumRows(), kNoRow) {
  const size_t n = build.NumRows();
  size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  mask_ = capacity - 1;
  heads_.assign(capacity, kNoRow);
  hashes_.resize(capacity);
  // Prepending in reverse position order leaves every chain ascending.
  for (size_t j = n; j-- > 0;) {
    const Value& key = build.At(j, column);
    if (key.is_null()) {
      null_key_ = true;
      continue;
    }
    const size_t hash = key.Hash();
    size_t slot = Slot(key, hash);
    if (heads_[slot] == kNoRow) {
      hashes_[slot] = hash;
      ++distinct_;
    } else {
      next_[j] = heads_[slot];
    }
    heads_[slot] = static_cast<uint32_t>(j);
  }
}

size_t JoinTable::Slot(const Value& key, size_t hash) const {
  size_t slot = (hash * 0x9e3779b97f4a7c15ULL >> 17) & mask_;
  while (heads_[slot] != kNoRow &&
         (hashes_[slot] != hash || build_->At(heads_[slot], column_) != key)) {
    slot = (slot + 1) & mask_;
  }
  return slot;
}

std::vector<uint32_t> FilterRows(const RowView& view, const Expr& bound,
                                 const MorselPlan& plan,
                                 const ParallelContext* parallel,
                                 obs::Span* morsel_parent) {
  // The predicate reads the source tuples in place when it can (re-bound
  // to their layout); bound expressions are immutable after Bind, so all
  // slots share it.
  const ViewLayout layout = LayoutFor(view, bound);
  ExprPtr at_source;
  if (layout.input >= 0) {
    at_source = bound.Clone();
    if (!at_source->Bind(layout.schema).ok()) at_source = nullptr;
  }
  const int input = at_source != nullptr ? layout.input : -1;
  const Expr& predicate = at_source != nullptr ? *at_source : bound;
  std::vector<std::vector<uint32_t>> kept(plan.morsel_count());
  ParallelForTraced(plan, morsel_parent, [&](size_t, const Morsel& m) {
    GovernorCheckpoint(parallel);
    ScratchRow row(view.schema, {input < 0 ? &bound : nullptr});
    std::vector<uint32_t>& local = kept[m.index];
    for (size_t i = m.begin; i < m.end; ++i) {
      if (IsTruthy(predicate.Eval(row.Read(view, i, input)))) {
        local.push_back(static_cast<uint32_t>(i));
      }
    }
  });
  if (kept.size() == 1) return std::move(kept[0]);
  std::vector<uint32_t> positions;
  for (const std::vector<uint32_t>& local : kept) {
    positions.insert(positions.end(), local.begin(), local.end());
  }
  return positions;
}

Status ProjectView(const std::vector<std::string>& columns, RowView* view) {
  ASSIGN_OR_RETURN(ProjectionResolution res,
                   ResolveProjection(PlanShape{view->schema, view->key_columns},
                                     columns));
  std::vector<ColumnSource> remapped;
  remapped.reserve(res.indices.size());
  for (size_t i : res.indices) remapped.push_back(view->columns[i]);
  view->schema = view->schema.Select(res.indices);
  view->columns = std::move(remapped);
  view->key_columns = std::move(res.key_positions);
  return Status::OK();
}

RowView JoinRows(const RowView& left, const RowView& right, const Expr& bound,
                 bool semi, const JoinBuild* build, const MorselPlan& plan,
                 const ParallelContext* parallel, obs::Span* morsel_parent,
                 JoinPositions* positions) {
  const size_t nl = left.NumRows();
  const size_t nr = right.NumRows();
  const size_t left_cols = left.schema.size();

  // The output: the left view for a semi join, else both inputs' ids side
  // by side with the right's columns shifted past the left's inputs.
  RowView out;
  out.sources = left.sources;
  out.columns = left.columns;
  out.owned = left.owned;
  out.key_columns = left.key_columns;
  if (semi) {
    out.schema = left.schema;
  } else {
    out.schema = left.schema.Concat(right.schema);
    for (size_t k : right.key_columns) out.key_columns.push_back(k + left_cols);
    const auto shift = static_cast<uint32_t>(left.width());
    for (const ColumnSource& c : right.columns) {
      out.columns.push_back({c.input + shift, c.column});
    }
    out.sources.insert(out.sources.end(), right.sources.begin(),
                       right.sources.end());
    out.owned.insert(out.owned.end(), right.owned.begin(), right.owned.end());
  }

  // Per-morsel output ids and matched positions; the build side, both
  // inputs and the bound predicate are read-only here.
  struct Buffer {
    std::vector<uint32_t> ids;
    std::vector<uint32_t> left;
    std::vector<uint32_t> right;
  };
  std::vector<Buffer> buffers(plan.morsel_count());
  Schema combined = semi ? left.schema.Concat(right.schema) : out.schema;
  // A key match already decides a predicate that is just the equi-conjunct
  // (bound to exactly these two columns, since the combined bind succeeded),
  // so the probe then skips re-evaluating it.
  const bool test = build == nullptr || !build->keys.equi_only;
  // `for_each_match(i, ticker, visit)` calls visit(j) for the right
  // positions j that may match left row i, ascending, until it returns true.
  auto probe = [&](const auto& for_each_match) {
    ParallelForTraced(plan, morsel_parent, [&](size_t, const Morsel& m) {
      GovernorCheckpoint(parallel);
      // The nested loop is quadratic: it ticks per probe so a single
      // covering morsel cannot defer cancellation to the end of the cross
      // product.
      GovernorTicker ticker(parallel == nullptr ? nullptr : parallel->governor);
      Buffer& local = buffers[m.index];
      ScratchRow row(combined, {&bound});
      for (size_t i = m.begin; i < m.end; ++i) {
        bool loaded = false;
        for_each_match(i, ticker, [&](uint32_t j) {
          if (test) {
            if (!loaded) {
              row.Load(left, i, 0);
              loaded = true;
            }
            row.Load(right, j, left_cols);
            if (!IsTruthy(bound.Eval(row.tuple()))) return false;
          }
          left.AppendRow(i, &local.ids);
          if (!semi) right.AppendRow(j, &local.ids);
          if (positions != nullptr) {
            local.left.push_back(static_cast<uint32_t>(i));
            if (!semi) local.right.push_back(j);
          }
          return semi;  // A semi join's left row qualifies once.
        });
      }
    });
  };
  if (build == nullptr) {
    probe([&](size_t, GovernorTicker& ticker, const auto& visit) {
      for (uint32_t j = 0; j < nr; ++j) {
        ticker.Tick();
        if (visit(j)) return;
      }
    });
  } else if (const HashIndex* index = build->index) {
    const size_t li = build->keys.left;
    probe([&](size_t i, GovernorTicker&, const auto& visit) {
      // A table index was not just built, so its slots are usually cold:
      // start loading a later key's slot now, so that the misses of
      // consecutive probes overlap.
      if (i + kPrefetchAhead < nl) index->Prefetch(left.At(i + kPrefetchAhead, li));
      const Value& key = left.At(i, li);
      if (key.is_null()) return;  // `NULL = x` is not true.
      for (uint32_t j : index->Lookup(key)) {
        if (visit(j)) return;
      }
    });
  } else {
    const JoinTable* table = &*build->table;
    const size_t li = build->keys.left;
    probe([&](size_t i, GovernorTicker&, const auto& visit) {
      for (uint32_t j = table->Find(left.At(i, li)); j != kNoRow;
           j = table->Next(j)) {
        if (visit(j)) return;
      }
    });
  }

  if (buffers.size() == 1) {
    out.ids = std::move(buffers[0].ids);
    if (positions != nullptr) {
      positions->left = std::move(buffers[0].left);
      positions->right = std::move(buffers[0].right);
    }
    return out;
  }
  size_t total = 0;
  for (const Buffer& local : buffers) total += local.ids.size();
  out.ids.reserve(total);
  for (const Buffer& local : buffers) {
    out.ids.insert(out.ids.end(), local.ids.begin(), local.ids.end());
    if (positions != nullptr) {
      positions->left.insert(positions->left.end(), local.left.begin(),
                             local.left.end());
      positions->right.insert(positions->right.end(), local.right.begin(),
                              local.right.end());
    }
  }
  return out;
}

StatusOr<std::vector<SetMatch>> MatchSetOp(PlanKind kind, const RowView& left,
                                           const RowView& right,
                                           const MorselPlan& plan,
                                           const ParallelContext* parallel,
                                           obs::Span* morsel_parent) {
  if (kind != PlanKind::kUnion && kind != PlanKind::kIntersect &&
      kind != PlanKind::kExcept) {
    return Status::Internal("not a set operation");
  }
  const size_t nl = left.NumRows();
  const size_t nr = right.NumRows();
  // The right set builds serially, in input order (first occurrence wins);
  // hashing the left rows and probing them against it runs in morsels;
  // the left rows' first-occurrence inserts are serial again.
  std::vector<size_t> right_hash(nr);
  RowSet right_set(right);
  std::vector<uint8_t> right_first(nr);
  for (size_t j = 0; j < nr; ++j) {
    right_hash[j] = RowHash(right, j);
    right_first[j] = right_set.Insert(static_cast<uint32_t>(j), right_hash[j]);
  }
  std::vector<size_t> left_hash(nl);
  std::vector<uint32_t> in_right(nl, kNoRow);
  ParallelForTraced(plan, morsel_parent, [&](size_t, const Morsel& m) {
    GovernorCheckpoint(parallel);
    for (size_t i = m.begin; i < m.end; ++i) {
      left_hash[i] = RowHash(left, i);
      in_right[i] = right_set.Find(left, static_cast<uint32_t>(i), left_hash[i]);
    }
  });
  RowSet left_set(left);
  std::vector<uint8_t> left_first(nl);
  for (size_t i = 0; i < nl; ++i) {
    left_first[i] = left_set.Insert(static_cast<uint32_t>(i), left_hash[i]);
  }

  std::vector<SetMatch> matches;
  for (size_t i = 0; i < nl; ++i) {
    if (!left_first[i]) continue;
    const bool member = in_right[i] != kNoRow;
    if (kind == PlanKind::kUnion || member == (kind == PlanKind::kIntersect)) {
      matches.push_back({static_cast<uint32_t>(i), in_right[i]});
    }
  }
  if (kind == PlanKind::kUnion) {
    for (size_t j = 0; j < nr; ++j) {
      if (right_first[j] &&
          left_set.Find(right, static_cast<uint32_t>(j), right_hash[j]) == kNoRow) {
        matches.push_back({kNoRow, static_cast<uint32_t>(j)});
      }
    }
  }
  return matches;
}

RowView SetOpView(const RowView& left, const RowView& right,
                  const std::vector<SetMatch>& matches) {
  bool right_rows = false;
  for (const SetMatch& m : matches) right_rows = right_rows || m.first == kNoRow;
  if (right_rows) {
    std::vector<Tuple> rows;
    rows.reserve(matches.size());
    for (const SetMatch& m : matches) {
      rows.push_back(m.first != kNoRow ? left.GatherRow(m.first)
                                       : right.GatherRow(m.second));
    }
    Relation gathered(left.schema, std::move(rows));
    gathered.set_key_columns(left.key_columns);
    return RowView::Wrap(std::move(gathered));
  }
  std::vector<uint32_t> kept;
  kept.reserve(matches.size());
  for (const SetMatch& m : matches) kept.push_back(m.first);
  return left.Rows(kept);
}

std::vector<uint32_t> DistinctRows(const RowView& view, const MorselPlan& plan,
                                   const ParallelContext* parallel,
                                   obs::Span* morsel_parent) {
  // Whole-row hashing (the expensive part) precomputes in morsels; the
  // serial inserts then keep each value's first occurrence, in order.
  std::vector<size_t> hashes(view.NumRows());
  ParallelForTraced(plan, morsel_parent, [&](size_t, const Morsel& m) {
    GovernorCheckpoint(parallel);
    for (size_t i = m.begin; i < m.end; ++i) hashes[i] = RowHash(view, i);
  });
  RowSet seen(view);
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < hashes.size(); ++i) {
    if (seen.Insert(static_cast<uint32_t>(i), hashes[i])) {
      kept.push_back(static_cast<uint32_t>(i));
    }
  }
  return kept;
}

StatusOr<std::vector<uint32_t>> SortRows(const RowView& view,
                                         const std::vector<SortKey>& keys) {
  struct ResolvedKey {
    size_t index;
    bool descending;
  };
  std::vector<ResolvedKey> resolved;
  resolved.reserve(keys.size());
  for (const SortKey& k : keys) {
    ASSIGN_OR_RETURN(size_t idx, view.schema.FindColumn(k.column));
    resolved.push_back({idx, k.descending});
  }
  // Stable sort with a tie-break on the relation key: equal-key runs keep
  // their input order *and* the order (plus any LIMIT cutoff above) is
  // deterministic regardless of how upstream operators ordered the input.
  // Value::Compare is a strict total order including NULL and NaN, which
  // std::stable_sort requires (UB otherwise) — see Value::Compare.
  const std::vector<size_t>& pk = view.key_columns;
  std::vector<uint32_t> order(view.NumRows());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (const ResolvedKey& k : resolved) {
      int c = view.At(a, k.index).Compare(view.At(b, k.index));
      if (c != 0) return k.descending ? c > 0 : c < 0;
    }
    for (size_t k : pk) {
      int c = view.At(a, k).Compare(view.At(b, k));
      if (c != 0) return c < 0;
    }
    return false;
  });
  return order;
}

}  // namespace prefdb

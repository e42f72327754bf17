#include "engine/row_view.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace prefdb {

namespace {

// Whole-row hash and equality through views, consistent with TupleHash /
// TupleEq over the gathered rows.
size_t RowHash(const RowView& view, size_t r) {
  size_t h = 0x345678;
  for (size_t c = 0; c < view.columns.size(); ++c) {
    h = h * 1000003 ^ view.View(r, c).Hash();
  }
  return h;
}

bool RowEq(const RowView& a, size_t i, const RowView& b, size_t j) {
  for (size_t c = 0; c < a.columns.size(); ++c) {
    if (a.View(i, c) != b.View(j, c)) return false;
  }
  return true;
}

// The row-id streams of view rows [begin, begin + n) for `program`: one per
// view input, starting at stream `first`. A one-input view's stream is its
// ids themselves; otherwise the ids of each input the program reads are
// copied out of the row-major id array.
class Streams {
 public:
  Streams(const RowView& view, const ColumnProgram& program, uint32_t first,
          std::vector<const uint32_t*>* ptrs)
      : view_(view), program_(program), first_(first), ptrs_(ptrs) {
    if (ptrs_->size() < first + view.width()) ptrs_->resize(first + view.width());
    buffers_.resize(view.width());
  }

  // Points the streams at the rows `rows[0..n)` of the view, or at
  // [begin, begin + n) when `rows` is null.
  void Point(size_t begin, size_t n, const uint32_t* rows = nullptr) {
    const size_t w = view_.width();
    for (size_t k = 0; k < w; ++k) {
      const auto s = static_cast<uint32_t>(first_ + k);
      if (!program_.ReadsStream(s)) continue;
      if (w == 1 && rows == nullptr) {
        (*ptrs_)[s] = view_.ids.data() + begin;
        continue;
      }
      std::vector<uint32_t>& buf = buffers_[k];
      buf.resize(n);
      for (size_t t = 0; t < n; ++t) {
        buf[t] = view_.Id(rows != nullptr ? rows[t] : begin + t, k);
      }
      (*ptrs_)[s] = buf.data();
    }
  }

 private:
  const RowView& view_;
  const ColumnProgram& program_;
  uint32_t first_;
  std::vector<const uint32_t*>* ptrs_;
  std::vector<std::vector<uint32_t>> buffers_;
};

// Whole-row membership over one view: open addressing from a row value to
// the first position inserted with it. Rows stay in the view and compare
// in place; hashes are passed in (computed once per row by the callers).
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

}  // namespace

std::vector<ColumnInput> ColumnInputsOf(const RowView& view,
                                        uint32_t first_stream) {
  std::vector<ColumnInput> inputs;
  inputs.reserve(view.columns.size());
  for (size_t c = 0; c < view.columns.size(); ++c) {
    inputs.push_back({&view.Column(c), first_stream + view.columns[c].input});
  }
  return inputs;
}

void ViewPredicate::Select(size_t begin, size_t end,
                           std::vector<uint32_t>* out) const {
  std::vector<const uint32_t*> ptrs;
  Streams streams(*view_, program_, 0, &ptrs);
  uint32_t sel[CompiledPredicate::kBatch];
  for (size_t at = begin; at < end; at += CompiledPredicate::kBatch) {
    const size_t n = std::min(CompiledPredicate::kBatch, end - at);
    streams.Point(at, n);
    const size_t kept = program_.Select(ptrs.data(), n, sel);
    for (size_t k = 0; k < kept; ++k) {
      out->push_back(static_cast<uint32_t>(at + sel[k]));
    }
  }
}

size_t ViewScore::Score(const uint32_t* rows, size_t n, uint32_t* kept,
                        double* scores) {
  std::vector<const uint32_t*> ptrs;
  Streams streams(*view_, program_, 0, &ptrs);
  size_t m = 0;
  for (size_t at = 0; at < n; at += CompiledScore::kBatch) {
    const size_t c = std::min(CompiledScore::kBatch, n - at);
    streams.Point(at, c, rows == nullptr ? nullptr : rows + at);
    const size_t k = program_.Score(ptrs.data(), c, kept + m, scores + m);
    for (size_t j = m; j < m + k; ++j) {
      kept[j] = rows == nullptr ? static_cast<uint32_t>(at + kept[j]) : rows[at + kept[j]];
    }
    m += k;
  }
  return m;
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
    : build_(&build),
      column_(column),
      int_keys_(build.Column(column).layout() == ColumnLayout::kInt),
      next_(build.NumRows(), kNoRow) {
  const size_t n = build.NumRows();
  size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  mask_ = capacity - 1;
  heads_.assign(capacity, kNoRow);
  hashes_.resize(capacity);
  if (int_keys_) keys_.resize(capacity);
  const TypedColumn& col = build.Column(column);
  const size_t input = build.columns[column].input;
  // Prepending in reverse position order leaves every chain ascending.
  for (size_t j = n; j-- > 0;) {
    const uint32_t row = build.Id(j, input);
    if (col.IsNull(row)) {
      null_key_ = true;
      continue;
    }
    size_t slot;
    size_t hash;
    if (int_keys_) {
      const int64_t key = col.ints()[row];
      hash = HashInt64(key);
      slot = SlotInt(key, hash);
      keys_[slot] = key;
    } else {
      const ValueView key = col.View(row);
      hash = key.Hash();
      slot = SlotView(key, hash);
    }
    if (heads_[slot] == kNoRow) {
      hashes_[slot] = hash;
      ++distinct_;
    } else {
      next_[j] = heads_[slot];
    }
    heads_[slot] = static_cast<uint32_t>(j);
  }
}

size_t JoinTable::SlotView(const ValueView& key, size_t hash) const {
  size_t slot = Home(hash);
  while (heads_[slot] != kNoRow &&
         (hashes_[slot] != hash || build_->View(heads_[slot], column_) != key)) {
    slot = (slot + 1) & mask_;
  }
  return slot;
}

uint32_t JoinTable::Find(const ValueView& key) const {
  if (key.is_null()) return kNoRow;
  if (!int_keys_) return heads_[SlotView(key, key.Hash())];
  if (key.type == ValueType::kInt) return FindInt(key.i);
  // Only a double holding exactly an int64 equals an int key.
  int64_t i;
  if (key.type == ValueType::kDouble && ExactInt64(key.d, &i)) return FindInt(i);
  return kNoRow;
}

std::vector<uint32_t> FilterRows(const RowView& view, const Expr& bound,
                                 const QueryGovernor* governor) {
  const ViewPredicate predicate(view, bound);
  GovernorCheckpoint(governor);
  std::vector<uint32_t> positions;
  predicate.Select(0, view.NumRows(), &positions);
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
                 bool semi, const JoinBuild* build,
                 const QueryGovernor* governor, JoinPositions* positions) {
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

  // A key match already decides a predicate that is just the equi-conjunct
  // (bound to exactly these two columns, since the combined bind succeeded),
  // so the probe then skips re-evaluating it. Otherwise the predicate runs
  // compiled over both sides' columns: the left inputs' ids are its first
  // streams, the right inputs' the rest.
  const bool test = build == nullptr || !build->keys.equi_only;
  std::optional<CompiledPredicate> program;
  if (test) {
    std::vector<ColumnInput> inputs = ColumnInputsOf(left);
    std::vector<ColumnInput> right_inputs =
        ColumnInputsOf(right, static_cast<uint32_t>(left.width()));
    inputs.insert(inputs.end(), right_inputs.begin(), right_inputs.end());
    program.emplace(bound, std::move(inputs));
  }
  // The probe collects the matched positions; the output ids are written
  // from them in one pass at the end.
  std::vector<uint32_t> matched_left;
  std::vector<uint32_t> matched_right;
  matched_left.reserve(nl);
  if (!semi) matched_right.reserve(nl);
  // `for_each_match(i, ticker, visit)` calls visit(j) for the right
  // positions j that may match left row i, ascending, until it returns true.
  auto probe = [&](const auto& for_each_match) {
    GovernorCheckpoint(governor);
    // The nested loop is quadratic: it ticks per probe so that cancellation
    // need not wait for the end of the cross product.
    GovernorTicker ticker(governor);
    auto emit = [&](uint32_t i, uint32_t j) {
      matched_left.push_back(i);
      if (!semi) matched_right.push_back(j);
    };
    if (!test) {
      for (size_t i = 0; i < nl; ++i) {
        for_each_match(i, ticker, [&](uint32_t j) {
          emit(static_cast<uint32_t>(i), j);
          return semi;  // A semi join's left row qualifies once.
        });
      }
      return;
    }
    // Candidate pairs collect into a batch that the program tests at
    // once; the passing pairs are emitted in candidate order. A semi
    // join emits each left row at its first passing pair.
    std::vector<uint32_t> cand_left;
    std::vector<uint32_t> cand_right;
    cand_left.reserve(CompiledPredicate::kBatch);
    cand_right.reserve(CompiledPredicate::kBatch);
    std::vector<const uint32_t*> ptrs;
    Streams left_streams(left, *program, 0, &ptrs);
    Streams right_streams(right, *program, static_cast<uint32_t>(left.width()),
                          &ptrs);
    uint32_t sel[CompiledPredicate::kBatch];
    uint32_t last_left = kNoRow;
    auto flush = [&] {
      const size_t n = cand_left.size();
      if (n == 0) return;
      left_streams.Point(0, n, cand_left.data());
      right_streams.Point(0, n, cand_right.data());
      const size_t kept = program->Select(ptrs.data(), n, sel);
      for (size_t k = 0; k < kept; ++k) {
        const uint32_t i = cand_left[sel[k]];
        if (semi && i == last_left) continue;
        last_left = i;
        emit(i, cand_right[sel[k]]);
      }
      cand_left.clear();
      cand_right.clear();
    };
    for (size_t i = 0; i < nl; ++i) {
      for_each_match(i, ticker, [&](uint32_t j) {
        cand_left.push_back(static_cast<uint32_t>(i));
        cand_right.push_back(j);
        if (cand_left.size() == CompiledPredicate::kBatch) flush();
        return false;
      });
    }
    flush();
  };
  if (build == nullptr) {
    probe([&](size_t, GovernorTicker& ticker, const auto& visit) {
      for (uint32_t j = 0; j < nr; ++j) {
        ticker.Tick();
        if (visit(j)) return;
      }
    });
  } else {
    const size_t li = build->keys.left;
    const TypedColumn& key_col = left.Column(li);
    const size_t key_input = left.columns[li].input;
    // Over an int-keyed build side, a kInt key column is probed with its
    // int64s; any other pairing probes with the typed cells (the index or
    // table then compares under Value's equality).
    const bool ints = key_col.layout() == ColumnLayout::kInt &&
                      (build->index != nullptr ? build->index->int_keys()
                                               : build->table->int_keys());
    const int64_t* keys = key_col.ints();
    if (const HashIndex* index = build->index) {
      probe([&](size_t i, GovernorTicker&, const auto& visit) {
        // A table index was not just built, so its slots are usually cold:
        // start loading a later key's slot now, so that the misses of
        // consecutive probes overlap.
        std::span<const uint32_t> matches;
        if (ints) {
          if (i + kPrefetchAhead < nl) {
            index->PrefetchInt(keys[left.Id(i + kPrefetchAhead, key_input)]);
          }
          const uint32_t row = left.Id(i, key_input);
          if (key_col.NullBit(row)) return;  // `NULL = x` is not true.
          matches = index->LookupInt(keys[row]);
        } else {
          if (i + kPrefetchAhead < nl) {
            index->Prefetch(left.View(i + kPrefetchAhead, li));
          }
          const ValueView key = left.View(i, li);
          if (key.is_null()) return;
          matches = index->Lookup(key);
        }
        for (uint32_t j : matches) {
          if (visit(j)) return;
        }
      });
    } else {
      const JoinTable* table = &*build->table;
      probe([&](size_t i, GovernorTicker&, const auto& visit) {
        uint32_t j;
        if (ints) {
          const uint32_t row = left.Id(i, key_input);
          if (key_col.NullBit(row)) return;
          j = table->FindInt(keys[row]);
        } else {
          j = table->Find(left.View(i, li));
        }
        for (; j != kNoRow; j = table->Next(j)) {
          if (visit(j)) return;
        }
      });
    }
  }

  const size_t m = matched_left.size();
  const size_t lw = left.width();
  const size_t rw = semi ? 0 : right.width();
  out.ids.resize(m * (lw + rw));
  uint32_t* dst = out.ids.data();
  for (size_t k = 0; k < m; ++k) {
    dst = std::copy_n(left.Row(matched_left[k]), lw, dst);
    if (!semi) dst = std::copy_n(right.Row(matched_right[k]), rw, dst);
  }
  if (positions != nullptr) {
    positions->left = std::move(matched_left);
    positions->right = std::move(matched_right);
  }
  return out;
}

StatusOr<std::vector<SetMatch>> MatchSetOp(PlanKind kind, const RowView& left,
                                           const RowView& right,
                                           const QueryGovernor* governor) {
  if (kind != PlanKind::kUnion && kind != PlanKind::kIntersect &&
      kind != PlanKind::kExcept) {
    return Status::Internal("not a set operation");
  }
  const size_t nl = left.NumRows();
  const size_t nr = right.NumRows();
  // The right set builds in input order (first occurrence wins); then each
  // left row is hashed once and probed against it.
  std::vector<size_t> right_hash(nr);
  RowSet right_set(right);
  std::vector<uint8_t> right_first(nr);
  for (size_t j = 0; j < nr; ++j) {
    right_hash[j] = RowHash(right, j);
    right_first[j] = right_set.Insert(static_cast<uint32_t>(j), right_hash[j]);
  }
  std::vector<size_t> left_hash(nl);
  std::vector<uint32_t> in_right(nl, kNoRow);
  GovernorCheckpoint(governor);
  for (size_t i = 0; i < nl; ++i) {
    left_hash[i] = RowHash(left, i);
    in_right[i] = right_set.Find(left, static_cast<uint32_t>(i), left_hash[i]);
  }
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
    // Rows of both inputs in one view: their values are copied, column by
    // column, into a column store the view owns.
    std::vector<TypedColumn> columns;
    columns.reserve(left.columns.size());
    std::vector<ValueView> cells(matches.size());
    for (size_t c = 0; c < left.columns.size(); ++c) {
      for (size_t k = 0; k < matches.size(); ++k) {
        const SetMatch& m = matches[k];
        cells[k] = m.first != kNoRow ? left.View(m.first, c)
                                     : right.View(m.second, c);
      }
      columns.push_back(TypedColumn::Build(cells));
    }
    auto store = std::make_shared<const ColumnStore>(std::move(columns),
                                                     matches.size());
    return RowView::Of(left.schema, left.key_columns, *store, store);
  }
  std::vector<uint32_t> kept;
  kept.reserve(matches.size());
  for (const SetMatch& m : matches) kept.push_back(m.first);
  return left.Rows(kept);
}

std::vector<uint32_t> DistinctRows(const RowView& view,
                                   const QueryGovernor* governor) {
  // The inserts keep each value's first occurrence, in order.
  GovernorCheckpoint(governor);
  RowSet seen(view);
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < view.NumRows(); ++i) {
    if (seen.Insert(static_cast<uint32_t>(i), RowHash(view, i))) {
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
      int c = view.View(a, k.index).Compare(view.View(b, k.index));
      if (c != 0) return k.descending ? c > 0 : c < 0;
    }
    for (size_t k : pk) {
      int c = view.View(a, k).Compare(view.View(b, k));
      if (c != 0) return c < 0;
    }
    return false;
  });
  return order;
}

}  // namespace prefdb

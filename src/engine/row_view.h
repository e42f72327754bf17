#ifndef PREFDB_ENGINE_ROW_VIEW_H_
#define PREFDB_ENGINE_ROW_VIEW_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "expr/compiled_predicate.h"
#include "expr/expr.h"
#include "common/governor.h"
#include "plan/plan.h"
#include "storage/hash_index.h"
#include "storage/row_view.h"
#include "types/relation.h"

// The operator kernels over row-id views (storage/row_view.h), shared by
// the native executor and the p-algebra.

namespace prefdb {

/// "No row": an absent side of a set-operation match, or an empty chain.
constexpr uint32_t kNoRow = UINT32_MAX;

/// How many rows ahead a probe of a table's persistent index prefetches.
constexpr size_t kPrefetchAhead = 8;

/// Where the columns of `view` are read from, for a CompiledPredicate over
/// its schema: view column c reads its typed column through the ids of its
/// input, stream `first_stream + input`.
std::vector<ColumnInput> ColumnInputsOf(const RowView& view,
                                        uint32_t first_stream = 0);

/// A predicate bound to a view's schema, compiled over the view's typed
/// columns (one row-id stream per view input).
class ViewPredicate {
 public:
  ViewPredicate(const RowView& view, const Expr& bound)
      : view_(&view), program_(bound, ColumnInputsOf(view)) {}

  /// Appends the positions in [begin, end) of the view's rows that satisfy
  /// the predicate to `out`, ascending, a batch at a time.
  void Select(size_t begin, size_t end, std::vector<uint32_t>* out) const;

 private:
  const RowView* view_;
  CompiledPredicate program_;
};

/// A numeric expression bound to a view's schema, compiled over the view's
/// typed columns (CompiledScore): a scoring function's S over view rows.
class ViewScore {
 public:
  ViewScore(const RowView& view, const Expr& bound)
      : view_(&view), program_(bound, ColumnInputsOf(view)) {}

  /// Scores the rows at positions rows[0..n), or 0..n-1 when `rows` is null:
  /// writes the positions whose score is not ⊥, in order, to `kept` and
  /// their scores to `scores` (room for n each; `kept` must not alias
  /// `rows`); returns how many.
  size_t Score(const uint32_t* rows, size_t n, uint32_t* kept, double* scores);

  const CompiledScore& program() const { return program_; }

 private:
  const RowView* view_;
  CompiledScore program_;
};

/// The hash-join shape of a join predicate: the key column of its first
/// equi-conjunct on each side, and whether that conjunct is the whole
/// predicate (a key match then decides the predicate).
struct EquiKeys {
  size_t left;
  size_t right;
  bool equi_only;
};
StatusOr<std::optional<EquiKeys>> FindEquiKeys(const Expr& predicate,
                                               const Schema& left,
                                               const Schema& right);

/// A per-query hash table over one column of a view: open addressing from
/// a key to the chain of positions holding it, ascending, in flat arrays.
/// When the column is a kInt column the int64 keys sit inline in the slots
/// and a probe compares integers; otherwise keys stay in the view and are
/// compared in place. NULL keys are never inserted and never match
/// (`NULL = x` is not true).
class JoinTable {
 public:
  JoinTable(const RowView& build, size_t column);

  /// First position holding `key`, or kNoRow; continue with Next().
  uint32_t Find(const ValueView& key) const;
  /// Find(ValueView::Int(key)); requires int_keys().
  uint32_t FindInt(int64_t key) const {
    return heads_[SlotInt(key, HashInt64(key))];
  }
  uint32_t Next(uint32_t pos) const { return next_[pos]; }
  bool int_keys() const { return int_keys_; }

  /// Distinct keys, NULL counted as one key.
  size_t DistinctKeys() const { return distinct_ + (null_key_ ? 1 : 0); }

 private:
  size_t Home(size_t hash) const {
    return (hash * 0x9e3779b97f4a7c15ULL >> 17) & mask_;
  }
  size_t SlotInt(int64_t key, size_t hash) const {
    size_t slot = Home(hash);
    while (heads_[slot] != kNoRow && (hashes_[slot] != hash || keys_[slot] != key)) {
      slot = (slot + 1) & mask_;
    }
    return slot;
  }
  size_t SlotView(const ValueView& key, size_t hash) const;

  const RowView* build_;
  size_t column_;
  bool int_keys_;
  size_t mask_ = 0;
  std::vector<uint32_t> heads_;
  std::vector<size_t> hashes_;
  std::vector<int64_t> keys_;  // Per slot, when int_keys_.
  std::vector<uint32_t> next_;
  size_t distinct_ = 0;
  bool null_key_ = false;
};

/// A hash join's build side over the right input: the persistent index of
/// the base table the right view is the identity over, or else a JoinTable
/// over the view. Either lists each key's right positions ascending.
struct JoinBuild {
  JoinBuild(const RowView& right, const EquiKeys& equi, const HashIndex* table_index)
      : keys(equi), index(table_index) {
    if (index == nullptr) table.emplace(right, keys.right);
  }
  size_t DistinctKeys() const {
    return index != nullptr ? index->NumKeys() : table->DistinctKeys();
  }

  EquiKeys keys;
  const HashIndex* index;
  std::optional<JoinTable> table;
};

// --- Operator kernels ------------------------------------------------------
//
// One body per relational operator, over views. A kernel returns output ids
// (or the positions of its input rows, for the operators that keep, reorder
// or pair rows) and knows nothing of ExecStats, metrics or spans: the
// native executor and the p-algebra wrap each kernel with the accounting
// they record. Each runs one loop on the calling thread; `governor`
// (nullable) is checked once as the row loop starts.

/// Positions of the rows of `view` satisfying `bound` (bound to
/// view.schema), in input order: one ViewPredicate pass.
std::vector<uint32_t> FilterRows(const RowView& view, const Expr& bound,
                                 const QueryGovernor* governor);

/// Projects `view` onto `columns`, implicitly keeping the key columns
/// (ResolveProjection); only the column map changes.
Status ProjectView(const std::vector<std::string>& columns, RowView* view);

/// The matched input positions of a join, in output order.
struct JoinPositions {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;  // Empty for a semi join.
};

/// Inner join (left ids then right ids per output row) or, with `semi`,
/// the left rows with at least one match. `bound` is the predicate bound to
/// left.schema ++ right.schema. With `build` it is a hash join probing the
/// build side with each left row's key; else a nested loop. Candidate
/// pairs the key match does not decide are tested a batch at a time by the
/// predicate compiled over both views' columns. Output order: left order,
/// then each left row's matches in ascending right position. The probe
/// collects the matched positions and the output ids are written from them
/// in one pass; `positions` (nullable) then receives those arrays by move.
/// The nested loop also ticks `governor` per candidate pair.
RowView JoinRows(const RowView& left, const RowView& right, const Expr& bound,
                 bool semi, const JoinBuild* build,
                 const QueryGovernor* governor, JoinPositions* positions);

/// One output row of a set operation: the left position, or kNoRow for a
/// right-only union row, and the position of the equal right row (kNoRow
/// when the right side has none).
using SetMatch = std::pair<uint32_t, uint32_t>;

/// UNION / INTERSECT / EXCEPT with duplicate elimination, first occurrence
/// wins: union keeps left rows, then right rows not on the left; intersect
/// and except keep left rows by membership on the right. Rows compare by
/// value through the views.
StatusOr<std::vector<SetMatch>> MatchSetOp(PlanKind kind, const RowView& left,
                                           const RowView& right,
                                           const QueryGovernor* governor);

/// The output view of MatchSetOp's matches: the left rows kept, or, for a
/// union with right-only rows, both inputs' kept rows gathered into one
/// owned column store.
RowView SetOpView(const RowView& left, const RowView& right,
                  const std::vector<SetMatch>& matches);

/// Positions of the first occurrence of each distinct row, in order.
std::vector<uint32_t> DistinctRows(const RowView& view,
                                   const QueryGovernor* governor);

/// Positions in ORDER BY `keys` order: a stable sort, ties broken on the
/// key columns ascending, so any LIMIT above it is deterministic.
StatusOr<std::vector<uint32_t>> SortRows(const RowView& view,
                                         const std::vector<SortKey>& keys);

}  // namespace prefdb

#endif  // PREFDB_ENGINE_ROW_VIEW_H_

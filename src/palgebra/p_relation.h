#ifndef PREFDB_PALGEBRA_P_RELATION_H_
#define PREFDB_PALGEBRA_P_RELATION_H_

#include <string>
#include <vector>

#include "engine/row_view.h"
#include "prefs/score_conf.h"
#include "types/relation.h"

namespace prefdb {

/// A p-relation (paper Def. 2): a relation whose tuples carry score and
/// confidence. The relation is a row-id view (engine/row_view.h) — the
/// native executor's result, handed over without copying a value — and the
/// pairs are row-aligned: `pairs[i]` is the pair of the view's row i, ⟨⊥, 0⟩
/// for a tuple no preference has touched. Operators keep the two in step,
/// so a pair is found by row position, never by hashing a key. The paper's
/// pk-keyed score relation R_P (§VI) is built only where row identity is
/// lost (see score_relation.h). Values are copied out of the view once,
/// when a caller reads the answer's rows (ApplyFiltersAndProject).
struct PRelation {
  RowView view;
  std::vector<ScoreConf> pairs;

  PRelation() = default;
  /// Every tuple at ⟨⊥, 0⟩.
  explicit PRelation(RowView rows)
      : view(std::move(rows)), pairs(view.NumRows()) {}
  /// `row_pairs` must hold one pair per row of `rows`.
  PRelation(RowView rows, std::vector<ScoreConf> row_pairs)
      : view(std::move(rows)), pairs(std::move(row_pairs)) {}
  /// Views `relation`'s rows (converted into an owned column store), every
  /// tuple at ⟨⊥, 0⟩.
  explicit PRelation(const Relation& relation)
      : PRelation(RowView::Wrap(relation)) {}
  PRelation(const Relation& relation, std::vector<ScoreConf> row_pairs)
      : PRelation(RowView::Wrap(relation), std::move(row_pairs)) {}

  const Schema& schema() const { return view.schema; }
  const std::vector<size_t>& key_columns() const { return view.key_columns; }
  size_t NumRows() const { return view.NumRows(); }
  /// Copies the rows out of the view.
  Relation Gather() const { return view.Gather(); }

  std::string ToString(size_t max_rows = 20) const;
};

/// Materializes the p-relation as a plain relation with two appended
/// columns, `score` (DOUBLE; NULL when the pair is ⟨⊥, 0⟩) and `conf`
/// (DOUBLE): the scored form that ApplyFilter (filters.h) reads. Tests use
/// it as the reference for ApplyFilters, so it stays a separate loop.
/// Aborts when `input` is not row-aligned.
Relation ToScoredRelation(const PRelation& input);

}  // namespace prefdb

#endif  // PREFDB_PALGEBRA_P_RELATION_H_

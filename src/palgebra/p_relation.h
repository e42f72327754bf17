#ifndef PREFDB_PALGEBRA_P_RELATION_H_
#define PREFDB_PALGEBRA_P_RELATION_H_

#include <string>
#include <vector>

#include "palgebra/score_relation.h"
#include "types/relation.h"

namespace prefdb {

/// A p-relation (paper Def. 2): a relation whose tuples carry score and
/// confidence. The pairs are row-aligned: `pairs[i]` is the pair of
/// `rel.rows()[i]`, ⟨⊥, 0⟩ for a tuple no preference has touched. Operators
/// keep the two vectors in step, so a pair is found by row position, never
/// by hashing a key. The paper's pk-keyed score relation R_P (§VI) is built
/// from the pairs only where row identity is lost (ToScoreRelation; see
/// score_relation.h).
struct PRelation {
  Relation rel;
  std::vector<ScoreConf> pairs;

  PRelation() = default;
  /// Every tuple at ⟨⊥, 0⟩.
  explicit PRelation(Relation relation)
      : rel(std::move(relation)), pairs(rel.NumRows()) {}
  /// `row_pairs` must hold one pair per row of `relation`.
  PRelation(Relation relation, std::vector<ScoreConf> row_pairs)
      : rel(std::move(relation)), pairs(std::move(row_pairs)) {}
  /// Re-associates each row with its pair in `score_rel` by the row's key.
  PRelation(Relation relation, const ScoreRelation& score_rel);

  size_t NumRows() const { return rel.NumRows(); }

  /// The pk-keyed score relation R_P of the non-default pairs.
  ScoreRelation ToScoreRelation() const;

  std::string ToString(size_t max_rows = 20) const;
};

/// Materializes the p-relation as a plain relation with two appended
/// columns, `score` (DOUBLE; NULL when the pair is ⟨⊥, 0⟩) and `conf`
/// (DOUBLE): the scored form that ApplyFilter (filters.h) reads and that
/// query results take.
Relation ToScoredRelation(const PRelation& input);

}  // namespace prefdb

#endif  // PREFDB_PALGEBRA_P_RELATION_H_

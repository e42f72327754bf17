#ifndef PREFDB_PALGEBRA_SCORE_RELATION_H_
#define PREFDB_PALGEBRA_SCORE_RELATION_H_

#include <string>
#include <unordered_map>

#include "prefs/agg_func.h"
#include "prefs/score_conf.h"
#include "storage/row_view.h"
#include "types/tuple.h"

namespace prefdb {

/// The paper's pk-keyed score relation (§VI, "Implementing p-relations"):
/// for a relation R with primary key pk, R_P(pk, score, conf) holds the
/// score/confidence pairs of tuples with *non-default* pairs only, so
/// |R_P| <= |R|. A lookup miss yields the default pair ⟨⊥, 0⟩.
///
/// Keys are tuples of the owning relation's key-column values, in the
/// relation's canonical key order. Inside an operator pipeline scores are
/// row-aligned (PRelation::pairs); R_P is built only where row identity is
/// lost and tuples must be re-associated with their pairs by key: the
/// plug-ins' merge of rewritten-query rows, and a GBU region temp whose
/// region inputs cannot be told apart from others, whose rows no single id
/// names (a many-to-many join), or whose rows a union copied into a new
/// source.
/// Both probe it with a ViewKey, hashing the view row's key columns in
/// place.
class ScoreRelation {
 public:
  ScoreRelation() = default;

  /// The pair for `key`; ⟨⊥, 0⟩ if absent.
  const ScoreConf& Lookup(const Tuple& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? kDefault : it->second;
  }

  /// The pair for the key of a view row, read in place; ⟨⊥, 0⟩ if absent.
  const ScoreConf& Lookup(const ViewKey& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? kDefault : it->second;
  }

  /// Sets the pair for `key`. Default pairs are not stored (and erase any
  /// existing entry), maintaining the non-default-only invariant.
  void Set(const Tuple& key, const ScoreConf& pair) {
    if (pair.IsDefault()) {
      map_.erase(key);
    } else {
      map_[key] = pair;
    }
  }

  /// Folds `pair` into the entry under the key of a row: the entry becomes
  /// CombineCounted(agg, entry, pair). An existing entry is updated through
  /// one hash probe; the key is copied only when a new entry is inserted.
  void Fold(const ViewKey& key, const ScoreConf& pair,
            const AggregateFunction& agg) {
    auto it = map_.find(key);
    ScoreConf combined =
        CombineCounted(agg, it == map_.end() ? kDefault : it->second, pair);
    if (it == map_.end()) {
      if (combined.IsDefault()) return;
      Tuple copy;
      copy.reserve(key.columns.size());
      for (size_t c : key.columns) copy.emplace_back(key.view.View(key.row, c));
      map_.emplace(std::move(copy), combined);
    } else if (combined.IsDefault()) {
      map_.erase(it);
    } else {
      it->second = combined;
    }
  }

  /// Number of non-default entries (the paper's |R_P|).
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  std::string ToString(size_t max_entries = 20) const;

 private:
  // TupleHash / TupleEq, also over view keys.
  struct KeyHash : TupleHash {
    using TupleHash::operator();
    size_t operator()(const ViewKey& key) const { return ViewKeyHash(key); }
  };
  struct KeyEq : TupleEq {
    using TupleEq::operator();
    bool operator()(const ViewKey& a, const Tuple& b) const {
      return ViewKeyEquals(a, b);
    }
    bool operator()(const Tuple& a, const ViewKey& b) const {
      return ViewKeyEquals(b, a);
    }
  };

  static const ScoreConf kDefault;
  std::unordered_map<Tuple, ScoreConf, KeyHash, KeyEq> map_;
};

}  // namespace prefdb

#endif  // PREFDB_PALGEBRA_SCORE_RELATION_H_

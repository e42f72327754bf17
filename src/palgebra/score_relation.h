#ifndef PREFDB_PALGEBRA_SCORE_RELATION_H_
#define PREFDB_PALGEBRA_SCORE_RELATION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "prefs/agg_func.h"
#include "prefs/score_conf.h"
#include "storage/row_view.h"

namespace prefdb {

/// The paper's pk-keyed score relation (§VI, "Implementing p-relations"):
/// for a relation R with primary key pk, R_P(pk, score, conf) holds the
/// score/confidence pairs of tuples with *non-default* pairs only, so
/// |R_P| <= |R|. A lookup miss yields the default pair ⟨⊥, 0⟩.
///
/// Inside an operator pipeline scores are row-aligned (PRelation::pairs);
/// R_P is built only where rows must be re-associated with their pairs by
/// key: the plug-ins' merge of rewritten-query rows, and GBU's region temps
/// whose rows no id finds (RecombineScores).
///
/// Keys are read from view rows (Keys) and stored as int64 codes in one
/// open-addressing table over flat arrays: per entry a row of codes, a
/// null mask, the hash and the pair. Each key column's code is fixed for
/// the table by every view declared at construction:
///   * kInt in every view: the value;
///   * one kDict TypedColumn read by every view: its dictionary code;
///   * otherwise (kDouble/kArena/kValue, or views over different stores,
///     such as a union's gathered rows): an id interned by Value equality,
///     so Int(1) and Double(1.0) share one.
/// A NULL cell sets its bit of the null mask, so NULL matches NULL (as
/// Tuple equality does). Keys are copied as codes: no view is referenced
/// after a call returns, so a view may be freed once it has been folded.
class ScoreRelation {
 public:
  static constexpr size_t kMaxKeyColumns = 64;

  /// Where the key of a view's rows is read: `columns` of `view`, in the
  /// relation's canonical key order. A call that reads through it needs
  /// the view, and the stores it pins, unchanged until it returns.
  class Keys {
   public:
    Keys(const RowView& view, const std::vector<size_t>& columns);

   private:
    friend class ScoreRelation;
    const RowView* view_;
    // Per key column: the view input whose id indexes it, and the column.
    std::vector<std::pair<uint32_t, const TypedColumn*>> columns_;
  };

  /// An empty R_P over the keys of `sources`, every view that will fold
  /// into or probe it (the same number of key columns, at most
  /// kMaxKeyColumns), sized to hold `expected` entries without growing.
  explicit ScoreRelation(const std::vector<Keys>& sources, size_t expected = 0);

  /// The pair for the key of row `row`; ⟨⊥, 0⟩ if absent.
  const ScoreConf& Lookup(const Keys& keys, size_t row) const;
  /// The pair of every row of the Keys' view, in row order.
  std::vector<ScoreConf> Align(const Keys& keys) const;

  /// Sets the pair for the key of row `row`. Default pairs are not stored
  /// (and erase any existing entry), maintaining the non-default-only
  /// invariant.
  void Set(const Keys& keys, size_t row, const ScoreConf& pair) {
    Store(keys, row, pair, nullptr);
  }
  /// Folds `pair` into the entry under the key of row `row`: the entry
  /// becomes CombineCounted(agg, entry, pair), a default result erasing it.
  void Fold(const Keys& keys, size_t row, const ScoreConf& pair,
            const AggregateFunction& agg) {
    Store(keys, row, pair, &agg);
  }

  /// Number of non-default entries (the paper's |R_P|).
  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// "keys=codes entries=N", or "keys=interned entries=N" when some key
  /// column is interned: the detail of the spans that fold and align.
  std::string Describe() const;
  /// Entries by their key codes (NULL for a NULL cell).
  std::string ToString(size_t max_entries = 20) const;

 private:
  enum class Code : uint8_t { kInt, kDict, kInterned };
  // Interned values, probed by a cell's ValueView: a lookup copies nothing.
  static ValueView ViewOf(const Value& v) { return v.view(); }
  static ValueView ViewOf(const ValueView& v) { return v; }
  struct InternHash {
    using is_transparent = void;
    template <class T>
    size_t operator()(const T& v) const { return ViewOf(v).Hash(); }
  };
  struct InternEq {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const { return ViewOf(a) == ViewOf(b); }
  };
  using InternMap = std::unordered_map<Value, int64_t, InternHash, InternEq>;
  static constexpr uint32_t kEmpty = UINT32_MAX;

  // Encodes the key of row `row` into `key`, `*nulls` and `*hash`,
  // interning new values into `intern` (this table's map). With a null
  // `intern`, false when a value was never interned: no entry has the key.
  bool Encode(const Keys& keys, size_t row, InternMap* intern, int64_t* key,
              uint64_t* nulls, size_t* hash) const;
  // The slot holding the entry with this key, or the empty slot ending its
  // probe sequence.
  size_t Find(const int64_t* key, uint64_t nulls, size_t hash) const;
  void Store(const Keys& keys, size_t row, const ScoreConf& pair,
             const AggregateFunction* agg);

  static const ScoreConf kDefault;
  size_t width_;
  std::vector<Code> code_;       // Per key column.
  std::vector<uint32_t> slots_;  // Entry index, or kEmpty.
  std::vector<int64_t> keys_;    // width_ codes per entry.
  std::vector<uint64_t> nulls_;  // Per entry: bit k set, column k is NULL.
  std::vector<size_t> hashes_;
  std::vector<ScoreConf> pairs_;  // A default pair marks an erased entry.
  size_t live_ = 0;
  InternMap interned_;
};

}  // namespace prefdb

#endif  // PREFDB_PALGEBRA_SCORE_RELATION_H_

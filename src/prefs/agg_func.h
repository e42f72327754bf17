#ifndef PREFDB_PREFS_AGG_FUNC_H_
#define PREFDB_PREFS_AGG_FUNC_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "prefs/score_conf.h"

namespace prefdb {

/// An aggregate function F : ⟨S,C⟩ × ⟨S,C⟩ → ⟨S,C⟩ combining two
/// score/confidence pairs (paper Def. 3).
///
/// Contract (enforced by the property tests in tests/prefs):
///   * associative:  F(F(a,b),c) == F(a,F(b,c))
///   * commutative:  F(a,b) == F(b,a)
///   * identity:     F(⟨⊥,0⟩, x) == x  and  F(⟨⊥,0⟩, ⟨⊥,0⟩) == ⟨⊥,0⟩
///
/// Associativity and commutativity are what let the optimizer reorder
/// prefer operators (Prop. 4.3) and push them across binary operators
/// (Prop. 4.4) without changing query answers.
class AggregateFunction {
 public:
  virtual ~AggregateFunction() = default;

  /// Combines two pairs.
  virtual ScoreConf Combine(const ScoreConf& a, const ScoreConf& b) const = 0;

  /// Stable registry name ("wsum", "maxconf", ...).
  virtual std::string_view name() const = 0;

  /// Folds a sequence of pairs left-to-right (well-defined in any order by
  /// the contract above).
  ScoreConf CombineAll(const std::vector<ScoreConf>& pairs) const;
};

/// The paper's F_S: confidence-weighted average of scores; the combined
/// confidence is the *sum* of the input confidences, so it records how much
/// total evidence supports the tuple. Associative because the output
/// confidence carries the accumulated weight.
class FSum final : public AggregateFunction {
 public:
  ScoreConf Combine(const ScoreConf& a, const ScoreConf& b) const override;
  std::string_view name() const override { return "wsum"; }
};

/// The paper's F_max: the input pair with the highest confidence wins.
/// Ties are broken toward the higher score (then the pairs are identical),
/// which keeps the operation associative and commutative.
class FMaxConf final : public AggregateFunction {
 public:
  ScoreConf Combine(const ScoreConf& a, const ScoreConf& b) const override;
  std::string_view name() const override { return "maxconf"; }
};

/// Extension: the pair with the highest *score* wins ("optimistic" reading).
/// Ties broken toward the higher confidence.
class FMaxScore final : public AggregateFunction {
 public:
  ScoreConf Combine(const ScoreConf& a, const ScoreConf& b) const override;
  std::string_view name() const override { return "maxscore"; }
};

/// Extension: probabilistic (noisy-or) combination,
/// S = 1 - (1-S_a)(1-S_b) over scores clamped to [0,1]; confidences sum.
/// Models independent positive evidence.
class FNoisyOr final : public AggregateFunction {
 public:
  ScoreConf Combine(const ScoreConf& a, const ScoreConf& b) const override;
  std::string_view name() const override { return "noisyor"; }
};

/// CombineCounted without the inline identity cases: calls agg.Combine for
/// any two pairs.
ScoreConf CombineCountedKnown(const AggregateFunction& agg, const ScoreConf& a,
                              const ScoreConf& b);

/// Combines two pairs with `agg` and maintains the orthogonal match count:
/// the result (if not the identity) carries count(a) + count(b). Every
/// operator that merges score/confidence pairs routes through this helper,
/// so "satisfies at least n preferences" filtering (paper §V) is available
/// regardless of the aggregate function in use.
///
/// ⟨⊥, 0⟩ is every aggregate's identity and counts 0, so a default pair on
/// either side returns the other pair inline, exactly as the out-of-line
/// CombineCountedKnown would; only two known pairs reach the virtual
/// Combine.
inline ScoreConf CombineCounted(const AggregateFunction& agg,
                                const ScoreConf& a, const ScoreConf& b) {
  if (a.IsDefault()) return b;
  if (b.IsDefault()) return a;
  return CombineCountedKnown(agg, a, b);
}

/// Looks up an aggregate function by registry name (case-insensitive).
/// Returned pointer has static storage duration.
StatusOr<const AggregateFunction*> GetAggregateFunction(const std::string& name);

/// All registered aggregate functions (for parameterized tests and docs).
std::vector<const AggregateFunction*> AllAggregateFunctions();

}  // namespace prefdb

#endif  // PREFDB_PREFS_AGG_FUNC_H_

#ifndef PREFDB_PREFS_PREFERENCE_H_
#define PREFDB_PREFS_PREFERENCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "prefs/scoring.h"

namespace prefdb {

/// The membership part of a membership preference (the paper's p_7:
/// "award-winning movies are preferred", defined on MOVIES ⋉ AWARDS).
/// A tuple r of the target relation is affected iff some tuple m of
/// `member_relation` has m.`member_column` = r.`local_column`. Membership
/// is part of the *conditional* side of the preference: it selects which
/// tuples are scored, it never filters tuples out of the answer.
struct MembershipSpec {
  std::string member_relation;
  std::string local_column;   // Column of the preference's target relation.
  std::string member_column;  // Column of member_relation.
};

class Preference;
/// Preferences are immutable after construction and freely shared between
/// plan nodes, queries and strategies.
using PreferencePtr = std::shared_ptr<const Preference>;

/// A preference p[R] = (σ_φ, S, C) (paper Def. 1):
///   * `condition`  — the conditional part σ_φ: a *soft* constraint that
///     selects which tuples the preference affects. It never filters tuples
///     out of a query answer.
///   * `scoring`    — the scoring part S, evaluated on affected tuples.
///   * `confidence` — the degree of certainty C in [0, 1]: 1 for explicit
///     user statements, lower for preferences learnt from behaviour.
///
/// `relations` names the relation(s) the preference is defined over — one
/// name for single-relation preferences (the paper's p_1..p_4), several for
/// preferences over product relations (the paper's p_6 on MOVIES × GENRES,
/// or the membership preference p_7 on MOVIES ⋉ AWARDS). The query layer
/// uses this to decide where the corresponding prefer operator λ_p may be
/// placed in a plan.
class Preference {
 public:
  Preference(std::string name, std::vector<std::string> relations,
             ExprPtr condition, ScoringFunction scoring, double confidence);

  /// An atomic preference (paper §III): exactly one tuple of `relation`,
  /// identified by `key_column` = `key`, scored `score` with full confidence
  /// by default (the paper's p_1/p_2: explicit user ratings).
  static PreferencePtr Atomic(const std::string& relation,
                              const std::string& key_column, Value key,
                              double score, double confidence = 1.0);

  /// A generic single-relation preference.
  static PreferencePtr Generic(std::string name, std::string relation,
                               ExprPtr condition, ScoringFunction scoring,
                               double confidence);

  /// A generic preference over a product of relations (multi-relational).
  static PreferencePtr MultiRelational(std::string name,
                                       std::vector<std::string> relations,
                                       ExprPtr condition, ScoringFunction scoring,
                                       double confidence);

  /// A membership preference (the paper's p_7): tuples of `relation` that
  /// join with `membership.member_relation` are preferred. `condition` may
  /// further restrict the affected tuples (pass a TRUE literal for σ_true).
  static PreferencePtr Membership(std::string name, std::string relation,
                                  MembershipSpec membership, ExprPtr condition,
                                  ScoringFunction scoring, double confidence);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& relations() const { return relations_; }
  const Expr& condition() const { return *condition_; }
  const ScoringFunction& scoring() const { return scoring_; }
  double confidence() const { return confidence_; }

  /// True if the preference targets more than one relation.
  bool IsMultiRelational() const { return relations_.size() > 1; }

  /// The membership spec, or nullptr for ordinary preferences.
  const MembershipSpec* membership() const {
    return has_membership_ ? &membership_ : nullptr;
  }

  /// Deep copies of the condition / scoring for evaluation (binding mutates
  /// expressions, and Preference instances are shared and immutable).
  ExprPtr CloneCondition() const { return condition_->Clone(); }
  ScoringFunction CloneScoring() const { return scoring_.Clone(); }

  /// All columns referenced by the condition or scoring parts.
  std::vector<std::string> ReferencedColumns() const;

  /// True if the preference can be evaluated over `schema`: its condition
  /// and scoring parts bind and its membership's local column resolves.
  bool BindsTo(const Schema& schema) const;

  /// A stable hash of the preference's *content*: target relations,
  /// conditional part, scoring part, confidence and membership spec — but
  /// not the name, so a renamed (or anonymous re-stated) preference keeps
  /// its identity. This is what the query cache keys on: editing one
  /// preference of a profile changes only its own hash, so only cache
  /// entries depending on the edited preference are invalidated.
  /// Computed on first use: only the cache and profiles read it, and most
  /// parsed preferences never reach either. Thread-safe, since shared
  /// preferences are read from the plug-ins' pool tasks: a race computes
  /// the same value twice.
  uint64_t ContentHash() const;

  /// Renders "p[GENRES] = (genre = 'Comedy', 1.0, 0.8)".
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<std::string> relations_;
  ExprPtr condition_;
  ScoringFunction scoring_;
  double confidence_;
  bool has_membership_ = false;
  MembershipSpec membership_;
  mutable std::atomic<uint64_t> content_hash_{0};  // 0: not computed yet.
};

}  // namespace prefdb

#endif  // PREFDB_PREFS_PREFERENCE_H_

#include "prefs/preference.h"

#include <algorithm>

#include "common/hash.h"
#include "common/string_util.h"
#include "expr/expr_builder.h"

namespace prefdb {

Preference::Preference(std::string name, std::vector<std::string> relations,
                       ExprPtr condition, ScoringFunction scoring,
                       double confidence)
    : name_(std::move(name)),
      relations_(std::move(relations)),
      condition_(std::move(condition)),
      scoring_(std::move(scoring)),
      confidence_(std::clamp(confidence, 0.0, 1.0)) {}

uint64_t Preference::ContentHash() const {
  if (uint64_t cached = content_hash_.load(std::memory_order_relaxed)) {
    return cached;
  }
  // Conditional and scoring parts hash via their canonical rendering
  // (Expr::ToString is deterministic and injective up to semantics the
  // evaluator distinguishes). Relation names are case-normalized like the
  // catalog; the preference *name* is deliberately excluded.
  uint64_t h = kFnvOffsetBasis;
  h = FnvMix(h, uint64_t{relations_.size()});
  for (const std::string& rel : relations_) h = FnvMix(h, ToUpper(rel));
  h = FnvMix(h, condition_->ToString());
  h = FnvMix(h, scoring_.ToString());
  h = FnvMix(h, confidence_);
  h = FnvMix(h, uint64_t{has_membership_ ? 1u : 0u});
  if (has_membership_) {
    h = FnvMix(h, ToUpper(membership_.member_relation));
    h = FnvMix(h, membership_.local_column);
    h = FnvMix(h, membership_.member_column);
  }
  content_hash_.store(h, std::memory_order_relaxed);
  return h;
}

PreferencePtr Preference::Atomic(const std::string& relation,
                                 const std::string& key_column, Value key,
                                 double score, double confidence) {
  std::string name =
      StrFormat("atomic[%s.%s=%s]", relation.c_str(), key_column.c_str(),
                key.ToString().c_str());
  return std::make_shared<Preference>(
      std::move(name), std::vector<std::string>{relation},
      eb::Eq(eb::Col(key_column), std::make_unique<LiteralExpr>(std::move(key))),
      ScoringFunction::Constant(score), confidence);
}

PreferencePtr Preference::Generic(std::string name, std::string relation,
                                  ExprPtr condition, ScoringFunction scoring,
                                  double confidence) {
  return std::make_shared<Preference>(
      std::move(name), std::vector<std::string>{std::move(relation)},
      std::move(condition), std::move(scoring), confidence);
}

PreferencePtr Preference::MultiRelational(std::string name,
                                          std::vector<std::string> relations,
                                          ExprPtr condition,
                                          ScoringFunction scoring,
                                          double confidence) {
  return std::make_shared<Preference>(std::move(name), std::move(relations),
                                      std::move(condition), std::move(scoring),
                                      confidence);
}

PreferencePtr Preference::Membership(std::string name, std::string relation,
                                     MembershipSpec membership, ExprPtr condition,
                                     ScoringFunction scoring, double confidence) {
  auto pref = std::make_shared<Preference>(
      std::move(name),
      std::vector<std::string>{relation, membership.member_relation},
      std::move(condition), std::move(scoring), confidence);
  pref->has_membership_ = true;
  pref->membership_ = std::move(membership);
  return pref;
}

std::vector<std::string> Preference::ReferencedColumns() const {
  std::vector<std::string> cols;
  condition_->CollectColumns(&cols);
  scoring_.CollectColumns(&cols);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

bool Preference::BindsTo(const Schema& schema) const {
  return ExprBindsTo(*condition_, schema) &&
         ExprBindsTo(scoring_.expr(), schema) &&
         (!has_membership_ || schema.HasColumn(membership_.local_column));
}

std::string Preference::ToString() const {
  return StrFormat("%s[%s] = (%s, %s, %.2f)", name_.c_str(),
                   StrJoin(relations_, " x ").c_str(),
                   condition_->ToString().c_str(), scoring_.ToString().c_str(),
                   confidence_);
}

}  // namespace prefdb

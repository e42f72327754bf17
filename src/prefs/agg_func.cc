#include "prefs/agg_func.h"

#include <algorithm>

#include "common/string_util.h"

namespace prefdb {

ScoreConf AggregateFunction::CombineAll(const std::vector<ScoreConf>& pairs) const {
  ScoreConf acc;  // Identity.
  for (const ScoreConf& p : pairs) acc = CombineCounted(*this, acc, p);
  return acc;
}

ScoreConf FSum::Combine(const ScoreConf& a, const ScoreConf& b) const {
  if (a.IsDefault()) return b;
  if (b.IsDefault()) return a;
  double total_conf = a.conf() + b.conf();
  // Two pairs carrying zero total evidence have no weight to average by;
  // dividing would poison every downstream combine with NaN. Zero-evidence
  // inputs combine to the identity ("still no knowledge"), which keeps F_S
  // total without breaking the identity law. ScoreConf::Known normalizes
  // conf <= 0 to the identity, so this guard can only trigger on pairs
  // built outside that invariant — it makes the NaN impossible rather
  // than merely unreachable.
  if (total_conf <= 0.0) return ScoreConf::Identity();
  double score = (a.conf() * a.score() + b.conf() * b.score()) / total_conf;
  return ScoreConf::Known(score, total_conf);
}

ScoreConf FMaxConf::Combine(const ScoreConf& a, const ScoreConf& b) const {
  if (a.IsDefault()) return b;
  if (b.IsDefault()) return a;
  if (a.conf() != b.conf()) return a.conf() > b.conf() ? a : b;
  // Equal confidence: break the tie on score so the result is independent
  // of argument order (required for commutativity/associativity).
  return a.score() >= b.score() ? a : b;
}

ScoreConf FMaxScore::Combine(const ScoreConf& a, const ScoreConf& b) const {
  if (a.IsDefault()) return b;
  if (b.IsDefault()) return a;
  if (a.score() != b.score()) return a.score() > b.score() ? a : b;
  return a.conf() >= b.conf() ? a : b;
}

ScoreConf FNoisyOr::Combine(const ScoreConf& a, const ScoreConf& b) const {
  if (a.IsDefault()) return b;
  if (b.IsDefault()) return a;
  double sa = std::clamp(a.score(), 0.0, 1.0);
  double sb = std::clamp(b.score(), 0.0, 1.0);
  double score = 1.0 - (1.0 - sa) * (1.0 - sb);
  return ScoreConf::Known(score, a.conf() + b.conf());
}

ScoreConf CombineCountedKnown(const AggregateFunction& agg, const ScoreConf& a,
                              const ScoreConf& b) {
  ScoreConf combined = agg.Combine(a, b);
  if (combined.IsDefault()) return combined;
  return combined.WithCount(a.count() + b.count());
}

namespace {

// Function-local static registry (intentionally leaked: registry entries
// live for the whole program and must not run destructors at exit).
const std::vector<const AggregateFunction*>& Registry() {
  static const auto& registry = *new std::vector<const AggregateFunction*>{
      new FSum, new FMaxConf, new FMaxScore, new FNoisyOr};
  return registry;
}

}  // namespace

StatusOr<const AggregateFunction*> GetAggregateFunction(const std::string& name) {
  std::string lower = ToLower(name);
  for (const AggregateFunction* f : Registry()) {
    if (lower == f->name()) return f;
  }
  return Status::NotFound("unknown aggregate function: " + name);
}

std::vector<const AggregateFunction*> AllAggregateFunctions() {
  return Registry();
}

}  // namespace prefdb

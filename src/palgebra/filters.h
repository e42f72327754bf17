#ifndef PREFDB_PALGEBRA_FILTERS_H_
#define PREFDB_PALGEBRA_FILTERS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "palgebra/p_relation.h"

namespace prefdb {

/// Which of the two preference dimensions a filter targets.
enum class FilterTarget { kScore, kConf };

/// Tuple-filtering strategies (paper §V). Preference *evaluation* computes
/// scores and confidences without disqualifying tuples; *filtering*
/// conceptually follows it and decides what to return: the top-k by score
/// (RankSQL-style), only sufficiently credible tuples (confidence
/// thresholds), everything ranked, or the tuples not dominated in the
/// (score, confidence) plane (winnow-style serendipity: "may be liked,
/// lower confidence").
struct FilterSpec {
  enum class Kind {
    kTopK,         // top(k, score|conf): order by target desc, keep k.
    kThreshold,    // σ_{target >= τ} (or > τ).
    kRankAll,      // order all results by score desc (conf breaks ties).
    kNotDominated, // 2-d skyline over (score, conf).
    kMinMatches    // keep tuples matched by at least k preferences (§V).
  };

  Kind kind = Kind::kRankAll;
  FilterTarget target = FilterTarget::kScore;  // kTopK / kThreshold.
  size_t k = 10;                               // kTopK.
  bool strict = false;                         // kThreshold: > vs >=.
  double threshold = 0.0;                      // kThreshold.

  static FilterSpec TopK(size_t k, FilterTarget target = FilterTarget::kScore);
  static FilterSpec Threshold(FilterTarget target, double value,
                              bool strict = false);
  static FilterSpec RankAll();
  static FilterSpec NotDominated();
  static FilterSpec MinMatches(size_t k);

  std::string ToString() const;
};

/// Applies one filter to a scored relation (a relation with trailing
/// `score` and `conf` columns, as produced by ToScoredRelation). Tuples
/// with unknown score (NULL) rank below every known score and fail any
/// score threshold. Ranking filters order by (target desc, the other
/// dimension desc, key columns asc) with a stable sort.
///
/// This is the reference definition of the filters: ApplyFilters computes
/// the same relation without building the scored form first, and
/// filters_test checks the two against each other.
StatusOr<Relation> ApplyFilter(const Relation& scored, const FilterSpec& spec);

/// Applies `specs` in order and returns the surviving tuples in scored form.
/// kMinMatches specs are applied first (the match count lives in the pairs,
/// not in the scored columns). Equal to folding ApplyFilter over
/// ToScoredRelation(FilterByMinMatches(input, ...)), but the filters pick
/// and order row indices — TOP k by a partial sort — and the result is
/// late-materialized over a copy of `input` (see ApplyFiltersAndProject).
StatusOr<Relation> ApplyFilters(const PRelation& input,
                                const std::vector<FilterSpec>& specs);

/// ApplyFilters, emitting each surviving row projected onto
/// `output_columns` followed by `score` and `conf` (resolved against the
/// scored schema); empty `output_columns` keeps every column. What a
/// session returns as the query result.
///
/// The result is late-materialized (types/relation.h): it holds `input`,
/// the survivors' row indices in rank order and the output columns, and
/// copies no value. Its rows are built from the view and the pairs when a
/// caller first reads rows(), which adds their number to `rows_built`
/// (nullable; pref.exec.rows_gathered for a session). `input`'s view pins
/// the tables and stores it reads, so the result stays readable after they
/// leave the catalog or the cache.
///
/// The ranking runs in a `Rank` child of `span`; each ranking filter
/// appends which ranking ran to `span`'s own detail (`rank=...`,
/// DESIGN.md §3).
StatusOr<Relation> ApplyFiltersAndProject(
    PRelation input, const std::vector<FilterSpec>& specs,
    const std::vector<std::string>& output_columns, obs::Span* span = nullptr,
    std::shared_ptr<obs::Counter> rows_built = nullptr);

/// Keeps the tuples whose pair was contributed by at least `min_matches`
/// preference applications (the paper's "satisfy a minimum number of
/// preferences" strategy, §V).
PRelation FilterByMinMatches(const PRelation& input, size_t min_matches);

}  // namespace prefdb

#endif  // PREFDB_PALGEBRA_FILTERS_H_

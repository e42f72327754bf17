#include "palgebra/filters.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "common/string_util.h"

namespace prefdb {

FilterSpec FilterSpec::TopK(size_t k, FilterTarget target) {
  FilterSpec spec;
  spec.kind = Kind::kTopK;
  spec.k = k;
  spec.target = target;
  return spec;
}

FilterSpec FilterSpec::Threshold(FilterTarget target, double value, bool strict) {
  FilterSpec spec;
  spec.kind = Kind::kThreshold;
  spec.target = target;
  spec.threshold = value;
  spec.strict = strict;
  return spec;
}

FilterSpec FilterSpec::RankAll() {
  FilterSpec spec;
  spec.kind = Kind::kRankAll;
  return spec;
}

FilterSpec FilterSpec::NotDominated() {
  FilterSpec spec;
  spec.kind = Kind::kNotDominated;
  return spec;
}

FilterSpec FilterSpec::MinMatches(size_t k) {
  FilterSpec spec;
  spec.kind = Kind::kMinMatches;
  spec.k = k;
  return spec;
}

std::string FilterSpec::ToString() const {
  const char* target_name = target == FilterTarget::kScore ? "score" : "conf";
  switch (kind) {
    case Kind::kTopK:
      return StrFormat("top(%zu, %s)", k, target_name);
    case Kind::kThreshold:
      return StrFormat("%s %s %.3f", target_name, strict ? ">" : ">=", threshold);
    case Kind::kRankAll:
      return "ranked";
    case Kind::kNotDominated:
      return "not-dominated";
    case Kind::kMinMatches:
      return StrFormat("matches >= %zu", k);
  }
  return "?";
}

namespace {

// The sort value of a tuple for `target`: unknown scores (NULL) rank as
// -infinity so they fall below every known score.
double TargetValue(const Tuple& row, size_t score_idx, size_t conf_idx,
                   FilterTarget target) {
  if (target == FilterTarget::kConf) {
    const Value& v = row[conf_idx];
    return v.is_numeric() ? v.NumericValue() : 0.0;
  }
  const Value& v = row[score_idx];
  if (!v.is_numeric()) return -std::numeric_limits<double>::infinity();
  return v.NumericValue();
}

Status FindScoreColumns(const Schema& scored, size_t* score_idx,
                        size_t* conf_idx) {
  ASSIGN_OR_RETURN(*score_idx, scored.FindColumn("score"));
  ASSIGN_OR_RETURN(*conf_idx, scored.FindColumn("conf"));
  return Status::OK();
}

// Sorts rows by (primary desc, secondary desc, key asc) where
// primary/secondary are score/conf values. The trailing key comparison
// makes the order — and therefore any top-k cutoff — fully deterministic,
// independent of the row order the executing strategy happened to produce.
void SortScored(Relation* rel, size_t score_idx, size_t conf_idx,
                FilterTarget primary) {
  FilterTarget secondary =
      primary == FilterTarget::kScore ? FilterTarget::kConf : FilterTarget::kScore;
  const std::vector<size_t>& keys = rel->key_columns();
  std::stable_sort(
      rel->mutable_rows()->begin(), rel->mutable_rows()->end(),
      [&](const Tuple& a, const Tuple& b) {
        double pa = TargetValue(a, score_idx, conf_idx, primary);
        double pb = TargetValue(b, score_idx, conf_idx, primary);
        if (pa != pb) return pa > pb;
        double sa = TargetValue(a, score_idx, conf_idx, secondary);
        double sb = TargetValue(b, score_idx, conf_idx, secondary);
        if (sa != sb) return sa > sb;
        for (size_t k : keys) {
          int c = a[k].Compare(b[k]);
          if (c != 0) return c < 0;
        }
        return false;
      });
}

}  // namespace

StatusOr<Relation> ApplyFilter(const Relation& scored, const FilterSpec& spec) {
  size_t score_idx = 0;
  size_t conf_idx = 0;
  RETURN_IF_ERROR(FindScoreColumns(scored.schema(), &score_idx, &conf_idx));
  Relation out = scored;

  switch (spec.kind) {
    case FilterSpec::Kind::kTopK: {
      SortScored(&out, score_idx, conf_idx, spec.target);
      if (out.NumRows() > spec.k) out.mutable_rows()->resize(spec.k);
      return out;
    }
    case FilterSpec::Kind::kThreshold: {
      Relation filtered(out.schema());
      filtered.set_key_columns(out.key_columns());
      for (Tuple& row : *out.mutable_rows()) {
        double v = TargetValue(row, score_idx, conf_idx, spec.target);
        bool pass = spec.strict ? v > spec.threshold : v >= spec.threshold;
        if (pass) filtered.AddRow(std::move(row));
      }
      return filtered;
    }
    case FilterSpec::Kind::kRankAll: {
      SortScored(&out, score_idx, conf_idx, FilterTarget::kScore);
      return out;
    }
    case FilterSpec::Kind::kMinMatches:
      return Status::InvalidArgument(
          "matches filters apply to p-relations; use ApplyFilters");
    case FilterSpec::Kind::kNotDominated: {
      // 2-d skyline over (score, conf), maximizing both: sort by score desc
      // (conf desc as tiebreak), then a tuple survives iff its conf exceeds
      // the best conf seen so far (equal (score, conf) duplicates survive
      // together, matching set semantics of winnow).
      SortScored(&out, score_idx, conf_idx, FilterTarget::kScore);
      Relation skyline(out.schema());
      skyline.set_key_columns(out.key_columns());
      double best_conf = -std::numeric_limits<double>::infinity();
      double best_conf_score = 0.0;
      for (Tuple& row : *out.mutable_rows()) {
        double score = TargetValue(row, score_idx, conf_idx, FilterTarget::kScore);
        double conf = TargetValue(row, score_idx, conf_idx, FilterTarget::kConf);
        bool keep;
        if (conf > best_conf) {
          keep = true;
        } else if (conf == best_conf && score == best_conf_score) {
          keep = true;  // Exact duplicate of a skyline point.
        } else {
          keep = false;
        }
        if (keep) {
          if (conf > best_conf) {
            best_conf = conf;
            best_conf_score = score;
          }
          skyline.AddRow(std::move(row));
        }
      }
      return skyline;
    }
  }
  return Status::Internal("unknown filter kind");
}

PRelation FilterByMinMatches(const PRelation& input, size_t min_matches) {
  std::vector<uint32_t> kept;
  PRelation out;
  for (size_t i = 0; i < input.NumRows(); ++i) {
    if (input.pairs[i].count() >= min_matches) {
      kept.push_back(static_cast<uint32_t>(i));
      out.pairs.push_back(input.pairs[i]);
    }
  }
  out.view = input.view.Rows(kept);
  return out;
}

namespace {

// TargetValue of the scored form, read straight from a pair: the `score`
// column is NULL (ranked as -infinity) for ⟨⊥, 0⟩, `conf` is always set.
double PairTarget(const ScoreConf& pair, FilterTarget target) {
  if (target == FilterTarget::kConf) return pair.conf();
  return pair.has_score() ? pair.score()
                          : -std::numeric_limits<double>::infinity();
}

// A key column of a view, resolved once: its typed column and the input
// whose ids index it.
struct RankKey {
  const TypedColumn* column;
  size_t input;
};

// Value::Compare of key `key` at view rows a and b. Ties on the pairs are
// common, so a ranking's tie-break compares keys often: a kInt key compares
// its int64s and a kDict key its codes (NULL first), other layouts their
// typed cells.
int CompareKey(const RowView& view, const RankKey& key, uint32_t a, uint32_t b) {
  const TypedColumn& col = *key.column;
  const uint32_t ra = view.Id(a, key.input);
  const uint32_t rb = view.Id(b, key.input);
  if (col.layout() == ColumnLayout::kInt) {
    const bool na = col.NullBit(ra);
    const bool nb = col.NullBit(rb);
    if (na || nb) return static_cast<int>(nb) - static_cast<int>(na);
    const int64_t x = col.ints()[ra];
    const int64_t y = col.ints()[rb];
    return (x > y) - (x < y);
  }
  if (col.layout() == ColumnLayout::kDict) {
    // Codes follow string order; a NULL's code sorts last, NULL first.
    const uint32_t x = col.codes()[ra];
    const uint32_t y = col.codes()[rb];
    if (x == y) return 0;
    if (x == TypedColumn::kNullCode) return -1;
    if (y == TypedColumn::kNullCode) return 1;
    return x < y ? -1 : 1;
  }
  return col.View(ra).Compare(col.View(rb));
}

// The key columns of `p`, resolved.
std::vector<RankKey> RankKeys(const PRelation& p) {
  std::vector<RankKey> keys;
  for (size_t k : p.key_columns()) {
    keys.push_back({&p.view.Column(k), p.view.columns[k].input});
  }
  return keys;
}

// SortScored's order over row indices of `p`: primary desc, secondary desc,
// key columns asc, then row index asc. Rows that tie on (score, conf, key)
// tie under every filter's order, so no filter ever reorders them and the
// index tie-break reproduces the stable sort — while making the order
// strict, which lets TOP k use a partial sort. `keys` is RankKeys(p); the
// sorts copy the order, so it holds them by reference.
class RankOrder {
 public:
  RankOrder(const PRelation& p, const std::vector<RankKey>& keys,
            FilterTarget primary)
      : p_(p),
        keys_(keys),
        primary_(primary),
        secondary_(primary == FilterTarget::kScore ? FilterTarget::kConf
                                                   : FilterTarget::kScore) {}

  bool operator()(uint32_t a, uint32_t b) const {
    const ScoreConf& pa = p_.pairs[a];
    const ScoreConf& pb = p_.pairs[b];
    double x = PairTarget(pa, primary_);
    double y = PairTarget(pb, primary_);
    if (x != y) return x > y;
    x = PairTarget(pa, secondary_);
    y = PairTarget(pb, secondary_);
    if (x != y) return x > y;
    for (const RankKey& key : keys_) {
      int c = CompareKey(p_.view, key, a, b);
      if (c != 0) return c < 0;
    }
    return a < b;
  }

 private:
  const PRelation& p_;
  const std::vector<RankKey>& keys_;
  FilterTarget primary_;
  FilterTarget secondary_;
};

// One row packed for ranking: its pair's two targets, read once, its row
// index and where its key codes start.
struct RankEntry {
  double primary;
  double secondary;
  uint32_t row;
  uint32_t slot;
};

// RankOrder over packed entries: the key cells are int64 codes, `width`
// per entry at codes[slot * width], that compare as the cells do.
struct PackedOrder {
  const int64_t* codes;
  size_t width;

  bool operator()(const RankEntry& a, const RankEntry& b) const {
    if (a.primary != b.primary) return a.primary > b.primary;
    if (a.secondary != b.secondary) return a.secondary > b.secondary;
    const int64_t* x = codes + size_t{a.slot} * width;
    const int64_t* y = codes + size_t{b.slot} * width;
    for (size_t j = 0; j < width; ++j) {
      if (x[j] != y[j]) return x[j] < y[j];
    }
    return a.row < b.row;
  }
};

// Puts the smallest entries of [first, last) in order in [first, middle).
// A full sort is skipped when the range is in order; returns whether it was.
using EntryIt = std::vector<RankEntry>::iterator;
bool OrderPrefix(EntryIt first, EntryIt middle, EntryIt last, const PackedOrder& order) {
  if (middle < last) {
    std::partial_sort(first, middle, last, order);
    return false;
  }
  if (std::is_sorted(first, last, order)) return true;
  std::sort(first, last, order);
  return false;
}

const char* LayoutName(ColumnLayout layout) {
  static constexpr const char* kNames[] = {"int", "double", "dict", "arena", "value"};
  return kNames[static_cast<size_t>(layout)];
}

// Orders `ids` by RankOrder, keeps the first `limit` and says on `span`
// which ranking ran. A scored pair (ScoreConf::Known: finite score, conf
// above 0) ranks above the default pair ⟨⊥, 0⟩ under either target. So when
// `limit` keeps every scored row and every key is kInt or kDict, the scored
// rows' entries are sorted apart, and the default rows, which tie on both
// targets, follow in key order, as many as `limit` still needs. A key cell
// packs as an int64 code that compares as Value::Compare does: a kInt value
// behind a null flag (0 NULL, 1 not) if the column has NULLs, a kDict code
// plus one (0 NULL). Otherwise RankOrder sorts the indices: a TOP k the
// scored rows fill compares few rows past their pairs, and other layouts
// have no code.
void RankIds(const PRelation& p, FilterTarget primary, size_t limit,
             std::vector<uint32_t>* ids, obs::Span* span) {
  const std::vector<RankKey> keys = RankKeys(p);
  const TypedColumn* unpackable = nullptr;
  size_t width = 0;
  for (const RankKey& key : keys) {
    const ColumnLayout layout = key.column->layout();
    const bool packable = layout == ColumnLayout::kInt || layout == ColumnLayout::kDict;
    if (!packable) unpackable = key.column;
    width += layout == ColumnLayout::kInt && key.column->has_nulls() ? 2 : 1;
  }
  size_t num_scored = 0;
  for (uint32_t id : *ids) num_scored += p.pairs[id].IsDefault() ? 0 : 1;
  const size_t num_defaults = ids->size() - num_scored;

  if (unpackable != nullptr || limit < num_scored) {
    const RankOrder order(p, keys, primary);
    if (limit < ids->size()) {
      std::partial_sort(ids->begin(), ids->begin() + limit, ids->end(), order);
      ids->resize(limit);
    } else {
      std::sort(ids->begin(), ids->end(), order);
    }
    if (span == nullptr) return;
    obs::AppendDetail(
        span, unpackable != nullptr
                  ? StrFormat("rank=comparator(%s key)", LayoutName(unpackable->layout()))
                  : StrFormat("rank=top-k keys=%zu scored=%zu default=%zu",
                              keys.size(), num_scored, num_defaults));
    return;
  }

  // The scored rows' entries, then the default rows', each in `ids` order.
  const FilterTarget secondary =
      primary == FilterTarget::kScore ? FilterTarget::kConf : FilterTarget::kScore;
  std::vector<RankEntry> entries(ids->size());
  uint32_t next_scored = 0;
  uint32_t next_default = static_cast<uint32_t>(num_scored);
  for (uint32_t id : *ids) {
    const ScoreConf& pair = p.pairs[id];
    const uint32_t slot = pair.IsDefault() ? next_default++ : next_scored++;
    entries[slot] = {PairTarget(pair, primary), PairTarget(pair, secondary), id, slot};
  }
  // Only the entries that will be ordered get codes: the scored ones, and
  // the default ones when some of them are kept.
  const size_t from_defaults = std::min(limit - num_scored, num_defaults);
  const EntryIt tail = entries.begin() + num_scored;
  const EntryIt packed_end = from_defaults > 0 ? entries.end() : tail;
  std::vector<int64_t> codes;
  codes.reserve(static_cast<size_t>(packed_end - entries.begin()) * width);
  for (EntryIt e = entries.begin(); e != packed_end; ++e) {
    for (const RankKey& key : keys) {
      const TypedColumn& col = *key.column;
      const uint32_t r = p.view.Id(e->row, key.input);
      if (col.layout() == ColumnLayout::kDict) {
        const uint32_t c = col.codes()[r];
        codes.push_back(c == TypedColumn::kNullCode ? 0 : c + int64_t{1});
      } else if (col.has_nulls()) {
        codes.push_back(col.NullBit(r) ? 0 : 1);
        codes.push_back(col.ints()[r]);  // 0 for NULL.
      } else {
        codes.push_back(col.ints()[r]);
      }
    }
  }
  const PackedOrder order{codes.data(), width};
  OrderPrefix(entries.begin(), tail, tail, order);
  const bool in_order =
      from_defaults == 0 || OrderPrefix(tail, tail + from_defaults, entries.end(), order);
  ids->resize(num_scored + from_defaults);
  for (size_t i = 0; i < ids->size(); ++i) (*ids)[i] = entries[i].row;
  if (span == nullptr) return;
  obs::AppendDetail(
      span, StrFormat("rank=packed keys=%zu scored=%zu default=%zu defaults=%s",
                      keys.size(), num_scored, num_defaults,
                      from_defaults == 0 ? "skipped"
                      : in_order         ? "in-order"
                                         : "sorted"));
}

// One filter over the surviving row indices `ids` of `p`: ApplyFilter's
// semantics for the scored-form kinds, FilterByMinMatches' for kMinMatches.
// The ranking kinds say on `span` which ranking ran (RankIds).
Status FilterIndices(const PRelation& p, const FilterSpec& spec,
                     std::vector<uint32_t>* ids, obs::Span* span) {
  switch (spec.kind) {
    case FilterSpec::Kind::kTopK:
      RankIds(p, spec.target, spec.k, ids, span);
      return Status::OK();
    case FilterSpec::Kind::kThreshold: {
      std::erase_if(*ids, [&](uint32_t i) {
        double v = PairTarget(p.pairs[i], spec.target);
        return !(spec.strict ? v > spec.threshold : v >= spec.threshold);
      });
      return Status::OK();
    }
    case FilterSpec::Kind::kRankAll:
      RankIds(p, FilterTarget::kScore, ids->size(), ids, span);
      return Status::OK();
    case FilterSpec::Kind::kMinMatches:
      std::erase_if(*ids, [&](uint32_t i) { return p.pairs[i].count() < spec.k; });
      return Status::OK();
    case FilterSpec::Kind::kNotDominated: {
      // ApplyFilter's skyline scan, over the pairs of the sorted indices.
      RankIds(p, FilterTarget::kScore, ids->size(), ids, span);
      double best_conf = -std::numeric_limits<double>::infinity();
      double best_conf_score = 0.0;
      size_t kept = 0;
      for (uint32_t i : *ids) {
        double score = PairTarget(p.pairs[i], FilterTarget::kScore);
        double conf = PairTarget(p.pairs[i], FilterTarget::kConf);
        if (conf > best_conf) {
          best_conf = conf;
          best_conf_score = score;
        } else if (conf != best_conf || score != best_conf_score) {
          continue;
        }
        (*ids)[kept++] = i;
      }
      ids->resize(kept);
      return Status::OK();
    }
  }
  return Status::Internal("unknown filter kind");
}

// A query's answer, late-materialized: the evaluated p-relation, the ranked
// survivors' row indices and, per output column, the view column it reads
// or the pair's score or conf. The p-relation's view pins what it reads, so
// the answer stays readable after its session, temp tables or cache entry
// are gone. Rows are built only when read: all of them once for
// Relation::rows(), which counts them on `rows_built`, or the printed ones
// for ToString.
class Answer final : public Relation::RowSource {
 public:
  Answer(PRelation input, std::vector<uint32_t> ids,
         const std::vector<size_t>& scored_columns,
         std::shared_ptr<obs::Counter> rows_built)
      : input_(std::move(input)),
        ids_(std::move(ids)),
        rows_built_(std::move(rows_built)) {
    // Each view column's typed column is resolved once.
    const size_t score_col = input_.schema().size();
    columns_.reserve(scored_columns.size());
    for (size_t c : scored_columns) {
      if (c < score_col) {
        columns_.push_back({&input_.view.Column(c), input_.view.columns[c].input,
                            Cell::kView});
      } else {
        columns_.push_back({nullptr, 0, c == score_col ? Cell::kScore : Cell::kConf});
      }
    }
  }

  size_t NumRows() const override { return ids_.size(); }

  Tuple Row(size_t i) const override {
    const uint32_t id = ids_[i];
    const ScoreConf& pair = input_.pairs[id];
    Tuple row;
    row.reserve(columns_.size());
    for (const OutputColumn& column : columns_) {
      switch (column.cell) {
        case Cell::kView:
          row.emplace_back(column.column->View(input_.view.Id(id, column.input)));
          break;
        case Cell::kScore:
          row.push_back(pair.has_score() ? Value::Double(pair.score()) : Value::Null());
          break;
        case Cell::kConf:
          row.push_back(Value::Double(pair.conf()));
          break;
      }
    }
    return row;
  }

  void OnBuilt() const override {
    if (rows_built_ != nullptr) rows_built_->Increment(ids_.size());
  }

 private:
  enum class Cell : uint8_t { kView, kScore, kConf };
  struct OutputColumn {
    const TypedColumn* column;  // kView: the column, indexed by ids of `input`.
    size_t input;
    Cell cell;
  };

  PRelation input_;
  std::vector<uint32_t> ids_;
  std::vector<OutputColumn> columns_;
  std::shared_ptr<obs::Counter> rows_built_;
};

}  // namespace

StatusOr<Relation> ApplyFilters(const PRelation& input,
                                const std::vector<FilterSpec>& specs) {
  return ApplyFiltersAndProject(input, specs, {});
}

StatusOr<Relation> ApplyFiltersAndProject(
    PRelation input, const std::vector<FilterSpec>& specs,
    const std::vector<std::string>& output_columns, obs::Span* span,
    std::shared_ptr<obs::Counter> rows_built) {
  if (input.pairs.size() != input.NumRows()) {
    return Status::Internal("p-relation pairs are not row-aligned");
  }
  Schema scored_schema = input.schema();
  scored_schema.AddColumn(Column{"", "score", ValueType::kDouble});
  scored_schema.AddColumn(Column{"", "conf", ValueType::kDouble});

  // Filters pick and order row indices; no value is copied. Match-count
  // filters come first (see filters.h).
  obs::SpanScope rank_scope(span, "Rank");
  obs::SetRowsIn(rank_scope.get(), input.NumRows());
  std::vector<uint32_t> ids(input.NumRows());
  std::iota(ids.begin(), ids.end(), 0u);
  for (const FilterSpec& spec : specs) {
    if (spec.kind == FilterSpec::Kind::kMinMatches) {
      RETURN_IF_ERROR(FilterIndices(input, spec, &ids, span));
    }
  }
  bool checked_columns = false;
  for (const FilterSpec& spec : specs) {
    if (spec.kind == FilterSpec::Kind::kMinMatches) continue;
    if (!checked_columns) {
      // The scored-form filters need unambiguous score/conf columns.
      size_t score_idx = 0;
      size_t conf_idx = 0;
      RETURN_IF_ERROR(FindScoreColumns(scored_schema, &score_idx, &conf_idx));
      checked_columns = true;
    }
    RETURN_IF_ERROR(FilterIndices(input, spec, &ids, span));
  }
  obs::SetRowsOut(rank_scope.get(), ids.size());
  rank_scope.Finish();

  // Columns of the scored form to emit: all of them, or the requested ones
  // followed by score and conf.
  std::vector<size_t> indices;
  if (output_columns.empty()) {
    indices.resize(scored_schema.size());
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  } else {
    indices.reserve(output_columns.size() + 2);
    for (const std::string& name : output_columns) {
      ASSIGN_OR_RETURN(size_t idx, scored_schema.FindColumn(name));
      indices.push_back(idx);
    }
    for (const char* name : {"score", "conf"}) {
      ASSIGN_OR_RETURN(size_t idx, scored_schema.FindColumn(name));
      indices.push_back(idx);
    }
  }

  std::vector<size_t> keys =
      output_columns.empty() ? input.key_columns() : std::vector<size_t>{};
  Relation out(output_columns.empty() ? std::move(scored_schema)
                                      : scored_schema.Select(indices),
               std::make_unique<Answer>(std::move(input), std::move(ids), indices,
                                        std::move(rows_built)));
  out.set_key_columns(std::move(keys));
  return out;
}

}  // namespace prefdb

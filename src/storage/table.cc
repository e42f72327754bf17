#include "storage/table.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "common/string_util.h"

namespace prefdb {

uint64_t Table::NextVersion() {
  // Process-wide, so versions stay unique across engines sharing a cache
  // test process and across the temp-table churn of concurrent GBU regions.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

StatusOr<std::unique_ptr<Table>> Table::Create(std::string name, Schema schema,
                                               std::vector<Tuple> rows,
                                               std::vector<std::string> primary_key) {
  // Base-table columns are qualified with the table name so that joins
  // produce unambiguous schemas (MOVIES.m_id vs GENRES.m_id).
  Relation relation(schema.WithQualifier(name), std::move(rows));
  std::vector<size_t> key_indices;
  key_indices.reserve(primary_key.size());
  for (const std::string& key_col : primary_key) {
    ASSIGN_OR_RETURN(size_t idx, relation.schema().FindColumn(key_col));
    key_indices.push_back(idx);
  }
  // Canonical (ascending) key order; see ResolveProjection in plan.cc.
  std::sort(key_indices.begin(), key_indices.end());
  relation.set_key_columns(std::move(key_indices));
  RETURN_IF_ERROR(relation.CheckWellFormed());
  return std::unique_ptr<Table>(
      new Table(std::move(name), std::move(relation), std::nullopt));
}

std::unique_ptr<Table> Table::CreateView(std::string name, RowView view) {
  // The relation carries the view's schema and key, and no rows.
  Relation relation(view.schema, {});
  relation.set_key_columns(view.key_columns);
  return std::unique_ptr<Table>(
      new Table(std::move(name), std::move(relation), std::move(view)));
}

const HashIndex& Table::EnsureIndex(size_t column_index) {
  if (view_) {
    std::fprintf(stderr, "Table::EnsureIndex on view-backed table %s\n",
                 name_.c_str());
    std::abort();
  }
  // Building under the lock serializes concurrent first-touch builds of the
  // same index; index construction is rare (once per column) and the lock
  // is uncontended afterwards.
  MutexLock lock(&lazy_mu_);
  auto it = indexes_.find(column_index);
  if (it == indexes_.end()) {
    it = indexes_.emplace(column_index,
                          std::make_unique<HashIndex>(relation_, column_index))
             .first;
  }
  return *it->second;
}

const ColumnStats& Table::Stats(size_t column_index) {
  MutexLock lock(&lazy_mu_);
  auto it = stats_.find(column_index);
  if (it != stats_.end()) return *it->second;

  ColumnStats stats;
  stats.row_count = NumRows();
  std::unordered_set<Value, ValueHash> distinct;
  bool first_numeric = true;
  for (size_t r = 0; r < stats.row_count; ++r) {
    const Value& v = view_ ? view_->At(r, column_index)
                           : relation_.rows()[r][column_index];
    if (v.is_null()) {
      ++stats.null_count;
      continue;
    }
    distinct.insert(v);
    if (v.is_numeric()) {
      double d = v.NumericValue();
      if (first_numeric) {
        stats.min = stats.max = d;
        stats.has_range = true;
        first_numeric = false;
      } else {
        if (d < stats.min) stats.min = d;
        if (d > stats.max) stats.max = d;
      }
    }
  }
  stats.distinct_count = distinct.size();
  return *stats_.emplace(column_index, std::make_unique<ColumnStats>(stats))
              .first->second;
}

}  // namespace prefdb

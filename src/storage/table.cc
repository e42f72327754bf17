#include "storage/table.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/string_util.h"

namespace prefdb {

void ReleaseFreeHeapPages() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

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
  RETURN_IF_ERROR(relation.CheckWellFormed());
  ColumnStore store =
      ColumnStore::FromRows(relation.rows(), relation.schema().size());
  return std::unique_ptr<Table>(
      new Table(std::move(name), relation.schema(), std::move(key_indices),
                std::move(store), std::nullopt));
}

std::unique_ptr<Table> Table::CreateView(std::string name, RowView view) {
  Schema schema = view.schema;
  std::vector<size_t> keys = view.key_columns;
  return std::unique_ptr<Table>(new Table(std::move(name), std::move(schema),
                                          std::move(keys), ColumnStore(),
                                          std::move(view)));
}

Relation Table::Gather() const {
  if (view_) return view_->Gather();
  std::vector<Tuple> rows;
  rows.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    rows.push_back(store_.Row(static_cast<uint32_t>(r)));
  }
  Relation out(schema_, std::move(rows));
  out.set_key_columns(primary_key_);
  return out;
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
                          std::make_unique<HashIndex>(store_.column(column_index)))
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
  std::unordered_set<ValueView, ValueViewHash> distinct;
  bool first_numeric = true;
  for (size_t r = 0; r < stats.row_count; ++r) {
    const ValueView v =
        view_ ? view_->View(r, column_index)
              : store_.column(column_index).View(static_cast<uint32_t>(r));
    if (v.is_null()) {
      ++stats.null_count;
      continue;
    }
    distinct.insert(v);
    if (v.type == ValueType::kInt || v.type == ValueType::kDouble) {
      double d = v.type == ValueType::kInt ? static_cast<double>(v.i) : v.d;
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

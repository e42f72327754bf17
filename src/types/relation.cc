#include "types/relation.h"

#include <algorithm>

#include "common/string_util.h"

namespace prefdb {

Relation::Relation(Schema schema, std::unique_ptr<const RowSource> source)
    : schema_(std::move(schema)), lazy_(std::make_shared<Lazy>(std::move(source))) {}

const std::vector<Tuple>& Relation::BuiltRows() const {
  Lazy& lazy = *lazy_;
  if (!lazy.built.load(std::memory_order_acquire)) {
    MutexLock lock(&lazy.mu);
    if (!lazy.built.load(std::memory_order_relaxed)) {
      lazy.rows.reserve(lazy.num_rows);
      for (size_t i = 0; i < lazy.num_rows; ++i) {
        lazy.rows.push_back(lazy.source->Row(i));
      }
      lazy.source->OnBuilt();
      lazy.source.reset();
      lazy.built.store(true, std::memory_order_release);
    }
  }
  return lazy.rows;
}

std::string Relation::Lazy::RowString(size_t i) {
  // Holding the lock keeps a concurrent rows() from releasing the source.
  MutexLock lock(&mu);
  return TupleToString(source != nullptr ? source->Row(i) : rows[i]);
}

Status Relation::CheckWellFormed() const {
  for (const Tuple& row : rows()) {
    if (row.size() != schema_.size()) {
      return Status::Internal(StrFormat(
          "malformed relation: row arity %zu does not match schema arity %zu",
          row.size(), schema_.size()));
    }
  }
  for (size_t k : key_columns_) {
    if (k >= schema_.size()) {
      return Status::Internal("malformed relation: key column index out of range");
    }
  }
  return Status::OK();
}

std::string Relation::ToString(size_t max_rows) const {
  const size_t n = NumRows();
  const size_t shown = std::min(n, max_rows);
  std::string out = schema_.ToString() + StrFormat(" [%zu rows]\n", n);
  for (size_t i = 0; i < shown; ++i) {
    out += "  " + (lazy_ == nullptr ? TupleToString(rows_[i]) : lazy_->RowString(i)) +
           "\n";
  }
  if (n > max_rows) out += StrFormat("  ... (%zu more)\n", n - max_rows);
  return out;
}

}  // namespace prefdb

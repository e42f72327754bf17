#ifndef PREFDB_TYPES_SCHEMA_H_
#define PREFDB_TYPES_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace prefdb {

/// A named, typed column. `qualifier` is the relation name (or alias) the
/// column originates from; it disambiguates columns after joins, matching
/// SQL's `table.column` resolution.
struct Column {
  std::string qualifier;  // May be empty for computed columns.
  std::string name;
  ValueType type = ValueType::kNull;
  /// Case-folded hash of `name`, set by the Schema that holds the column:
  /// a lookup compares names only where the hashes agree.
  uint64_t name_hash = 0;

  /// "qualifier.name", or just "name" when unqualified.
  std::string FullName() const {
    return qualifier.empty() ? name : qualifier + "." + name;
  }

  bool operator==(const Column& other) const {
    return qualifier == other.qualifier && name == other.name && type == other.type;
  }
};

/// An ordered list of columns describing the shape of tuples in a relation.
/// Column lookup accepts either qualified ("MOVIES.year") or unqualified
/// ("year") names; unqualified lookups that match several columns are
/// ambiguous and fail. A lookup allocates nothing unless it fails with a
/// Status.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t size() const { return columns_.size(); }
  bool empty() const { return columns_.empty(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  void AddColumn(Column column);

  /// Resolves `name` ("col" or "rel.col", case-insensitive) to a column
  /// index. Fails with NotFound if absent, InvalidArgument if ambiguous.
  StatusOr<size_t> FindColumn(std::string_view name) const;

  /// Like FindColumn but returns -1 on any failure.
  int FindColumnOrNegative(std::string_view name) const;

  /// True if `name` resolves uniquely.
  bool HasColumn(std::string_view name) const {
    return FindColumnOrNegative(name) >= 0;
  }

  /// Concatenation of this schema followed by `right` (join output shape).
  /// The rvalue overload appends to this schema's own storage.
  Schema Concat(const Schema& right) const& { return Schema(*this).Concat(right); }
  Schema Concat(const Schema& right) &&;

  /// Schema consisting of the columns at `indices`, in that order.
  Schema Select(const std::vector<size_t>& indices) const;

  /// Replaces every column's qualifier with `qualifier` (table aliasing).
  Schema WithQualifier(const std::string& qualifier) const;

  /// Renders as "(MOVIES.m_id INT, MOVIES.title STRING, ...)".
  std::string ToString() const;

  bool operator==(const Schema& other) const { return columns_ == other.columns_; }

 private:
  // The column index `name` resolves to, kNotFound or kAmbiguous.
  static constexpr int kNotFound = -1;
  static constexpr int kAmbiguous = -2;
  int Resolve(std::string_view name) const;

  std::vector<Column> columns_;
};

}  // namespace prefdb

#endif  // PREFDB_TYPES_SCHEMA_H_

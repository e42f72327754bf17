#ifndef PREFDB_TYPES_RELATION_H_
#define PREFDB_TYPES_RELATION_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace prefdb {

/// A relation: a schema plus its rows.
///
/// The rows have one of two bodies. A relation built row by row (AddRow, the
/// constructors taking rows) holds its tuples. A late-materialized relation
/// holds a RowSource that builds them: a query's answer is the evaluated
/// p-relation's row-id view and the ranked survivors' ids
/// (palgebra/filters.h), and no value is copied until a caller reads rows.
/// rows() builds every tuple on its first call, once, safely under
/// concurrent const readers, and then releases the source; copies of the
/// relation share the source and the built rows. NumRows() and ToString()
/// read the source without building the rest. Any mutation first copies
/// the built rows into the relation, which then holds them like any other.
///
/// `key_columns` identifies the (possibly composite) primary key within the
/// schema, by index. Base relations carry their declared primary key; the
/// output of a join carries the concatenation of its inputs' keys. The key
/// is what the score relations of the preference layer are keyed on
/// (paper §VI, "Implementing p-relations"), so relational operators must
/// maintain it.
class Relation {
 public:
  /// The body of a late-materialized relation: builds its rows on demand.
  class RowSource {
   public:
    virtual ~RowSource() = default;
    virtual size_t NumRows() const = 0;
    /// Builds row `i`.
    virtual Tuple Row(size_t i) const = 0;
    /// Called once, when rows() has built every row.
    virtual void OnBuilt() const {}
  };

  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}
  /// A late-materialized relation whose rows `source` builds.
  Relation(Schema schema, std::unique_ptr<const RowSource> source);

  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  /// The rows; a late-materialized relation builds them on the first call.
  const std::vector<Tuple>& rows() const {
    return lazy_ == nullptr ? rows_ : BuiltRows();
  }
  std::vector<Tuple>* mutable_rows() {
    Detach();
    return &rows_;
  }

  size_t NumRows() const {
    return lazy_ == nullptr ? rows_.size() : lazy_->num_rows;
  }
  bool empty() const { return NumRows() == 0; }

  void AddRow(Tuple row) {
    Detach();
    rows_.push_back(std::move(row));
  }
  void Reserve(size_t n) {
    Detach();
    rows_.reserve(n);
  }

  const std::vector<size_t>& key_columns() const { return key_columns_; }
  void set_key_columns(std::vector<size_t> cols) { key_columns_ = std::move(cols); }
  bool HasKey() const { return !key_columns_.empty(); }

  /// Extracts the key values of `row` (requires HasKey()).
  Tuple KeyOf(const Tuple& row) const { return ProjectTuple(row, key_columns_); }

  /// Validates that every row has exactly schema().size() values.
  Status CheckWellFormed() const;

  /// Renders header plus the first `max_rows` rows, for debugging/examples.
  /// A late-materialized relation builds only the rows it prints.
  std::string ToString(size_t max_rows = 20) const;

 private:
  // A late-materialized body, shared by the relation's copies.
  struct Lazy {
    explicit Lazy(std::unique_ptr<const RowSource> rows_source)
        : num_rows(rows_source->NumRows()), source(std::move(rows_source)) {}

    // Row `i` printed, built from the source until the rows are.
    std::string RowString(size_t i);

    const size_t num_rows;
    // Set (release) once `rows` holds every row; `rows` is written only
    // before that, under `mu`, and only read after it.
    std::atomic<bool> built{false};
    std::vector<Tuple> rows;
    Mutex mu;
    // Released once the rows are built: they need nothing it holds.
    std::unique_ptr<const RowSource> source PREFDB_GUARDED_BY(mu);
  };

  const std::vector<Tuple>& BuiltRows() const;
  // Makes a late-materialized relation hold its rows itself.
  void Detach() {
    if (lazy_ == nullptr) return;
    rows_ = BuiltRows();
    lazy_.reset();
  }

  Schema schema_;
  std::vector<Tuple> rows_;
  std::vector<size_t> key_columns_;
  std::shared_ptr<Lazy> lazy_;
};

}  // namespace prefdb

#endif  // PREFDB_TYPES_RELATION_H_

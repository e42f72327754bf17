#ifndef PREFDB_STORAGE_ROW_VIEW_H_
#define PREFDB_STORAGE_ROW_VIEW_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/column_store.h"
#include "types/relation.h"

namespace prefdb {

class Table;

/// Output column of a view: column `column` of the rows of input `input`.
struct ColumnSource {
  uint32_t input;
  uint32_t column;
};

/// An intermediate result as row ids (late materialization), shared by the
/// native executor and the p-algebra, and the contents of a view-backed
/// temporary table (Table::CreateView). A row is one uint32_t per joined
/// input, indexing that input's column store: a table's or one a union
/// gathered. `columns` maps each output column to (input,
/// column). Operators only produce and remap ids; kernels read cells
/// through the typed accessors (Column, View), and values are copied when a
/// consumer gathers rows out of the view. The operator kernels over views
/// live in engine/row_view.h.
///
/// A view pins what it reads: `owned` holds a reference to every table or
/// gathered store its sources point into, so a view stays readable after
/// ExecutePlan returns, after a temp table is dropped, after a base table is
/// reloaded and after the cache entry it was copied from is evicted.
struct RowView {
  Schema schema;
  std::vector<size_t> key_columns;
  std::vector<const ColumnStore*> sources;         // One per input.
  std::vector<ColumnSource> columns;               // One per output column.
  std::vector<uint32_t> ids;                       // Row-major, width() per row.
  std::vector<std::shared_ptr<const void>> owned;  // Pins of the sources.
  // The base table this view is the identity over (every row, in order,
  // through any column remapping) — a predicate-free scan of a table that
  // holds rows, or of a view-backed temporary that is such a view — else
  // null. Operators that change the ids clear it; a join may then probe the
  // table's persistent index instead of building a hash table over the view.
  Table* base_table = nullptr;

  /// A one-input view with identity columns over `rows`, holding no rows.
  static RowView Over(Schema schema, std::vector<size_t> keys,
                      const ColumnStore* rows);
  /// The identity view over every row of `rows`, pinning `pin` (the owner
  /// of `rows`); no value is copied.
  static RowView Of(Schema schema, std::vector<size_t> keys,
                    const ColumnStore& rows, std::shared_ptr<const void> pin);
  /// Converts `rel`'s rows into an owned column store and views all of them.
  static RowView Wrap(const Relation& rel);

  size_t width() const { return sources.size(); }
  size_t NumRows() const { return sources.empty() ? 0 : ids.size() / width(); }
  const uint32_t* Row(size_t r) const { return ids.data() + r * width(); }
  /// The id row r has on input `input`.
  uint32_t Id(size_t r, size_t input) const { return ids[r * width() + input]; }
  /// The typed column output column c reads; index it with Id(r, input of c).
  const TypedColumn& Column(size_t c) const {
    const ColumnSource& src = columns[c];
    return sources[src.input]->column(src.column);
  }
  /// The value at row r, column c, read in place.
  ValueView View(size_t r, size_t c) const {
    return Column(c).View(Id(r, columns[c].input));
  }
  /// An owning copy of the value at row r, column c.
  Value Get(size_t r, size_t c) const {
    return Column(c).Get(Id(r, columns[c].input));
  }
  void AppendRow(size_t r, std::vector<uint32_t>* out) const {
    out->insert(out->end(), Row(r), Row(r) + width());
  }

  /// The view of the rows at `positions`, in that order.
  RowView Rows(const std::vector<uint32_t>& positions) const;
  /// Keeps the rows at `positions`, in that order.
  void Keep(const std::vector<uint32_t>& positions);
  /// Keeps the first `n` rows.
  void Truncate(size_t n);

  /// Copies rows out of the view.
  Tuple GatherRow(size_t r) const;
  Relation Gather() const;
};

}  // namespace prefdb

#endif  // PREFDB_STORAGE_ROW_VIEW_H_

#ifndef PREFDB_STORAGE_COLUMN_STORE_H_
#define PREFDB_STORAGE_COLUMN_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "types/tuple.h"
#include "types/value.h"

namespace prefdb {

/// How a typed column stores its values. The layout is chosen from the
/// column's values when it is built, and only from them (not from the
/// declared schema type):
///   * kInt / kDouble: every non-NULL value is an int (a double): one
///     int64_t (double) per row, plus a null bitmap. A column of NULLs only
///     is a kInt column with every bit set.
///   * kDict: every non-NULL value is a string, and values repeat: one code
///     per row into a sorted per-column dictionary, so code order is string
///     order. A NULL row holds kNullCode.
///   * kArena: every non-NULL value is a string, mostly distinct: row r is
///     the bytes [offsets[r], offsets[r + 1]) of one arena, plus a null
///     bitmap.
///   * kValue: the non-NULL values mix types (ints with doubles, numbers
///     with strings): one Value per row.
enum class ColumnLayout : uint8_t { kInt, kDouble, kDict, kArena, kValue };

/// One column of a ColumnStore. Immutable once built. Kernels read it
/// through typed accessors: View(r) for any layout (no allocation), or the
/// layout's raw arrays for a specialized loop.
class TypedColumn {
 public:
  /// The code of a NULL row in a kDict column.
  static constexpr uint32_t kNullCode = UINT32_MAX;

  /// Builds a column holding `cells` (string views are copied).
  static TypedColumn Build(const std::vector<ValueView>& cells);

  ColumnLayout layout() const { return layout_; }
  size_t size() const { return size_; }

  bool IsNull(uint32_t r) const {
    switch (layout_) {
      case ColumnLayout::kDict:
        return codes_[r] == kNullCode;
      case ColumnLayout::kValue:
        return values_[r].is_null();
      default:
        return NullBit(r);
    }
  }
  /// IsNull for a kInt, kDouble or kArena column: its null bitmap's bit.
  bool NullBit(uint32_t r) const {
    return !nulls_.empty() && ((nulls_[r >> 6] >> (r & 63)) & 1) != 0;
  }

  /// The value of row r, read in place.
  ValueView View(uint32_t r) const {
    switch (layout_) {
      case ColumnLayout::kInt:
        return NullBit(r) ? ValueView() : ValueView::Int(ints_[r]);
      case ColumnLayout::kDouble:
        return NullBit(r) ? ValueView() : ValueView::Double(doubles_[r]);
      case ColumnLayout::kDict:
        return codes_[r] == kNullCode ? ValueView()
                                      : ValueView::String(dict_[codes_[r]]);
      case ColumnLayout::kArena:
        return NullBit(r) ? ValueView()
                         : ValueView::String(std::string_view(
                               arena_.data() + offsets_[r],
                               offsets_[r + 1] - offsets_[r]));
      case ColumnLayout::kValue:
        return values_[r].view();
    }
    return {};
  }

  /// An owning copy of row r's value.
  Value Get(uint32_t r) const { return Value(View(r)); }

  /// Raw arrays of the typed layouts (empty for the others). A NULL row of
  /// a kInt or kDouble column holds 0.
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const uint32_t* codes() const { return codes_.data(); }
  /// A kDict column's distinct strings, ascending: code c is dictionary()[c].
  const std::vector<std::string>& dictionary() const { return dict_; }
  /// True if some row of a kInt, kDouble or kArena column is NULL.
  bool has_nulls() const { return !nulls_.empty(); }

  /// Heap bytes of the column's arrays.
  size_t Bytes() const;

 private:
  ColumnLayout layout_ = ColumnLayout::kInt;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> codes_;
  std::vector<std::string> dict_;
  std::vector<uint32_t> offsets_;  // size_ + 1 entries.
  std::string arena_;
  std::vector<uint64_t> nulls_;  // Bit r set: row r is NULL. Empty: none.
  std::vector<Value> values_;
};

/// The rows of a base table or a union's gathered rows, as one TypedColumn
/// per column. Immutable once built; row-id views (storage/row_view.h)
/// index it.
class ColumnStore {
 public:
  ColumnStore() = default;
  ColumnStore(std::vector<TypedColumn> columns, size_t rows)
      : columns_(std::move(columns)), rows_(rows) {}

  /// Converts `rows`, each of `width` values.
  static ColumnStore FromRows(const std::vector<Tuple>& rows, size_t width);

  size_t NumRows() const { return rows_; }
  size_t NumColumns() const { return columns_.size(); }
  const TypedColumn& column(size_t c) const { return columns_[c]; }

  /// An owning copy of row r.
  Tuple Row(uint32_t r) const;

  /// Heap bytes of every column's arrays: what the store costs resident.
  size_t Bytes() const;

 private:
  std::vector<TypedColumn> columns_;
  size_t rows_ = 0;
};

}  // namespace prefdb

#endif  // PREFDB_STORAGE_COLUMN_STORE_H_

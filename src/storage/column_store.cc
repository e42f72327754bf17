#include "storage/column_store.h"

#include <algorithm>
#include <unordered_map>

namespace prefdb {

namespace {

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

}  // namespace

TypedColumn TypedColumn::Build(const std::vector<ValueView>& cells) {
  TypedColumn col;
  const size_t n = cells.size();
  col.size_ = n;
  bool ints = false;
  bool doubles = false;
  bool strings = false;
  bool nulls = false;
  size_t string_bytes = 0;
  for (const ValueView& v : cells) {
    switch (v.type) {
      case ValueType::kNull:
        nulls = true;
        break;
      case ValueType::kInt:
        ints = true;
        break;
      case ValueType::kDouble:
        doubles = true;
        break;
      case ValueType::kString:
        strings = true;
        string_bytes += v.s.size();
        break;
    }
  }
  if (int(ints) + int(doubles) + int(strings) > 1 ||
      string_bytes > UINT32_MAX) {
    col.layout_ = ColumnLayout::kValue;
    col.values_.reserve(n);
    for (const ValueView& v : cells) col.values_.emplace_back(v);
    return col;
  }
  if (nulls) {
    col.nulls_.assign((n + 63) / 64, 0);
    for (size_t r = 0; r < n; ++r) {
      if (cells[r].is_null()) col.nulls_[r >> 6] |= uint64_t{1} << (r & 63);
    }
  }
  if (doubles) {
    col.layout_ = ColumnLayout::kDouble;
    col.doubles_.resize(n);
    for (size_t r = 0; r < n; ++r) col.doubles_[r] = cells[r].d;
    return col;
  }
  if (!strings) {
    col.layout_ = ColumnLayout::kInt;
    col.ints_.resize(n);
    for (size_t r = 0; r < n; ++r) col.ints_[r] = cells[r].i;
    return col;
  }
  // Strings: a dictionary when values repeat (at most one distinct value
  // per two rows), else one arena.
  std::unordered_map<std::string_view, uint32_t> distinct;
  for (const ValueView& v : cells) {
    if (!v.is_null()) distinct.emplace(v.s, 0);
  }
  if (2 * distinct.size() <= n) {
    col.layout_ = ColumnLayout::kDict;
    std::vector<std::string_view> sorted;
    sorted.reserve(distinct.size());
    for (const auto& entry : distinct) sorted.push_back(entry.first);
    std::sort(sorted.begin(), sorted.end());
    col.dict_.reserve(sorted.size());
    for (size_t c = 0; c < sorted.size(); ++c) {
      distinct[sorted[c]] = static_cast<uint32_t>(c);
      col.dict_.emplace_back(sorted[c]);
    }
    col.codes_.resize(n);
    for (size_t r = 0; r < n; ++r) {
      col.codes_[r] = cells[r].is_null() ? kNullCode : distinct[cells[r].s];
    }
    // A NULL row holds kNullCode, so the bitmap is not needed.
    col.nulls_.clear();
    return col;
  }
  col.layout_ = ColumnLayout::kArena;
  col.arena_.reserve(string_bytes);
  col.offsets_.resize(n + 1);
  for (size_t r = 0; r < n; ++r) {
    col.offsets_[r] = static_cast<uint32_t>(col.arena_.size());
    col.arena_.append(cells[r].s);
  }
  col.offsets_[n] = static_cast<uint32_t>(col.arena_.size());
  return col;
}

size_t TypedColumn::Bytes() const {
  size_t bytes = VectorBytes(ints_) + VectorBytes(doubles_) +
                 VectorBytes(codes_) + VectorBytes(offsets_) + arena_.size() +
                 VectorBytes(nulls_) + VectorBytes(values_);
  for (const std::string& s : dict_) bytes += sizeof(std::string) + s.size();
  for (const Value& v : values_) {
    if (v.is_string()) bytes += v.AsString().size();
  }
  return bytes;
}

ColumnStore ColumnStore::FromRows(const std::vector<Tuple>& rows, size_t width) {
  std::vector<TypedColumn> columns;
  columns.reserve(width);
  std::vector<ValueView> cells(rows.size());
  for (size_t c = 0; c < width; ++c) {
    for (size_t r = 0; r < rows.size(); ++r) cells[r] = rows[r][c].view();
    columns.push_back(TypedColumn::Build(cells));
  }
  return ColumnStore(std::move(columns), rows.size());
}

Tuple ColumnStore::Row(uint32_t r) const {
  Tuple row;
  row.reserve(columns_.size());
  for (const TypedColumn& col : columns_) row.emplace_back(col.View(r));
  return row;
}

size_t ColumnStore::Bytes() const {
  size_t bytes = 0;
  for (const TypedColumn& col : columns_) bytes += col.Bytes();
  return bytes;
}

}  // namespace prefdb

#include "storage/row_view.h"

#include <numeric>

namespace prefdb {

RowView RowView::Over(Schema schema, std::vector<size_t> keys,
                      const ColumnStore* rows) {
  RowView view;
  view.columns.reserve(schema.size());
  for (size_t c = 0; c < schema.size(); ++c) {
    view.columns.push_back({0, static_cast<uint32_t>(c)});
  }
  view.schema = std::move(schema);
  view.key_columns = std::move(keys);
  view.sources.push_back(rows);
  return view;
}

RowView RowView::Of(Schema schema, std::vector<size_t> keys,
                    const ColumnStore& rows, std::shared_ptr<const void> pin) {
  RowView view = Over(std::move(schema), std::move(keys), &rows);
  view.ids.resize(rows.NumRows());
  std::iota(view.ids.begin(), view.ids.end(), 0u);
  view.owned.push_back(std::move(pin));
  return view;
}

RowView RowView::Wrap(const Relation& rel) {
  auto owned = std::make_shared<const ColumnStore>(
      ColumnStore::FromRows(rel.rows(), rel.schema().size()));
  return Of(rel.schema(), rel.key_columns(), *owned, owned);
}

RowView RowView::Rows(const std::vector<uint32_t>& positions) const {
  RowView out;
  out.schema = schema;
  out.key_columns = key_columns;
  out.sources = sources;
  out.columns = columns;
  out.owned = owned;
  out.ids.reserve(positions.size() * width());
  for (uint32_t r : positions) AppendRow(r, &out.ids);
  return out;
}

void RowView::Keep(const std::vector<uint32_t>& positions) {
  std::vector<uint32_t> kept;
  kept.reserve(positions.size() * width());
  for (uint32_t r : positions) AppendRow(r, &kept);
  ids = std::move(kept);
  base_table = nullptr;
}

void RowView::Truncate(size_t n) {
  if (NumRows() <= n) return;
  ids.resize(n * width());
  base_table = nullptr;
}

Tuple RowView::GatherRow(size_t r) const {
  Tuple row;
  row.reserve(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) row.emplace_back(View(r, c));
  return row;
}

Relation RowView::Gather() const {
  std::vector<Tuple> rows;
  rows.reserve(NumRows());
  for (size_t r = 0; r < NumRows(); ++r) rows.push_back(GatherRow(r));
  Relation out(schema, std::move(rows));
  out.set_key_columns(key_columns);
  return out;
}

}  // namespace prefdb

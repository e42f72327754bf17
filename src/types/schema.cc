#include "types/schema.h"

#include <algorithm>

#include "common/hash.h"
#include "common/string_util.h"

namespace prefdb {

namespace {

// FNV-1a over the lower-cased bytes: names equal under EqualsIgnoreCase
// hash equal.
uint64_t FoldedHash(std::string_view name) {
  uint64_t h = kFnvOffsetBasis;
  for (char c : name) {
    h ^= static_cast<unsigned char>(AsciiLower(c));
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (Column& c : columns_) c.name_hash = FoldedHash(c.name);
}

void Schema::AddColumn(Column column) {
  column.name_hash = FoldedHash(column.name);
  columns_.push_back(std::move(column));
}

int Schema::Resolve(std::string_view name) const {
  size_t dot = name.find('.');
  std::string_view qualifier;
  std::string_view bare = name;
  if (dot != std::string_view::npos) {
    qualifier = name.substr(0, dot);
    bare = name.substr(dot + 1);
  }
  const uint64_t hash = FoldedHash(bare);
  int found = kNotFound;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& c = columns_[i];
    if (c.name_hash != hash) continue;
    if (!EqualsIgnoreCase(c.name, bare)) continue;
    if (!qualifier.empty() && !EqualsIgnoreCase(c.qualifier, qualifier)) continue;
    if (found >= 0) return kAmbiguous;
    found = static_cast<int>(i);
  }
  return found;
}

StatusOr<size_t> Schema::FindColumn(std::string_view name) const {
  const int found = Resolve(name);
  if (found == kAmbiguous) {
    return Status::InvalidArgument("ambiguous column reference: " +
                                   std::string(name));
  }
  if (found < 0) {
    return Status::NotFound("column not found: " + std::string(name));
  }
  return static_cast<size_t>(found);
}

int Schema::FindColumnOrNegative(std::string_view name) const {
  return std::max(Resolve(name), kNotFound);
}

Schema Schema::Concat(const Schema& right) && {
  columns_.insert(columns_.end(), right.columns_.begin(), right.columns_.end());
  return std::move(*this);
}

Schema Schema::Select(const std::vector<size_t>& indices) const {
  Schema out;
  out.columns_.reserve(indices.size());
  for (size_t i : indices) out.columns_.push_back(columns_[i]);
  return out;
}

Schema Schema::WithQualifier(const std::string& qualifier) const {
  Schema out = *this;
  for (Column& c : out.columns_) c.qualifier = qualifier;
  return out;
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const Column& c : columns_) {
    parts.push_back(c.FullName() + " " + std::string(ValueTypeName(c.type)));
  }
  return "(" + StrJoin(parts, ", ") + ")";
}

}  // namespace prefdb

#include "palgebra/score_relation.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace prefdb {

const ScoreConf ScoreRelation::kDefault = ScoreConf();

ScoreRelation::Keys::Keys(const RowView& view, const std::vector<size_t>& columns)
    : view_(&view) {
  for (size_t c : columns) columns_.emplace_back(view.columns[c].input, &view.Column(c));
}

ScoreRelation::ScoreRelation(const std::vector<Keys>& sources, size_t expected)
    : width_(sources.front().columns_.size()),
      code_(width_),
      // A power of two at least twice `expected`: at most half full.
      slots_(std::bit_ceil(std::max<size_t>(16, 2 * expected)), kEmpty) {
  for (size_t k = 0; k < width_; ++k) {
    bool ints = true;
    bool one_dict = true;
    const TypedColumn* first = nullptr;
    for (const Keys& source : sources) {
      if (width_ > kMaxKeyColumns || source.columns_.size() != width_) {
        std::fprintf(stderr, "ScoreRelation: keys of %zu and %zu columns\n",
                     width_, source.columns_.size());
        std::abort();
      }
      const TypedColumn* column = source.columns_[k].second;
      if (first == nullptr) first = column;
      ints &= column->layout() == ColumnLayout::kInt;
      one_dict &= column->layout() == ColumnLayout::kDict && column == first;
    }
    code_[k] = ints ? Code::kInt : one_dict ? Code::kDict : Code::kInterned;
  }
}

bool ScoreRelation::Encode(const Keys& keys, size_t row, InternMap* intern,
                           int64_t* key, uint64_t* nulls, size_t* hash) const {
  const uint32_t* ids = keys.view_->Row(row);
  *nulls = 0;
  size_t h = 0;
  for (size_t k = 0; k < width_; ++k) {
    const TypedColumn& column = *keys.columns_[k].second;
    const uint32_t id = ids[keys.columns_[k].first];
    bool null = false;
    switch (code_[k]) {
      case Code::kInt:
        key[k] = column.ints()[id];  // 0 for NULL.
        null = column.NullBit(id);
        break;
      case Code::kDict:
        key[k] = column.codes()[id];
        null = key[k] == TypedColumn::kNullCode;
        break;
      case Code::kInterned: {
        const ValueView cell = column.View(id);
        key[k] = 0;
        null = cell.is_null();
        if (null) break;
        auto it = interned_.find(cell);
        if (it == interned_.end()) {
          if (intern == nullptr) return false;
          it = intern->emplace(Value(cell), static_cast<int64_t>(interned_.size())).first;
        }
        key[k] = it->second;
        break;
      }
    }
    *nulls |= static_cast<uint64_t>(null) << k;
    h = (h ^ static_cast<uint64_t>(key[k])) * 0x9e3779b97f4a7c15ULL;
  }
  *hash = HashInt64(static_cast<int64_t>(h ^ *nulls));
  return true;
}

size_t ScoreRelation::Find(const int64_t* key, uint64_t nulls, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = (hash * 0x9e3779b97f4a7c15ULL >> 17) & mask;;
       slot = (slot + 1) & mask) {
    const uint32_t e = slots_[slot];
    if (e == kEmpty || (hashes_[e] == hash && nulls_[e] == nulls &&
                        std::equal(key, key + width_, keys_.data() + e * width_))) {
      return slot;
    }
  }
}

const ScoreConf& ScoreRelation::Lookup(const Keys& keys, size_t row) const {
  int64_t key[kMaxKeyColumns];
  uint64_t nulls = 0;
  size_t hash = 0;
  if (!Encode(keys, row, nullptr, key, &nulls, &hash)) return kDefault;
  const uint32_t e = slots_[Find(key, nulls, hash)];
  return e == kEmpty ? kDefault : pairs_[e];
}

std::vector<ScoreConf> ScoreRelation::Align(const Keys& keys) const {
  const size_t n = keys.view_->NumRows();
  if (empty()) return std::vector<ScoreConf>(n);
  std::vector<ScoreConf> pairs;
  pairs.reserve(n);
  for (size_t r = 0; r < n; ++r) pairs.push_back(Lookup(keys, r));
  return pairs;
}

void ScoreRelation::Store(const Keys& keys, size_t row, const ScoreConf& pair,
                          const AggregateFunction* agg) {
  int64_t key[kMaxKeyColumns];
  uint64_t nulls = 0;
  size_t hash = 0;
  Encode(keys, row, &interned_, key, &nulls, &hash);
  const size_t slot = Find(key, nulls, hash);
  const uint32_t e = slots_[slot];
  const ScoreConf& old = e == kEmpty ? kDefault : pairs_[e];
  const ScoreConf next = agg != nullptr ? CombineCounted(*agg, old, pair) : pair;
  live_ = live_ + (next.IsDefault() ? 0 : 1) - (old.IsDefault() ? 0 : 1);
  if (e != kEmpty) pairs_[e] = next;
  if (e != kEmpty || next.IsDefault()) return;
  slots_[slot] = static_cast<uint32_t>(pairs_.size());
  keys_.insert(keys_.end(), key, key + width_);
  nulls_.push_back(nulls);
  hashes_.push_back(hash);
  pairs_.push_back(next);
  if (2 * pairs_.size() <= slots_.size()) return;
  slots_.assign(2 * slots_.size(), kEmpty);  // Grow: re-place every entry.
  for (uint32_t i = 0; i < pairs_.size(); ++i) {
    slots_[Find(keys_.data() + i * width_, nulls_[i], hashes_[i])] = i;
  }
}

std::string ScoreRelation::Describe() const {
  const bool interned =
      std::find(code_.begin(), code_.end(), Code::kInterned) != code_.end();
  return StrFormat("keys=%s entries=%zu", interned ? "interned" : "codes", live_);
}

std::string ScoreRelation::ToString(size_t max_entries) const {
  std::string out = StrFormat("ScoreRelation [%zu entries]\n", live_);
  size_t shown = 0;
  for (size_t e = 0; e < pairs_.size(); ++e) {
    if (pairs_[e].IsDefault()) continue;
    if (shown++ >= max_entries) {
      out += StrFormat("  ... (%zu more)\n", live_ - max_entries);
      break;
    }
    out += "  (";
    for (size_t k = 0; k < width_; ++k) {
      out += k > 0 ? ", " : "";
      out += (nulls_[e] >> k & 1) != 0 ? "NULL" : std::to_string(keys_[e * width_ + k]);
    }
    out += ") -> " + pairs_[e].ToString() + "\n";
  }
  return out;
}

}  // namespace prefdb

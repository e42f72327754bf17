#include "storage/hash_index.h"

#include <algorithm>
#include <cstdint>

namespace prefdb {

namespace {

// The slots the hashed layout allocates for `keys` distinct keys: it starts
// at 16 and doubles while the keys fill more than half of it.
size_t HashedSlots(size_t keys) {
  size_t slots = 16;
  while (2 * keys > slots) slots *= 2;
  return slots;
}

}  // namespace

HashIndex::HashIndex(const TypedColumn& column)
    : column_(&column), int_keys_(column.layout() == ColumnLayout::kInt) {
  dense_ = int_keys_ && BuildDense();
  if (!dense_) BuildHashed();
}

bool HashIndex::BuildDense() {
  const size_t n = column_->size();
  const int64_t* ints = column_->ints();
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  size_t keyed = 0;  // Non-NULL rows.
  for (size_t i = 0; i < n; ++i) {
    if (column_->NullBit(static_cast<uint32_t>(i))) continue;
    lo = std::min(lo, ints[i]);
    hi = std::max(hi, ints[i]);
    ++keyed;
  }
  // The offsets array may take as many bytes as the slots would: this many
  // 4-byte entries, one more than the keys in range.
  constexpr size_t kPerSlot = sizeof(Slot) / sizeof(uint32_t);
  uint64_t span = 0;
  if (keyed > 0) {
    // hi - lo in uint64 is exact, and the test needs no width + 2 (which
    // wraps when the column holds INT64_MIN and INT64_MAX). A range too wide
    // for the slots of `keyed` distinct keys, at least as many as there
    // are, fails here, before anything is allocated.
    const uint64_t width = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (width >= kPerSlot * HashedSlots(keyed) - 1) return false;
    span = width + 1;
  }
  // Count each key's rows at its offset, and the distinct keys.
  offsets_.assign(span + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!column_->NullBit(static_cast<uint32_t>(i))) {
      ++offsets_[static_cast<uint64_t>(ints[i]) - static_cast<uint64_t>(lo)];
    }
  }
  size_t distinct = 0;
  for (uint64_t k = 0; k < span; ++k) distinct += offsets_[k] != 0 ? 1 : 0;
  if (span + 1 > kPerSlot * HashedSlots(distinct)) {
    std::vector<uint32_t>().swap(offsets_);
    return false;
  }
  // A running sum turns each count into its key's end; filling the rows in
  // reverse order then moves each entry down to its key's begin, and the
  // positions of a key ascend. The NULL rows follow every keyed row.
  uint32_t sum = 0;
  for (uint64_t k = 0; k < span; ++k) {
    sum += offsets_[k];
    offsets_[k] = sum;
  }
  offsets_[span] = sum;
  positions_.resize(n);
  null_begin_ = static_cast<uint32_t>(keyed);
  null_end_ = static_cast<uint32_t>(n);
  uint32_t null_at = null_end_;
  for (size_t i = n; i-- > 0;) {
    const auto row = static_cast<uint32_t>(i);
    if (column_->NullBit(row)) {
      positions_[--null_at] = row;
    } else {
      positions_[--offsets_[static_cast<uint64_t>(ints[i]) -
                            static_cast<uint64_t>(lo)]] = row;
    }
  }
  min_ = lo;
  span_ = span;
  num_keys_ = distinct + (keyed < n ? 1 : 0);
  return true;
}

void HashIndex::BuildHashed() {
  const TypedColumn& column = *column_;
  const size_t n = column.size();
  Resize(16);
  // Pass 1 numbers the key groups by first appearance. While it runs, a
  // used slot's `end` is its group number plus one.
  std::vector<uint32_t> group_of(n);
  std::vector<uint32_t> group_size;
  uint32_t null_group = UINT32_MAX;
  const int64_t* ints = column.ints();
  for (size_t i = 0; i < n; ++i) {
    const auto row = static_cast<uint32_t>(i);
    uint32_t group;
    if (int_keys_ && column.NullBit(row)) {
      if (null_group == UINT32_MAX) {
        null_group = static_cast<uint32_t>(num_keys_++);
        group_size.push_back(0);
      }
      group = null_group;
    } else {
      Slot* slot;
      size_t hash;
      if (int_keys_) {
        hash = HashInt64(ints[i]);
        slot = &slots_[FindInt(ints[i], hash)];
      } else {
        const ValueView key = column.View(row);
        hash = key.Hash();
        slot = &slots_[FindView(key, hash)];
      }
      if (slot->end == 0) {
        *slot = {hash, int_keys_ ? ints[i] : static_cast<int64_t>(i), 0,
                 static_cast<uint32_t>(++num_keys_)};
        group_size.push_back(0);
      }
      group = slot->end - 1;
      if (2 * num_keys_ > slots_.size()) Resize(2 * slots_.size());
    }
    group_of[i] = group;
    ++group_size[group];
  }
  // Pass 2 gives each group a range of `positions_` and fills it in row
  // order, so every key's positions ascend.
  std::vector<uint32_t> group_begin(num_keys_);
  uint32_t offset = 0;
  for (size_t g = 0; g < num_keys_; ++g) {
    group_begin[g] = offset;
    offset += group_size[g];
  }
  std::vector<uint32_t> cursor = group_begin;  // Ends at each range's end.
  positions_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    positions_[cursor[group_of[i]]++] = static_cast<uint32_t>(i);
  }
  for (Slot& slot : slots_) {
    if (slot.end == 0) continue;
    const uint32_t group = slot.end - 1;
    slot.begin = group_begin[group];
    slot.end = cursor[group];
  }
  if (null_group != UINT32_MAX) {
    null_begin_ = group_begin[null_group];
    null_end_ = cursor[null_group];
  }
}

size_t HashIndex::FindView(const ValueView& key, size_t hash) const {
  size_t s = Home(hash);
  while (slots_[s].end != 0 &&
         (slots_[s].hash != hash ||
          column_->View(static_cast<uint32_t>(slots_[s].key)) != key)) {
    s = (s + 1) & mask_;
  }
  return s;
}

void HashIndex::Resize(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  // Used slots hold distinct keys, so each lands in the first unused slot
  // from its home.
  for (const Slot& slot : old) {
    if (slot.end == 0) continue;
    size_t s = Home(slot.hash);
    while (slots_[s].end != 0) s = (s + 1) & mask_;
    slots_[s] = slot;
  }
}

std::span<const uint32_t> HashIndex::Lookup(const ValueView& key) const {
  if (int_keys_) {
    switch (key.type) {
      case ValueType::kNull:
        return {positions_.data() + null_begin_, null_end_ - null_begin_};
      case ValueType::kInt:
        return LookupInt(key.i);
      case ValueType::kDouble: {
        // Only a double holding exactly an int64 equals an int key.
        int64_t i;
        if (ExactInt64(key.d, &i)) return LookupInt(i);
        return {};
      }
      case ValueType::kString:
        return {};
    }
  }
  const Slot& slot = slots_[FindView(key, key.Hash())];
  return {positions_.data() + slot.begin, slot.end - slot.begin};
}

}  // namespace prefdb

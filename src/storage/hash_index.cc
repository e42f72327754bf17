#include "storage/hash_index.h"

namespace prefdb {

HashIndex::HashIndex(const Relation& relation, size_t column_index) {
  const std::vector<Tuple>& rows = relation.rows();
  Resize(16);
  // Pass 1 numbers the key groups by first appearance. While it runs, a
  // used slot's `end` is its group number.
  std::vector<uint32_t> group_of(rows.size());
  std::vector<uint32_t> group_size;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value& key = rows[i][column_index];
    const size_t hash = key.Hash();
    Slot& slot = slots_[Find(key, hash)];
    if (slot.key == nullptr) {
      slot = {hash, &key, 0, static_cast<uint32_t>(num_keys_++)};
      group_size.push_back(0);
    }
    group_of[i] = slot.end;
    ++group_size[slot.end];
    if (2 * num_keys_ > slots_.size()) Resize(2 * slots_.size());
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
  positions_.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    positions_[cursor[group_of[i]]++] = static_cast<uint32_t>(i);
  }
  for (Slot& slot : slots_) {
    if (slot.key == nullptr) continue;
    const uint32_t group = slot.end;
    slot.begin = group_begin[group];
    slot.end = cursor[group];
  }
}

size_t HashIndex::Find(const Value& key, size_t hash) const {
  size_t s = Home(hash);
  while (slots_[s].key != nullptr &&
         (slots_[s].hash != hash || *slots_[s].key != key)) {
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
    if (slot.key == nullptr) continue;
    size_t s = Home(slot.hash);
    while (slots_[s].key != nullptr) s = (s + 1) & mask_;
    slots_[s] = slot;
  }
}

std::span<const uint32_t> HashIndex::Lookup(const Value& key) const {
  const Slot& slot = slots_[Find(key, key.Hash())];
  if (slot.key == nullptr) return {};
  return {positions_.data() + slot.begin, slot.end - slot.begin};
}

}  // namespace prefdb

#ifndef PREFDB_STORAGE_HASH_INDEX_H_
#define PREFDB_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/column_store.h"
#include "types/value.h"

namespace prefdb {

/// An equality index over one typed column (storage/column_store.h): maps
/// a column value to the row positions holding it. This is the substrate's
/// stand-in for the B-tree/hash indexes a disk-based engine would expose
/// (cf. paper heuristic 4's rationale: base relations are likely
/// index-accessible, join products are not). Base tables keep one per
/// (table, column) once built (Table::EnsureIndex): the native executor
/// serves `col = literal` scans and joins whose build side is a full base
/// table scan from it, and membership preferences probe the member table's.
///
/// Layout: where a kInt column's non-NULL keys span a range [min, max]
/// whose offsets array (4 bytes per key in range, plus one) is no larger
/// than the slot array the hashed layout would allocate, the index is
/// direct-addressed (CSR): key k's rows are `positions[offsets[k - min] ..
/// offsets[k - min + 1])`, and a probe is one subtraction and a bounds
/// check. The column alone decides this at build time; surrogate ids, the
/// join keys of every Table II query, are dense.
///
/// Any other column is hashed: open addressing over slots `{hash, key,
/// begin, end}`, sized to about twice the number of distinct keys (not
/// rows). A slot names the range of `positions` that holds its key's row
/// positions. Over a kInt column the key is the int64 itself, inline in the
/// slot, and a probe compares integers. Over any other layout `key` is the
/// row of the key's first occurrence, and probes compare against the column
/// in place. The indexed column must therefore outlive the index.
///
/// In both layouts a key's positions ascend, and the NULL rows of a kInt
/// column are one range of their own.
///
/// Keys match by Value::operator== (Int(1) and Double(1.0) are one key,
/// Int(2^53 + 1) and Double(2^53) are not), and NULL is a key like any
/// other: `Lookup(NULL)` returns the NULL rows and NumKeys() counts NULL
/// once. Joins, which follow SQL `=`, skip NULL probe keys themselves.
class HashIndex {
 public:
  /// Builds the index over `column`.
  explicit HashIndex(const TypedColumn& column);

  /// Row positions whose value equals `key`, ascending (empty if none).
  std::span<const uint32_t> Lookup(const ValueView& key) const;
  std::span<const uint32_t> Lookup(const Value& key) const {
    return Lookup(key.view());
  }
  /// Lookup(ValueView::Int(key)); over a kInt column, one inline probe.
  std::span<const uint32_t> LookupInt(int64_t key) const {
    if (dense_) {
      const uint64_t at = DenseOffset(key);
      if (at >= span_) return {};
      return {positions_.data() + offsets_[at], offsets_[at + 1] - offsets_[at]};
    }
    if (!int_keys_) return Lookup(ValueView::Int(key));
    const Slot& slot = slots_[FindInt(key, HashInt64(key))];
    return {positions_.data() + slot.begin, slot.end - slot.begin};
  }

  /// True when the index keys are the int64 values of a kInt column, so
  /// LookupInt and PrefetchInt take the inline path.
  bool int_keys() const { return int_keys_; }
  /// True when the index is direct-addressed (the CSR layout above).
  bool dense() const { return dense_; }

  /// Starts loading the offsets entry or slot a LookupInt(key) begins at
  /// into the cache. A probe loop over a persistent (hence often cold) index
  /// issues it a few keys ahead, so the misses of consecutive probes
  /// overlap.
  void PrefetchInt(int64_t key) const {
    if (dense_) {
      const uint64_t at = DenseOffset(key);
      if (at < span_) __builtin_prefetch(&offsets_[at]);
      return;
    }
    __builtin_prefetch(&slots_[Home(HashInt64(key))]);
  }
  void Prefetch(const ValueView& key) const {
    if (dense_) {
      if (key.type == ValueType::kInt) PrefetchInt(key.i);
      return;
    }
    __builtin_prefetch(&slots_[Home(key.Hash())]);
  }

  /// Number of distinct keys.
  size_t NumKeys() const { return num_keys_; }

 private:
  struct Slot {
    size_t hash = 0;
    int64_t key = 0;  // The int key, or the row of the key's first occurrence.
    uint32_t begin = 0;
    uint32_t end = 0;  // 0 marks an unused slot (a used range is non-empty).
  };

  // The offset of int key `key` from the dense range's minimum; wraps to a
  // value >= span_ below the minimum, so one comparison bounds it.
  uint64_t DenseOffset(int64_t key) const {
    return static_cast<uint64_t>(key) - static_cast<uint64_t>(min_);
  }
  size_t Home(size_t hash) const {
    return (hash * 0x9e3779b97f4a7c15ULL >> 17) & mask_;
  }
  // The slot holding int key `key` of a hashed int-keyed index, or the
  // unused slot where it would go.
  size_t FindInt(int64_t key, size_t hash) const {
    size_t s = Home(hash);
    while (slots_[s].end != 0 && (slots_[s].hash != hash || slots_[s].key != key)) {
      s = (s + 1) & mask_;
    }
    return s;
  }
  // Likewise for a non-NULL key of a column of any other layout.
  size_t FindView(const ValueView& key, size_t hash) const;
  // Sets the slot table to `capacity` (a power of two) slots and re-inserts
  // the used slots of the old one by hash.
  void Resize(size_t capacity);
  // Builds the dense layout over a kInt column, or returns false (leaving
  // the index empty) when the offsets array would be larger than the slots.
  bool BuildDense();
  void BuildHashed();

  const TypedColumn* column_;
  bool int_keys_;
  bool dense_ = false;
  size_t num_keys_ = 0;
  std::vector<uint32_t> positions_;  // Row positions grouped by key.
  // The NULL rows of an int-keyed index (NULL keys of other layouts have a
  // slot like any key).
  uint32_t null_begin_ = 0;
  uint32_t null_end_ = 0;
  // Dense layout: keys min_ .. min_ + span_ - 1, span_ + 1 offsets.
  int64_t min_ = 0;
  uint64_t span_ = 0;
  std::vector<uint32_t> offsets_;
  // Hashed layout.
  size_t mask_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace prefdb

#endif  // PREFDB_STORAGE_HASH_INDEX_H_

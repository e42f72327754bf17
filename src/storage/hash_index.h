#ifndef PREFDB_STORAGE_HASH_INDEX_H_
#define PREFDB_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "types/relation.h"
#include "types/value.h"

namespace prefdb {

/// An equality index over one column of a materialized relation: maps a
/// column value to the row positions holding it. This is the substrate's
/// stand-in for the B-tree/hash indexes a disk-based engine would expose
/// (cf. paper heuristic 4's rationale: base relations are likely
/// index-accessible, join products are not). Base tables keep one per
/// (table, column) once built (Table::EnsureIndex): the native executor
/// serves `col = literal` scans and joins whose build side is a full base
/// table scan from it, and membership preferences probe the member table's.
/// The p-algebra's hash joins build a transient one over their right input.
///
/// Layout: open addressing over slots `{hash, key, begin, end}`, sized to
/// about twice the number of distinct keys (not rows). A slot names the
/// range of one `positions` array that holds its key's row positions,
/// ascending. Keys are not copied: `key` points at the key's first
/// occurrence in the relation, and probes compare against it in place. The
/// indexed relation must therefore outlive the index and stay unmodified.
///
/// Keys match by Value::operator== (Int(1) and Double(1.0) are one key),
/// and NULL is a key like any other: `Lookup(NULL)` returns the NULL rows
/// and NumKeys() counts NULL once. Joins, which follow SQL `=`, skip NULL
/// probe keys themselves.
class HashIndex {
 public:
  /// Builds the index over `relation`'s column at `column_index`.
  HashIndex(const Relation& relation, size_t column_index);

  /// Row positions whose column equals `key`, ascending (empty if none).
  std::span<const uint32_t> Lookup(const Value& key) const;

  /// Starts loading the slot a Lookup(key) begins at into the cache. A
  /// probe loop over a persistent (hence often cold) index issues it a few
  /// keys ahead, so the slot misses of consecutive probes overlap.
  void Prefetch(const Value& key) const {
    __builtin_prefetch(&slots_[Home(key.Hash())]);
  }

  /// Number of distinct keys.
  size_t NumKeys() const { return num_keys_; }

 private:
  struct Slot {
    size_t hash = 0;
    const Value* key = nullptr;  // Null marks an unused slot.
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  size_t Home(size_t hash) const {
    return (hash * 0x9e3779b97f4a7c15ULL >> 17) & mask_;
  }
  // The slot holding `key`, or the unused slot where it would go.
  size_t Find(const Value& key, size_t hash) const;
  // Sets the slot table to `capacity` (a power of two) slots and re-inserts
  // the used slots of the old one by hash.
  void Resize(size_t capacity);

  size_t num_keys_ = 0;
  size_t mask_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> positions_;  // Row positions grouped by key.
};

}  // namespace prefdb

#endif  // PREFDB_STORAGE_HASH_INDEX_H_

#ifndef PREFDB_CACHE_FINGERPRINT_H_
#define PREFDB_CACHE_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/status.h"
#include "plan/plan.h"
#include "prefs/preference.h"
#include "storage/catalog.h"

namespace prefdb {
namespace cache {

/// A 128-bit cache key: two independently seeded 64-bit FNV-1a lanes over
/// the same canonical byte stream. FNV alone is too collidable to gate the
/// correctness of served results on; two lanes push accidental collisions
/// far below the workload sizes this system will ever see, while keeping
/// fingerprinting allocation-free and dependency-free.
struct CacheKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const CacheKey& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator!=(const CacheKey& other) const { return !(*this == other); }

  /// Renders "hi:lo" in hex (diagnostics).
  std::string ToString() const;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    return static_cast<size_t>(key.hi ^ (key.lo * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental dual-lane hasher. Every Mix feeds both lanes; structural
/// tags keep differently shaped streams from colliding byte-wise.
class Fingerprinter {
 public:
  void Mix(std::string_view s) {
    hi_ = FnvMix(hi_, s);
    lo_ = FnvMix(lo_, s);
  }
  void Mix(uint64_t v) {
    hi_ = FnvMix(hi_, v);
    lo_ = FnvMix(lo_, v);
  }
  void Mix(double v) {
    hi_ = FnvMix(hi_, v);
    lo_ = FnvMix(lo_, v);
  }
  void Mix(const CacheKey& key) {
    Mix(key.hi);
    Mix(key.lo);
  }
  /// A one-byte structural marker (node boundary, field kind).
  void Tag(char code) {
    hi_ = FnvMixBytes(hi_, &code, 1);
    lo_ = FnvMixBytes(lo_, &code, 1);
  }

  CacheKey Key() const { return {hi_, lo_}; }

 private:
  uint64_t hi_ = kFnvOffsetBasis;
  // The second lane starts from a different basis so the lanes stay
  // decorrelated despite hashing identical bytes.
  uint64_t lo_ = 0x9ae16a3b2f90404full;
};

/// The fingerprint of a plan tree.
struct PlanFingerprint {
  CacheKey key;
  /// False when the plan references a strategy-registered temporary table:
  /// temp names/versions are unique per region evaluation, so such entries
  /// could never hit again and are not worth a cache slot.
  bool cacheable = true;
};

/// Canonical fingerprint of `plan`: a stable hash over the tree's structure
/// (operator kinds, predicates and scoring via their deterministic
/// renderings, preference content hashes) plus the *version* of every
/// referenced table (Table::version), so reloading or mutating a table
/// silently invalidates all dependent entries — stale results can never be
/// served. `seed` folds engine-level execution modes into the key (the
/// native-optimizer toggle: an unoptimized execution may order rows
/// differently). Fails only if a referenced table is missing from the
/// catalog.
StatusOr<PlanFingerprint> FingerprintPlan(const PlanNode& plan,
                                          const Catalog& catalog,
                                          uint64_t seed = 0);

}  // namespace cache
}  // namespace prefdb

#endif  // PREFDB_CACHE_FINGERPRINT_H_

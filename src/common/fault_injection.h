#ifndef PREFDB_COMMON_FAULT_INJECTION_H_
#define PREFDB_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/status.h"

namespace prefdb {

/// Deterministic fault-injection registry. Production code declares named
/// fault points (dotted lowercase `layer.site`, e.g. "engine.execute",
/// "cache.insert" — DESIGN.md §14 lists them all); tests arm exactly one
/// point — via Arm(), the `SET FAULT '<point>' [AFTER <n>]` pragma, or the
/// PREFDB_FAULT env var (`point` or `point:<n>`) — and the armed point's
/// (n+1)-th Hit() returns an Internal error instead of OK.
///
/// Firing is one-shot: the registry disarms itself when the fault fires, so
/// a test can assert "this query fails, the next one succeeds, no state
/// was poisoned in between".
///
/// Cost when nothing is armed — the only state production ever runs in —
/// is a single relaxed atomic load per fault point; no string compare, no
/// lock, no allocation.
class FaultInjection {
 public:
  static FaultInjection& Global();

  /// Arms `point`; its next `skip` hits pass, the one after fails.
  void Arm(std::string point, uint64_t skip = 0);
  /// Disarms whatever is armed (idempotent). Tests call this in teardown.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed) != 0; }
  std::string armed_point() const;
  /// Total faults fired since process start (pref.governor.faults_injected
  /// mirrors this per-session).
  uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }

  /// A named fault point in fallible code:
  ///   RETURN_IF_ERROR(FaultInjection::Global().Hit("engine.execute"));
  Status Hit(std::string_view point) {
    if (armed_.load(std::memory_order_relaxed) == 0) return Status::OK();
    return HitSlow(point);
  }

 private:
  FaultInjection();  // Arms from the PREFDB_FAULT env var when set.
  Status HitSlow(std::string_view point);

  std::atomic<int> armed_{0};
  std::atomic<uint64_t> fired_{0};
  mutable Mutex mu_;
  std::string point_ PREFDB_GUARDED_BY(mu_);
  uint64_t remaining_skips_ PREFDB_GUARDED_BY(mu_) = 0;
};

}  // namespace prefdb

#endif  // PREFDB_COMMON_FAULT_INJECTION_H_

#ifndef PREFDB_COMMON_GOVERNOR_H_
#define PREFDB_COMMON_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/status.h"

namespace prefdb {

/// External cancellation handle: the caller keeps the token, hands it to a
/// query via QueryOptions, and may flip it from any thread while the query
/// runs. The governor observes it at every checkpoint.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query cooperative governor: wall-clock deadline, cooperative memory
/// budget and cancellation, consulted at checkpoints (operator entry, the
/// kernels' row loops and governor tickers, materialization sites). One
/// instance lives on the session stack for the duration of one query.
///
/// Tripping is sticky and first-wins: the first trip's code and message are
/// what every later Check() reports, so a deadline that fires on one worker
/// cannot be re-reported as a cancellation by another.
///
/// Thread contract: the Arm*/Attach* setters run before the query starts
/// (single-threaded setup); Check(), ChargeBytes() and Cancel() are safe
/// from any thread while it runs. Check/ChargeBytes are const so governed
/// code can hold `const QueryGovernor*` — the mutable state behind them is
/// atomics plus one mutex-guarded message.
class QueryGovernor {
 public:
  QueryGovernor() = default;
  QueryGovernor(const QueryGovernor&) = delete;
  QueryGovernor& operator=(const QueryGovernor&) = delete;

  /// Arms a wall-clock deadline `timeout_ms` from now. Negative means no
  /// deadline (the default); 0 trips at the first checkpoint.
  void ArmDeadline(double timeout_ms);

  /// Arms a cooperative memory budget: cumulative bytes charged through
  /// ChargeBytes() may not exceed `limit_bytes`. 0 (the default) disarms
  /// the accountant entirely — charge sites then cost one load.
  void ArmMemoryLimit(size_t limit_bytes) { limit_bytes_ = limit_bytes; }

  /// Observes an additional, caller-owned token (QueryOptions::cancel_token)
  /// so a query can be cancelled without a pointer to the governor itself.
  void AttachToken(const CancellationToken* token) { external_ = token; }

  /// Requests cancellation; the query unwinds at its next checkpoint.
  void Cancel() { token_.Cancel(); }

  /// Cancellation flag + deadline clock. OK while the query may continue;
  /// the (sticky) trip status once any limit fired.
  Status Check() const;

  /// Charges `bytes` of materialized relation/temp-table memory against the
  /// armed budget. No-op (one load) when no budget is armed.
  Status ChargeBytes(size_t bytes) const;

  bool tripped() const {
    return tripped_code_.load(std::memory_order_acquire) != StatusCode::kOk;
  }
  /// True when a memory budget is armed. Charge sites that must *compute*
  /// the byte estimate (an O(rows) walk) test this first so the ungoverned
  /// path stays free.
  bool memory_armed() const { return limit_bytes_ != 0; }
  /// The first trip's status; OK when not tripped.
  Status trip_status() const;
  size_t charged_bytes() const {
    return charged_bytes_.load(std::memory_order_relaxed);
  }

 private:
  Status Trip(StatusCode code, std::string message) const;

  CancellationToken token_;
  const CancellationToken* external_ = nullptr;
  bool deadline_armed_ = false;
  double timeout_ms_ = -1.0;
  std::chrono::steady_clock::time_point deadline_{};
  size_t limit_bytes_ = 0;

  mutable std::atomic<size_t> charged_bytes_{0};
  mutable std::atomic<StatusCode> tripped_code_{StatusCode::kOk};
  mutable Mutex mu_;
  mutable std::string trip_message_ PREFDB_GUARDED_BY(mu_);
};

/// The unwinding vehicle for governor trips inside void contexts — row
/// loops, ParallelInvoke functions — where a Status cannot be returned. It
/// rides the existing exception plumbing (ParallelInvoke captures each
/// function's exception and rethrows the lowest-indexed one after every
/// function has finished; scope guards such as GBU's TempTableGuard release
/// their resources during the unwind). The
/// public API still never throws: Session::Run and Engine::ExecuteConcurrent
/// convert it back to the carried Status at the subsystem boundary.
class QueryAbortedException : public std::exception {
 public:
  explicit QueryAbortedException(Status status)
      : status_(std::move(status)), what_(status_.ToString()) {}
  const Status& status() const { return status_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  Status status_;
  std::string what_;
};

/// Cancellation checkpoint for void contexts: no-op on a null governor (one
/// pointer test — the untripped/ungoverned fast path); throws
/// QueryAbortedException once the governor trips. Each operator kernel
/// calls it once as its row loop starts.
inline void GovernorCheckpoint(const QueryGovernor* governor) {
  if (governor == nullptr) return;
  Status status = governor->Check();
  if (!status.ok()) throw QueryAbortedException(std::move(status));
}

/// Status-returning checkpoint for fallible contexts (operator entry).
inline Status GovernorCheck(const QueryGovernor* governor) {
  if (governor == nullptr) return Status::OK();
  return governor->Check();
}

/// Amortizes GovernorCheckpoint over the iterations of an inner loop, so
/// long row loops (the nested-loop join, prefer evaluation) notice a trip
/// mid-loop: cancellation latency is bounded to `period` ticks.
class GovernorTicker {
 public:
  explicit GovernorTicker(const QueryGovernor* governor,
                          uint32_t period = 1024)
      : governor_(governor), period_(period), left_(period) {}

  void Tick() {
    if (governor_ == nullptr) return;
    if (--left_ == 0) {
      left_ = period_;
      GovernorCheckpoint(governor_);
    }
  }

 private:
  const QueryGovernor* governor_;
  uint32_t period_;
  uint32_t left_;
};

}  // namespace prefdb

#endif  // PREFDB_COMMON_GOVERNOR_H_

#ifndef PREFDB_OBS_METRICS_H_
#define PREFDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace prefdb {
namespace obs {

/// A monotonically increasing named counter. Increments are relaxed atomics:
/// counters are telemetry, not synchronization — readers only ever see a
/// consistent (possibly slightly stale) total.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time instantaneous value (queue depth, resident bytes):
/// unlike a Counter it can move in both directions. Reads and writes are
/// relaxed atomics over the double's bit pattern — a gauge is telemetry,
/// not synchronization. Handles from MetricsRegistry::gauge() are stable,
/// so refresh paths resolve a name once and then Set() lock-free.
class Gauge {
 public:
  void Set(double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double value() const {
    uint64_t bits = bits_.load(std::memory_order_relaxed);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

 private:
  std::atomic<uint64_t> bits_{0};  // Bit pattern of 0.0.
};

/// A fixed-bucket histogram for latency-like values (microseconds by
/// convention). Bucket `i` counts samples with value <= bounds[i]; one
/// implicit overflow bucket catches everything above the last bound. The
/// boundaries are fixed at construction — recording is an index computation
/// plus one relaxed atomic increment, safe from any thread.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Record(double value);

  /// Index of the bucket `value` falls into (the overflow bucket is index
  /// `upper_bounds().size()`). Exposed for the boundary tests.
  size_t BucketIndex(double value) const;

  const std::vector<double>& upper_bounds() const { return bounds_; }
  size_t bucket_count() const { return buckets_.size(); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t total_count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of recorded values (for mean derivation).
  double sum() const;

  /// Value below which `quantile` (in [0, 1]) of the samples fall, estimated
  /// as the upper bound of the bucket containing that rank (the overflow
  /// bucket reports the last finite bound). 0 when empty.
  double QuantileUpperBound(double quantile) const;

  /// The default latency bucket ladder: exponential from 10us to ~100s.
  static std::vector<double> DefaultLatencyBucketsMicros();

  std::string ToString() const;

 private:
  std::vector<double> bounds_;                   // Ascending upper bounds.
  std::vector<std::atomic<uint64_t>> buckets_;   // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};            // CAS-accumulated double.
};

/// A registry of named counters, gauges and histograms — the system's
/// metrics backbone. Handles returned by counter()/histogram() are stable
/// for the registry's lifetime, so hot paths resolve a name once and then
/// increment lock-free. Snapshots render in sorted name order, so exported
/// metrics are deterministic for deterministic counter values.
///
/// One registry instance lives in each Engine (per-database query metrics);
/// Global() serves process-wide subsystems (the shared thread pool).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  Counter* counter(std::string_view name);
  /// counter(name), co-owned by the caller: for a holder that may outlive
  /// the registry (a query's late-materialized answer counts the rows it
  /// builds whenever it is read).
  std::shared_ptr<Counter> SharedCounter(std::string_view name);

  /// Returns the histogram registered under `name`, creating it with
  /// `upper_bounds` (or the default latency ladder when empty) on first use.
  Histogram* histogram(std::string_view name,
                       std::vector<double> upper_bounds = {});

  /// Returns the gauge registered under `name`, creating it on first use.
  Gauge* gauge(std::string_view name);

  /// Sets the gauge registered under `name` (e.g. a snapshot of another
  /// subsystem's internal counter). Convenience over gauge(name)->Set().
  void SetGauge(std::string_view name, double value);

  /// Registers a hook run at the start of every export (ToString/ToJson/
  /// ToPrometheus), before the snapshot is taken — the mechanism behind
  /// "live" gauges: a subsystem registers a hook that publishes its current
  /// occupancy/depth/bytes, so scrapes always see fresh values without the
  /// hot paths paying for continuous updates. Hooks run outside the
  /// registry lock and may therefore call SetGauge()/counter() freely; they
  /// must not call an export function (ToString/ToJson/ToPrometheus) or
  /// they would recurse. Whatever a hook captures must outlive the
  /// registry's last export.
  void AddRefreshHook(std::function<void()> hook);

  /// All metrics, one per line, sorted by name — the deterministic export.
  std::string ToString() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// with keys in sorted order. Keys are JSON-escaped.
  std::string ToJson() const;

  /// Prometheus text exposition (version 0.0.4): one `# TYPE` line and one
  /// sample per counter/gauge, cumulative `_bucket{le="..."}` series plus
  /// `_sum`/`_count` per histogram. Metric names are sanitized to the
  /// Prometheus grammar ('.' and any other illegal character map to '_'),
  /// and families render in sorted name order — deterministic for
  /// deterministic values, like the other exports. Served at /metrics by
  /// obs::TelemetryServer.
  std::string ToPrometheus() const;

  /// The process-wide registry.
  static MetricsRegistry& Global();

 private:
  /// Runs every registered refresh hook (outside mu_).
  void RunRefreshHooks() const;

  mutable Mutex mu_;
  // The maps are guarded; the Counter/Gauge/Histogram objects they point to
  // are internally atomic and accessed lock-free through stable pointers.
  std::map<std::string, std::shared_ptr<Counter>> counters_
      PREFDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      PREFDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ PREFDB_GUARDED_BY(mu_);
  // Hooks get their own lock so a running hook can call SetGauge() (which
  // takes mu_) without self-deadlock.
  mutable Mutex hooks_mu_;
  std::vector<std::function<void()>> hooks_ PREFDB_GUARDED_BY(hooks_mu_);
};

}  // namespace obs
}  // namespace prefdb

#endif  // PREFDB_OBS_METRICS_H_

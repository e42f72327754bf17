#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/string_util.h"

namespace prefdb {
namespace obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

size_t Histogram::BucketIndex(double value) const {
  // First bucket whose upper bound is >= value; ties land in the bounded
  // bucket (bounds are inclusive upper limits).
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
             bounds_.begin();
  return i;  // bounds_.size() is the overflow bucket.
}

void Histogram::Record(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Accumulate the sum with a CAS loop over the double's bit pattern.
  uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double current;
    std::memcpy(&current, &observed, sizeof(current));
    double next = current + value;
    uint64_t next_bits;
    std::memcpy(&next_bits, &next, sizeof(next_bits));
    if (sum_bits_.compare_exchange_weak(observed, next_bits,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
}

double Histogram::sum() const {
  uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

double Histogram::QuantileUpperBound(double quantile) const {
  uint64_t total = total_count();
  if (total == 0 || bounds_.empty()) return 0.0;
  quantile = std::clamp(quantile, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(quantile * total));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += bucket(i);
    if (seen >= rank) {
      return bounds_[std::min(i, bounds_.size() - 1)];
    }
  }
  return bounds_.back();
}

std::vector<double> Histogram::DefaultLatencyBucketsMicros() {
  // 10us .. 100s, half-decade steps: wide enough for a single operator and
  // a full workload query alike.
  std::vector<double> bounds;
  for (double b = 10.0; b <= 1e8; b *= std::sqrt(10.0)) {
    bounds.push_back(std::round(b));
  }
  return bounds;
}

std::string Histogram::ToString() const {
  uint64_t total = total_count();
  std::string out = StrFormat("count=%llu sum=%.3f",
                              static_cast<unsigned long long>(total), sum());
  if (total > 0) {
    out += StrFormat(" p50<=%.0f p95<=%.0f p99<=%.0f",
                     QuantileUpperBound(0.5), QuantileUpperBound(0.95),
                     QuantileUpperBound(0.99));
  }
  return out;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  return SharedCounter(name).get();
}

std::shared_ptr<Counter> MetricsRegistry::SharedCounter(std::string_view name) {
  MutexLock lock(&mu_);
  std::shared_ptr<Counter>& slot = counters_[std::string(name)];
  if (slot == nullptr) slot = std::make_shared<Counter>();
  return slot;
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  MutexLock lock(&mu_);
  std::unique_ptr<Histogram>& slot = histograms_[std::string(name)];
  if (slot == nullptr) {
    if (upper_bounds.empty()) {
      upper_bounds = Histogram::DefaultLatencyBucketsMicros();
    }
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return slot.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Gauge>& slot = gauges_[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  gauge(name)->Set(value);
}

void MetricsRegistry::AddRefreshHook(std::function<void()> hook) {
  MutexLock lock(&hooks_mu_);
  hooks_.push_back(std::move(hook));
}

void MetricsRegistry::RunRefreshHooks() const {
  // Copy under the hooks lock, run outside it: a hook calls SetGauge()
  // (which takes mu_), and holding hooks_mu_ across user code would invite
  // lock-order surprises for no benefit.
  std::vector<std::function<void()>> hooks;
  {
    MutexLock lock(&hooks_mu_);
    hooks = hooks_;
  }
  for (const std::function<void()>& hook : hooks) hook();
}

std::string MetricsRegistry::ToString() const {
  RunRefreshHooks();
  MutexLock lock(&mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += StrFormat("%s = %llu\n", name.c_str(),
                     static_cast<unsigned long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out += StrFormat("%s = %.3f\n", name.c_str(), gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    out += StrFormat("%s: %s\n", name.c_str(), histogram->ToString().c_str());
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  RunRefreshHooks();
  MutexLock lock(&mu_);
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += StrFormat("%s\"%s\": %llu", first ? "" : ", ",
                     JsonEscape(name).c_str(),
                     static_cast<unsigned long long>(counter->value()));
    first = false;
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += StrFormat("%s\"%s\": %.3f", first ? "" : ", ",
                     JsonEscape(name).c_str(), gauge->value());
    first = false;
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += StrFormat(
        "%s\"%s\": {\"count\": %llu, \"sum\": %.3f, \"p50\": %.0f, "
        "\"p95\": %.0f, \"p99\": %.0f}",
        first ? "" : ", ", JsonEscape(name).c_str(),
        static_cast<unsigned long long>(histogram->total_count()),
        histogram->sum(), histogram->QuantileUpperBound(0.5),
        histogram->QuantileUpperBound(0.95), histogram->QuantileUpperBound(0.99));
    first = false;
  }
  out += "}}";
  return out;
}

namespace {

/// Maps a dotted prefdb metric name onto the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every illegal character becomes '_', and a
/// leading digit gets a '_' prefix. Deterministic, so two scrapes of the
/// same registry agree on every family name.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  RunRefreshHooks();
  MutexLock lock(&mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    std::string prom = PrometheusName(name);
    out += StrFormat("# TYPE %s counter\n%s %llu\n", prom.c_str(),
                     prom.c_str(),
                     static_cast<unsigned long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string prom = PrometheusName(name);
    out += StrFormat("# TYPE %s gauge\n%s %.6g\n", prom.c_str(), prom.c_str(),
                     gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    std::string prom = PrometheusName(name);
    out += StrFormat("# TYPE %s histogram\n", prom.c_str());
    uint64_t cumulative = 0;
    const std::vector<double>& bounds = histogram->upper_bounds();
    for (size_t i = 0; i < bounds.size(); ++i) {
      cumulative += histogram->bucket(i);
      out += StrFormat("%s_bucket{le=\"%g\"} %llu\n", prom.c_str(), bounds[i],
                       static_cast<unsigned long long>(cumulative));
    }
    cumulative += histogram->bucket(bounds.size());  // Overflow bucket.
    out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", prom.c_str(),
                     static_cast<unsigned long long>(cumulative));
    out += StrFormat("%s_sum %.6f\n", prom.c_str(), histogram->sum());
    out += StrFormat("%s_count %llu\n", prom.c_str(),
                     static_cast<unsigned long long>(histogram->total_count()));
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally, like ThreadPool::Shared(): telemetry may be
  // recorded from worker threads during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace prefdb

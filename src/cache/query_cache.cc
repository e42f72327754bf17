#include "cache/query_cache.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/metric_names.h"

namespace prefdb {
namespace cache {

namespace {

// The capacity of a copy of `s`: copies allocate exactly the length, or
// use the in-place buffer when it fits.
size_t CopyCapacity(std::string_view s) {
  static const size_t kInPlace = std::string().capacity();
  return std::max(s.size(), kInPlace);
}

size_t EstimateValueBytes(const ValueView& value) {
  size_t bytes = sizeof(Value);
  if (value.type == ValueType::kString) bytes += CopyCapacity(value.s);
  return bytes;
}

size_t SchemaBytes(const Schema& schema) {
  size_t bytes = 0;
  for (size_t i = 0; i < schema.size(); ++i) {
    bytes += sizeof(Column) + CopyCapacity(schema.column(i).name) +
             CopyCapacity(schema.column(i).qualifier);
  }
  return bytes;
}

}  // namespace

size_t EstimateViewBytes(const RowView& view) {
  const Schema& schema = view.schema;
  size_t bytes = sizeof(Relation) + SchemaBytes(schema);
  for (size_t r = 0; r < view.NumRows(); ++r) {
    bytes += sizeof(Tuple);
    for (size_t c = 0; c < schema.size(); ++c) {
      bytes += EstimateValueBytes(view.View(r, c));
    }
  }
  return bytes;
}

size_t EstimateEntryBytes(const CachedResult& entry) {
  return sizeof(CachedResult) + SchemaBytes(entry.schema) +
         entry.key_columns.size() * sizeof(size_t) + entry.rows.Bytes();
}

size_t EstimatePairsBytes(const std::vector<ScoreConf>& pairs) {
  return sizeof(pairs) + pairs.size() * sizeof(ScoreConf);
}

QueryCache::QueryCache(obs::MetricsRegistry* metrics, size_t max_bytes)
    : max_bytes_(max_bytes), metrics_(metrics) {
  if (metrics_ != nullptr) {
    hit_counter_ = metrics_->counter(obs::kPrefCacheHits);
    miss_counter_ = metrics_->counter(obs::kPrefCacheMisses);
    eviction_counter_ = metrics_->counter(obs::kPrefCacheEvictions);
    admission_counter_ = metrics_->counter(obs::kPrefCacheAdmissionRejected);
    PublishGauges();
  }
}

void QueryCache::set_max_bytes(size_t max_bytes) {
  max_bytes_.store(max_bytes, std::memory_order_relaxed);
  size_t budget = ShardBudget();
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    EvictLocked(&shard, budget);
  }
  PublishGauges();
}

void QueryCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    entry_count_.fetch_sub(shard.index.size(), std::memory_order_relaxed);
    total_bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
    shard.index.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
  PublishGauges();
}

std::shared_ptr<const CachedResult> QueryCache::Lookup(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<const CachedResult> result;
  {
    MutexLock lock(&shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      result = it->second->second;
    }
  }
  if (result != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit_counter_ != nullptr) hit_counter_->Increment();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (miss_counter_ != nullptr) miss_counter_->Increment();
  }
  return result;
}

Admission QueryCache::Admit(size_t bytes, const ExecStats& stats) {
  Admission verdict = Admission::kAdmitted;
  if (bytes > ShardBudget()) {
    verdict = Admission::kOversize;
  } else if (stats.rows_scanned + stats.tuples_materialized == 0) {
    verdict = Admission::kTrivial;
  }
  if (verdict != Admission::kAdmitted) {
    admission_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (admission_counter_ != nullptr) admission_counter_->Increment();
  }
  return verdict;
}

void QueryCache::Insert(const CacheKey& key,
                        std::shared_ptr<CachedResult> value) {
  if (value == nullptr) return;
  if (value->bytes == 0) value->bytes = EstimateEntryBytes(*value);
  if (Admit(value->bytes, value->stats) != Admission::kAdmitted) return;
  size_t budget = ShardBudget();

  Shard& shard = ShardFor(key);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Replace in place (a concurrent miss on the same key raced us here;
      // both computed the same result, keep the newer one).
      shard.bytes -= it->second->second->bytes;
      total_bytes_.fetch_sub(it->second->second->bytes,
                             std::memory_order_relaxed);
      shard.lru.erase(it->second);
      shard.index.erase(it);
      entry_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard.bytes += value->bytes;
    total_bytes_.fetch_add(value->bytes, std::memory_order_relaxed);
    shard.lru.emplace_front(key, std::move(value));
    shard.index[key] = shard.lru.begin();
    entry_count_.fetch_add(1, std::memory_order_relaxed);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    EvictLocked(&shard, budget);
  }
  PublishGauges();
}

void QueryCache::EvictLocked(Shard* shard, size_t budget) {
  while (shard->bytes > budget && !shard->lru.empty()) {
    auto& victim = shard->lru.back();
    shard->bytes -= victim.second->bytes;
    total_bytes_.fetch_sub(victim.second->bytes, std::memory_order_relaxed);
    shard->index.erase(victim.first);
    shard->lru.pop_back();
    entry_count_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (eviction_counter_ != nullptr) eviction_counter_->Increment();
  }
}

void QueryCache::PublishGauges() {
  if (metrics_ == nullptr) return;
  metrics_->SetGauge(obs::kPrefCacheBytes,
                     static_cast<double>(
                         total_bytes_.load(std::memory_order_relaxed)));
  metrics_->SetGauge(obs::kPrefCacheEntries,
                     static_cast<double>(
                         entry_count_.load(std::memory_order_relaxed)));
}

std::vector<size_t> QueryCache::ShardBytes() const {
  std::vector<size_t> bytes(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    MutexLock lock(&shards_[i].mu);
    bytes[i] = shards_[i].bytes;
  }
  return bytes;
}

QueryCache::Stats QueryCache::snapshot() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.admission_rejected =
      admission_rejected_.load(std::memory_order_relaxed);
  stats.entries = entry_count_.load(std::memory_order_relaxed);
  stats.bytes = total_bytes_.load(std::memory_order_relaxed);
  return stats;
}

std::string QueryCache::ToString() const {
  Stats s = snapshot();
  return StrFormat(
      "QueryCache{enabled=%d entries=%zu bytes=%zu/%zu hits=%llu misses=%llu "
      "evictions=%llu admission_rejected=%llu}",
      enabled() ? 1 : 0, s.entries, s.bytes, max_bytes(),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses),
      static_cast<unsigned long long>(s.evictions),
      static_cast<unsigned long long>(s.admission_rejected));
}

}  // namespace cache
}  // namespace prefdb

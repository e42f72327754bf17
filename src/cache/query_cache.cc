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

size_t EntryBytes(const RowView& view, const PlanNode& plan,
                  const Catalog& catalog) {
  // The stores not to count: the scanned tables', then each one counted.
  std::vector<const ColumnStore*> seen;
  std::vector<const PlanNode*> stack = {&plan};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (node->kind == PlanKind::kScan) {
      StatusOr<Table*> table = catalog.GetTable(node->table_name);
      if (table.ok()) seen.push_back(&(*table)->store());
    }
    for (const PlanPtr& child : node->children) stack.push_back(child.get());
  }
  size_t bytes = sizeof(CachedResult) + SchemaBytes(view.schema) +
                 view.key_columns.size() * sizeof(size_t) +
                 view.ids.size() * sizeof(uint32_t);
  for (const ColumnStore* source : view.sources) {
    if (std::find(seen.begin(), seen.end(), source) != seen.end()) continue;
    seen.push_back(source);
    bytes += source->Bytes();
  }
  return bytes;
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
    PublishGauges(Stats());
  }
}

void QueryCache::set_max_bytes(size_t max_bytes) {
  max_bytes_.store(max_bytes, std::memory_order_relaxed);
  Stats totals;
  {
    MutexLock lock(&mu_);
    EvictLocked(max_bytes);
    totals = totals_;
  }
  PublishGauges(totals);
}

void QueryCache::Clear() {
  Stats totals;
  {
    MutexLock lock(&mu_);
    index_.clear();
    lru_.clear();
    totals_.entries = 0;
    totals_.bytes = 0;
    totals = totals_;
  }
  PublishGauges(totals);
}

std::shared_ptr<const CachedResult> QueryCache::Lookup(const CacheKey& key) {
  std::shared_ptr<const CachedResult> result;
  {
    MutexLock lock(&mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      result = it->second->second;
      ++totals_.hits;
    } else {
      ++totals_.misses;
    }
  }
  obs::Counter* counter = result != nullptr ? hit_counter_ : miss_counter_;
  if (counter != nullptr) counter->Increment();
  return result;
}

Admission QueryCache::Insert(const CacheKey& key,
                             std::shared_ptr<const CachedResult> value) {
  const size_t budget = max_bytes();
  Admission verdict = Admission::kAdmitted;
  if (value->bytes > budget) {
    verdict = Admission::kOversize;
  } else if (value->stats.rows_scanned + value->stats.tuples_materialized == 0) {
    verdict = Admission::kTrivial;
  }
  if (verdict != Admission::kAdmitted) {
    {
      MutexLock lock(&mu_);
      ++totals_.admission_rejected;
    }
    if (admission_counter_ != nullptr) admission_counter_->Increment();
    return verdict;
  }
  Stats totals;
  {
    MutexLock lock(&mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Replace in place (a concurrent miss on the same key raced us here;
      // both computed the same result, keep the newer one).
      totals_.bytes -= it->second->second->bytes;
      lru_.erase(it->second);
      index_.erase(it);
    }
    totals_.bytes += value->bytes;
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    ++totals_.insertions;
    EvictLocked(budget);
    totals = totals_;
  }
  PublishGauges(totals);
  return verdict;
}

void QueryCache::EvictLocked(size_t budget) {
  size_t evicted = 0;
  while (totals_.bytes > budget && !lru_.empty()) {
    auto& victim = lru_.back();
    totals_.bytes -= victim.second->bytes;
    index_.erase(victim.first);
    lru_.pop_back();
    ++evicted;
  }
  totals_.entries = index_.size();
  totals_.evictions += evicted;
  if (eviction_counter_ != nullptr && evicted > 0) {
    eviction_counter_->Increment(evicted);
  }
}

void QueryCache::PublishGauges(const Stats& totals) {
  if (metrics_ == nullptr) return;
  metrics_->SetGauge(obs::kPrefCacheBytes, static_cast<double>(totals.bytes));
  metrics_->SetGauge(obs::kPrefCacheEntries,
                     static_cast<double>(totals.entries));
}

QueryCache::Stats QueryCache::snapshot() const {
  MutexLock lock(&mu_);
  return totals_;
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

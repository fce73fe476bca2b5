#include "serve/cache.h"

#include "common/hash.h"
#include "net/serde.h"
#include "obs/obs.h"
#include "rpc/plan_serde.h"

namespace skalla {
namespace serve {

uint64_t PlanFingerprint(const DistributedPlan& plan) {
  // Canonical bytes: the same encoders the rpc protocol ships plans
  // with, so semantically identical plans (however they were built)
  // produce identical buffers.
  std::vector<uint8_t> buf;
  rpc::WriteBaseQuery(&buf, plan.base);
  buf.push_back(plan.sync_base ? 1 : 0);
  PutVarint(&buf, plan.stages.size());
  for (const PlanStage& stage : plan.stages) {
    rpc::WriteGmdjOp(&buf, stage.op);
    buf.push_back(static_cast<uint8_t>((stage.sync_after ? 1 : 0) |
                                       (stage.indep_group_reduction ? 2 : 0)));
    PutVarint(&buf, stage.site_base_filters.size());
    for (const ExprPtr& filter : stage.site_base_filters) {
      rpc::WriteExpr(&buf, filter);
    }
  }
  PutVarint(&buf, plan.key_columns.size());
  for (const std::string& column : plan.key_columns) {
    rpc::WriteString(&buf, column);
  }
  return HashBytes(buf.data(), buf.size());
}

std::optional<Table> SubAggregateCache::Lookup(uint64_t fingerprint,
                                               uint64_t epoch,
                                               bool count_miss) {
  std::shared_ptr<const Table> hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(Key{fingerprint, epoch});
    if (it == entries_.end()) {
      if (!count_miss) return std::nullopt;
      ++stats_.misses;
      SKALLA_COUNTER_ADD("skalla.serve.cache.misses", 1);
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    ++stats_.hits;
    SKALLA_COUNTER_ADD("skalla.serve.cache.hits", 1);
    SKALLA_COUNTER_ADD("skalla.serve.cache.hit_bytes", it->second.bytes);
    hit = it->second.result;
  }
  // The deep copy runs unlocked: concurrent hits do not serialize on it,
  // and an eviction meanwhile only drops the cache's reference.
  return *hit;
}

void SubAggregateCache::Insert(uint64_t fingerprint, uint64_t epoch,
                               const Table& result) {
  const uint64_t bytes = SerializedTableSize(result);
  if (bytes > max_bytes_) return;  // covers max_bytes_ == 0 (disabled)
  auto shared = std::make_shared<const Table>(result);
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{fingerprint, epoch};
  if (entries_.count(key) > 0) return;  // concurrent miss already filled it
  EvictLockedUntil(bytes);
  lru_.push_front(key);
  entries_[key] = Entry{std::move(shared), bytes, lru_.begin()};
  ++stats_.insertions;
  stats_.resident_bytes += bytes;
  stats_.entries = entries_.size();
  SKALLA_COUNTER_ADD("skalla.serve.cache.insertions", 1);
  SKALLA_GAUGE_SET("skalla.serve.cache.resident_bytes",
                   static_cast<double>(stats_.resident_bytes));
}

void SubAggregateCache::EvictBefore(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.second < epoch) {
      stats_.resident_bytes -= it->second.bytes;
      ++stats_.evictions;
      lru_.erase(it->second.lru_it);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.entries = entries_.size();
  SKALLA_GAUGE_SET("skalla.serve.cache.resident_bytes",
                   static_cast<double>(stats_.resident_bytes));
}

void SubAggregateCache::EvictLockedUntil(uint64_t needed_bytes) {
  while (!lru_.empty() && stats_.resident_bytes + needed_bytes > max_bytes_) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    stats_.resident_bytes -= it->second.bytes;
    entries_.erase(it);
    ++stats_.evictions;
    SKALLA_COUNTER_ADD("skalla.serve.cache.evictions", 1);
  }
}

CacheStats SubAggregateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats out = stats_;
  out.entries = entries_.size();
  return out;
}

}  // namespace serve
}  // namespace skalla

// SubAggregateCache: a coordinator-side result cache for the serving
// layer. A repeated query — same optimized plan over unchanged partition
// data — skips all evaluation rounds entirely: the scheduler answers
// from the cached final base-result structure and marks the query's
// ExecStats from_cache, which EXPLAIN ANALYZE renders as a cache HIT
// with zero rounds.
//
// Keying: (plan fingerprint, partition epoch). The fingerprint hashes
// the plan's full semantic content through the rpc wire encoders (base
// query, stages with their operators / sync flags / reduction filters,
// key columns), so two plans fingerprint equal iff a site could not
// tell their rounds apart. The epoch is bumped by the owner whenever
// partition data changes; entries from older epochs can never be
// returned and are dropped lazily by the LRU.

#ifndef SKALLA_SERVE_CACHE_H_
#define SKALLA_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "dist/plan.h"
#include "storage/table.h"

namespace skalla {
namespace serve {

/// Order-sensitive 64-bit hash of everything that determines the plan's
/// result: base query, stage operators and flags, per-site reduction
/// filters, and key columns. Deterministic across processes (FNV over
/// the canonical wire encoding).
uint64_t PlanFingerprint(const DistributedPlan& plan);

/// Hit/miss/byte accounting, readable at any time.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Serialized bytes of every resident entry (net/serde sizes — the
  /// same accounting unit the transfer counters use).
  uint64_t resident_bytes = 0;
  uint64_t entries = 0;
};

/// Thread-safe LRU over (fingerprint, epoch) -> final result table,
/// capacity-bounded by serialized result bytes. All methods lock, but
/// only for bookkeeping: entries are immutable shared tables, so the
/// copies Lookup returns and Insert stores are made outside the lock.
/// The scheduler looks up from submitting threads and its workers.
class SubAggregateCache {
 public:
  /// `max_bytes` bounds the sum of serialized entry sizes; 0 disables
  /// caching entirely (Lookup always misses, Insert is a no-op).
  explicit SubAggregateCache(uint64_t max_bytes) : max_bytes_(max_bytes) {}

  /// The cached result for this (fingerprint, epoch), or nullopt.
  /// Counts a hit, and a miss unless `count_miss` is false (mirrored
  /// into the skalla.serve.cache.* metrics). The scheduler's probe at
  /// submission passes false: a query that misses there is looked up
  /// again, and counted, when a worker serves it.
  std::optional<Table> Lookup(uint64_t fingerprint, uint64_t epoch,
                              bool count_miss = true);

  /// Caches `result`. Entries larger than the whole capacity are not
  /// admitted; otherwise least-recently-used entries are evicted until
  /// the new entry fits.
  void Insert(uint64_t fingerprint, uint64_t epoch, const Table& result);

  /// Drops every entry with epoch < `epoch` immediately (the lazy LRU
  /// would get there eventually; this reclaims the bytes now).
  void EvictBefore(uint64_t epoch);

  CacheStats stats() const;

 private:
  using Key = std::pair<uint64_t, uint64_t>;  // (fingerprint, epoch)
  struct Entry {
    std::shared_ptr<const Table> result;
    uint64_t bytes = 0;
    std::list<Key>::iterator lru_it;
  };

  void EvictLockedUntil(uint64_t needed_bytes);

  const uint64_t max_bytes_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  // front = most recent
  CacheStats stats_;
};

}  // namespace serve
}  // namespace skalla

#endif  // SKALLA_SERVE_CACHE_H_

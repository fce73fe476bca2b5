// BufferManager: a byte-budget LRU over resident column pages, shared by
// every chunk-file-backed relation of a process. An entry is one column
// page of one chunk, keyed (owner, chunk, column). Consumers Pin the
// pages of one chunk they read (loading the missing ones through a
// caller-supplied loader), scan them, and drop the returned PinnedPages
// to unpin. Eviction considers only unpinned pages; the pinned set may
// therefore exceed the budget transiently — the manager never fails a
// pin for lack of budget, it just evicts everything evictable
// (documented spill behavior, docs/STORAGE.md).
//
// Accounting unit: EstimateColumnBytes of each page (storage/chunk.h).
// Budget 0 means unlimited (nothing is ever evicted).
//
// Metrics (obs registry, no-ops when SKALLA_TRACING is off), all
// counting column pages:
//   skalla.storage.buffer.hit / .miss / .evict    counters
//   skalla.storage.buffer.load_bytes              counter (missed bytes)
//   skalla.storage.buffer.resident_bytes          gauge
// The same counts are always available through stats(), independent of
// the build gate, for tests and tools.
//
// Thread safety: fully thread-safe. A Pin of k pages takes the lock once
// to look them all up; concurrent pins of the same missing page load it
// once — the first pinner runs the loader (outside the lock), the rest
// wait on it.

#ifndef SKALLA_STORAGE_BUFFER_MANAGER_H_
#define SKALLA_STORAGE_BUFFER_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/chunk.h"

namespace skalla {

/// What pins loaded: the pages they missed and their estimated bytes.
struct PageLoads {
  uint64_t pages = 0;
  uint64_t bytes = 0;
};

/// RAII pin over the pages one BufferManager::Pin returned: while alive,
/// they cannot be evicted. Move-only; destruction (or Release) unpins.
/// Safe to destroy after the manager's other references are gone — the
/// handle keeps the manager alive. Also reports what the pin loaded.
class PinnedPages {
 public:
  PinnedPages() = default;
  PinnedPages(std::vector<ColumnPtr> pages, std::function<void()> unpin,
              PageLoads loads)
      : pages_(std::move(pages)), unpin_(std::move(unpin)), loads_(loads) {}
  ~PinnedPages() { Release(); }

  PinnedPages(PinnedPages&& other) noexcept { *this = std::move(other); }
  PinnedPages& operator=(PinnedPages&& other) noexcept {
    if (this != &other) {
      Release();
      pages_ = std::move(other.pages_);
      unpin_ = std::exchange(other.unpin_, nullptr);
      loads_ = other.loads_;
    }
    return *this;
  }
  PinnedPages(const PinnedPages&) = delete;
  PinnedPages& operator=(const PinnedPages&) = delete;

  /// The pinned pages, parallel to the requested columns.
  const std::vector<ColumnPtr>& pages() const { return pages_; }
  /// The pages this pin had to load (its misses).
  const PageLoads& loads() const { return loads_; }

  void Release() {
    if (unpin_) unpin_();
    unpin_ = nullptr;
    pages_.clear();
  }

 private:
  std::vector<ColumnPtr> pages_;
  std::function<void()> unpin_;
  PageLoads loads_;
};

/// A pinned chunk view (storage/chunk.h): the view plus the pin on the
/// pages it holds. Providers without paging (memory-backed) hand out
/// views with no pin.
class PinnedChunk {
 public:
  PinnedChunk() = default;
  explicit PinnedChunk(ChunkPtr chunk, PinnedPages pages = PinnedPages())
      : chunk_(std::move(chunk)), pages_(std::move(pages)) {}

  PinnedChunk(PinnedChunk&&) noexcept = default;
  PinnedChunk& operator=(PinnedChunk&&) noexcept = default;

  const Chunk& operator*() const { return *chunk_; }
  const Chunk* operator->() const { return chunk_.get(); }
  const ChunkPtr& chunk() const { return chunk_; }
  explicit operator bool() const { return chunk_ != nullptr; }

  const PageLoads& loads() const { return pages_.loads(); }

  void Release() {
    chunk_ = nullptr;
    pages_.Release();
  }

 private:
  ChunkPtr chunk_;
  PinnedPages pages_;
};

/// Point-in-time counters, in column pages; tracing-gate independent.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t loaded_bytes = 0;  // estimated bytes of every missed page
  uint64_t resident_bytes = 0;
  uint64_t resident_pages = 0;
  uint64_t pinned_pages = 0;
};

class BufferManager : public std::enable_shared_from_this<BufferManager> {
 public:
  /// `budget_bytes` caps resident (unpinned + pinned) page bytes;
  /// 0 = unlimited.
  explicit BufferManager(uint64_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  /// Loads the pages of the given columns of one chunk, in order.
  using PageLoader = std::function<Result<std::vector<ColumnPtr>>(
      const std::vector<size_t>& columns)>;

  /// Pins the pages of `columns` (strictly ascending) of chunk
  /// `chunk_index` of owner `owner` (a provider id from NextOwnerId),
  /// loading the missing ones with one `loader` call. The loader runs
  /// outside the manager lock; concurrent pins of the same page share
  /// one load.
  Result<PinnedPages> Pin(uint64_t owner, size_t chunk_index,
                          const std::vector<size_t>& columns,
                          const PageLoader& loader);

  /// Marks every page of `owner` stale: unpinned ones are dropped now,
  /// pinned ones as soon as their last pin releases. Called when a
  /// provider is destroyed or its backing file is reloaded.
  void DropOwner(uint64_t owner);

  uint64_t budget_bytes() const { return budget_bytes_; }
  BufferStats stats() const;

  /// Process-unique owner ids for providers sharing a manager.
  static uint64_t NextOwnerId();

 private:
  using Key = std::tuple<uint64_t, size_t, size_t>;  // (owner, chunk, col)

  struct Entry {
    ColumnPtr page;
    uint64_t bytes = 0;
    size_t pins = 0;
    uint64_t lru = 0;      // last-use tick; smallest evicts first
    bool loading = false;  // a pinner is running the loader
    bool dropped = false;  // owner gone: erase at last unpin
  };

  void Unpin(uint64_t owner, size_t chunk_index,
             const std::vector<size_t>& columns);
  // Requires the lock.
  void UnpinLocked(const Key& key);
  // Evicts unpinned entries in LRU order until within budget. Requires
  // the lock.
  void EvictLocked();
  // Requires the lock.
  void SetResidentGaugeLocked() const;
  std::function<void()> MakeUnpin(uint64_t owner, size_t chunk_index,
                                  const std::vector<size_t>& columns);

  const uint64_t budget_bytes_;
  mutable std::mutex mu_;
  std::condition_variable load_cv_;
  std::map<Key, Entry> entries_;
  uint64_t resident_bytes_ = 0;
  uint64_t lru_tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t loaded_bytes_ = 0;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_BUFFER_MANAGER_H_

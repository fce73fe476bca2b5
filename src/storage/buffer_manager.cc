#include "storage/buffer_manager.h"

#include <atomic>

#include "common/string_util.h"
#include "obs/obs.h"

namespace skalla {

Result<PinnedPages> BufferManager::Pin(uint64_t owner, size_t chunk_index,
                                       const std::vector<size_t>& columns,
                                       const PageLoader& loader) {
  std::vector<ColumnPtr> pages(columns.size());
  std::vector<size_t> missing;  // positions in `columns`
  std::unique_lock<std::mutex> lock(mu_);
  // Wait out other pinners' in-flight loads of any requested page; a
  // waiter claims nothing, so waits cannot form a cycle.
  for (;;) {
    bool busy = false;
    for (size_t c : columns) {
      auto it = entries_.find(Key{owner, chunk_index, c});
      if (it != entries_.end() && it->second.loading) {
        busy = true;
        break;
      }
    }
    if (!busy) break;
    load_cv_.wait(lock);
  }
  uint64_t hits = 0;
  for (size_t i = 0; i < columns.size(); ++i) {
    auto [it, inserted] =
        entries_.try_emplace(Key{owner, chunk_index, columns[i]});
    Entry& entry = it->second;
    if (inserted) {
      entry.loading = true;
      missing.push_back(i);
      continue;
    }
    ++entry.pins;
    entry.lru = ++lru_tick_;
    pages[i] = entry.page;
    ++hits;
  }
  hits_ += hits;
  SKALLA_COUNTER_ADD("skalla.storage.buffer.hit", hits);
  if (missing.empty()) {
    return PinnedPages(std::move(pages),
                       MakeUnpin(owner, chunk_index, columns), PageLoads{});
  }

  std::vector<size_t> to_load;
  to_load.reserve(missing.size());
  for (size_t i : missing) to_load.push_back(columns[i]);
  lock.unlock();
  Result<std::vector<ColumnPtr>> loaded = loader(to_load);
  if (loaded.ok() && loaded->size() != to_load.size()) {
    loaded = Status::Internal(StrCat("page loader returned ", loaded->size(),
                                     " pages for ", to_load.size(),
                                     " columns"));
  }
  lock.lock();
  if (!loaded.ok()) {
    for (size_t i : missing) {
      entries_.erase(Key{owner, chunk_index, columns[i]});
    }
    for (size_t i = 0; i < columns.size(); ++i) {
      if (pages[i] != nullptr) UnpinLocked(Key{owner, chunk_index, columns[i]});
    }
    EvictLocked();
    SetResidentGaugeLocked();
    load_cv_.notify_all();
    return loaded.status();
  }
  uint64_t bytes_loaded = 0;
  for (size_t k = 0; k < missing.size(); ++k) {
    const size_t i = missing[k];
    Entry& entry = entries_[Key{owner, chunk_index, columns[i]}];
    entry.page = std::move((*loaded)[k]);
    entry.bytes = EstimateColumnBytes(*entry.page);
    entry.pins = 1;
    entry.lru = ++lru_tick_;
    entry.loading = false;
    resident_bytes_ += entry.bytes;
    bytes_loaded += entry.bytes;
    pages[i] = entry.page;
  }
  misses_ += missing.size();
  loaded_bytes_ += bytes_loaded;
  SKALLA_COUNTER_ADD("skalla.storage.buffer.miss", missing.size());
  SKALLA_COUNTER_ADD("skalla.storage.buffer.load_bytes", bytes_loaded);
  EvictLocked();
  SetResidentGaugeLocked();
  load_cv_.notify_all();
  return PinnedPages(std::move(pages), MakeUnpin(owner, chunk_index, columns),
                     PageLoads{missing.size(), bytes_loaded});
}

std::function<void()> BufferManager::MakeUnpin(
    uint64_t owner, size_t chunk_index, const std::vector<size_t>& columns) {
  // The closure holds shared ownership of the manager, so a handle that
  // outlives every provider still unpins safely.
  auto self = shared_from_this();
  return [self, owner, chunk_index, columns] {
    self->Unpin(owner, chunk_index, columns);
  };
}

void BufferManager::Unpin(uint64_t owner, size_t chunk_index,
                          const std::vector<size_t>& columns) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t c : columns) UnpinLocked(Key{owner, chunk_index, c});
  EvictLocked();
  SetResidentGaugeLocked();
}

void BufferManager::UnpinLocked(const Key& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  if (entry.pins > 0) --entry.pins;
  if (entry.pins == 0 && entry.dropped) {
    resident_bytes_ -= entry.bytes;
    entries_.erase(it);
  }
}

void BufferManager::DropOwner(uint64_t owner) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.lower_bound(Key{owner, 0, 0});
  while (it != entries_.end() && std::get<0>(it->first) == owner) {
    Entry& entry = it->second;
    if (entry.pins == 0 && !entry.loading) {
      resident_bytes_ -= entry.bytes;
      it = entries_.erase(it);
    } else {
      entry.dropped = true;
      ++it;
    }
  }
  SetResidentGaugeLocked();
}

void BufferManager::EvictLocked() {
  if (budget_bytes_ == 0) return;
  while (resident_bytes_ > budget_bytes_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.pins != 0 || it->second.loading) continue;
      if (victim == entries_.end() || it->second.lru < victim->second.lru) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything pinned: overcommit
    resident_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++evictions_;
    SKALLA_COUNTER_ADD("skalla.storage.buffer.evict", 1);
  }
}

void BufferManager::SetResidentGaugeLocked() const {
  SKALLA_GAUGE_SET("skalla.storage.buffer.resident_bytes",
                   static_cast<int64_t>(resident_bytes_));
}

BufferStats BufferManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BufferStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.loaded_bytes = loaded_bytes_;
  s.resident_bytes = resident_bytes_;
  for (const auto& [key, entry] : entries_) {
    if (entry.loading) continue;
    ++s.resident_pages;
    if (entry.pins > 0) ++s.pinned_pages;
  }
  return s;
}

uint64_t BufferManager::NextOwnerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace skalla

// BufferManager: byte-budget LRU accounting over column pages
// (hit/miss/evict), pins blocking eviction and overcommit, owner
// invalidation, the single-flight load guarantee under concurrency, and
// column-projected pins through a chunk-file provider.

#include "storage/buffer_manager.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "storage/chunk.h"
#include "storage/chunk_file.h"
#include "storage/data_provider.h"
#include "storage/table.h"

namespace skalla {
namespace {

Table SomeRows(int64_t salt, size_t n = 64) {
  SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64},
                                   {"name", ValueType::kString},
                                   {"v", ValueType::kFloat64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < n; ++i) {
    t.AppendUnchecked({Value(salt * 1000 + static_cast<int64_t>(i)),
                       Value("row-" + std::to_string(i)),
                       Value(static_cast<double>(i) / 2.0)});
  }
  return t;
}

ChunkPtr SomeChunk(int64_t salt) {
  Table t = SomeRows(salt);
  return Chunk::Build(t, 0, t.num_rows()).ValueOrDie();
}

std::vector<ColumnPtr> PagesOf(const Chunk& chunk,
                               const std::vector<size_t>& columns) {
  std::vector<ColumnPtr> pages;
  for (size_t c : columns) {
    pages.push_back(std::make_shared<const Column>(chunk.column(c)));
  }
  return pages;
}

// Bytes of column `c`'s page of SomeChunk(salt).
uint64_t PageBytes(int64_t salt, size_t c) {
  return EstimateColumnBytes(SomeChunk(salt)->column(c));
}

// A page loader that counts its invocations and the pages it loaded.
class CountingLoader {
 public:
  explicit CountingLoader(int64_t salt) : salt_(salt) {}
  BufferManager::PageLoader fn() {
    return [this](const std::vector<size_t>& columns)
               -> Result<std::vector<ColumnPtr>> {
      ++loads_;
      pages_ += static_cast<int>(columns.size());
      return PagesOf(*SomeChunk(salt_), columns);
    };
  }
  int loads() const { return loads_.load(); }
  int pages() const { return pages_.load(); }

 private:
  int64_t salt_;
  std::atomic<int> loads_{0};
  std::atomic<int> pages_{0};
};

const std::vector<size_t> kFirst = {0};

TEST(BufferManagerTest, MissLoadsOnceThenHits) {
  auto bm = std::make_shared<BufferManager>(0);  // unlimited
  const uint64_t owner = BufferManager::NextOwnerId();
  CountingLoader loader(1);

  {
    PinnedPages pin = bm->Pin(owner, 0, kFirst, loader.fn()).ValueOrDie();
    EXPECT_EQ(pin.loads().pages, 1u);
    EXPECT_EQ(pin.loads().bytes, PageBytes(1, 0));
  }
  {
    PinnedPages pin = bm->Pin(owner, 0, kFirst, loader.fn()).ValueOrDie();
    EXPECT_EQ(pin.loads().pages, 0u);
    EXPECT_EQ(pin.loads().bytes, 0u);
  }

  EXPECT_EQ(loader.loads(), 1);
  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_pages, 1u);
  EXPECT_EQ(stats.pinned_pages, 0u);
  EXPECT_EQ(stats.resident_bytes, PageBytes(1, 0));
  EXPECT_EQ(stats.loaded_bytes, PageBytes(1, 0));
}

TEST(BufferManagerTest, MultiPagePinLoadsOnlyTheMissingPages) {
  auto bm = std::make_shared<BufferManager>(0);
  const uint64_t owner = BufferManager::NextOwnerId();
  CountingLoader loader(4);

  { PinnedPages p = bm->Pin(owner, 0, {1}, loader.fn()).ValueOrDie(); }
  PinnedPages pin = bm->Pin(owner, 0, {0, 1, 2}, loader.fn()).ValueOrDie();
  // One loader call for the two missing pages; page 1 was a hit.
  EXPECT_EQ(loader.loads(), 2);
  EXPECT_EQ(loader.pages(), 3);
  EXPECT_EQ(pin.loads().pages, 2u);
  EXPECT_EQ(pin.loads().bytes, PageBytes(4, 0) + PageBytes(4, 2));
  ASSERT_EQ(pin.pages().size(), 3u);
  EXPECT_EQ(pin.pages()[0]->type(), ValueType::kInt64);
  EXPECT_EQ(pin.pages()[1]->type(), ValueType::kString);
  EXPECT_EQ(pin.pages()[2]->type(), ValueType::kFloat64);

  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident_pages, 3u);
  EXPECT_EQ(stats.pinned_pages, 3u);
  pin.Release();
  EXPECT_EQ(bm->stats().pinned_pages, 0u);
}

TEST(BufferManagerTest, EvictsLeastRecentlyUsedWithinBudget) {
  const uint64_t page_bytes = PageBytes(0, 0);  // same for every salt
  // Room for two pages, not three.
  auto bm = std::make_shared<BufferManager>(page_bytes * 2 + 1);
  const uint64_t owner = BufferManager::NextOwnerId();
  CountingLoader l0(0), l1(1), l2(2);

  { PinnedPages p = bm->Pin(owner, 0, kFirst, l0.fn()).ValueOrDie(); }
  { PinnedPages p = bm->Pin(owner, 1, kFirst, l1.fn()).ValueOrDie(); }
  // Touch 0 so 1 is the LRU victim.
  { PinnedPages p = bm->Pin(owner, 0, kFirst, l0.fn()).ValueOrDie(); }
  { PinnedPages p = bm->Pin(owner, 2, kFirst, l2.fn()).ValueOrDie(); }

  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, bm->budget_bytes());
  EXPECT_EQ(stats.resident_pages, 2u);

  // 0 survived (recently used), 1 was evicted and must reload.
  { PinnedPages p = bm->Pin(owner, 0, kFirst, l0.fn()).ValueOrDie(); }
  EXPECT_EQ(l0.loads(), 1);
  { PinnedPages p = bm->Pin(owner, 1, kFirst, l1.fn()).ValueOrDie(); }
  EXPECT_EQ(l1.loads(), 2);
}

TEST(BufferManagerTest, PinnedPagesOvercommitInsteadOfEvicting) {
  auto bm = std::make_shared<BufferManager>(1);  // everything over budget
  const uint64_t owner = BufferManager::NextOwnerId();
  CountingLoader l0(0), l1(1);

  PinnedPages p0 = bm->Pin(owner, 0, kFirst, l0.fn()).ValueOrDie();
  PinnedPages p1 = bm->Pin(owner, 1, kFirst, l1.fn()).ValueOrDie();

  // Both pinned: nothing evictable, the pool overcommits.
  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.resident_pages, 2u);
  EXPECT_EQ(stats.pinned_pages, 2u);
  EXPECT_GT(stats.resident_bytes, bm->budget_bytes());
  EXPECT_EQ(p0.pages()[0]->size(), 64u);
  EXPECT_EQ(p1.pages()[0]->size(), 64u);

  // Releasing makes them evictable; the budget is enforced again.
  p0.Release();
  p1.Release();
  stats = bm->stats();
  EXPECT_LE(stats.resident_bytes, bm->budget_bytes());
  EXPECT_EQ(stats.resident_pages, 0u);
  EXPECT_GE(stats.evictions, 2u);
}

TEST(BufferManagerTest, DropOwnerInvalidatesResidentAndPinned) {
  auto bm = std::make_shared<BufferManager>(0);
  const uint64_t a = BufferManager::NextOwnerId();
  const uint64_t b = BufferManager::NextOwnerId();
  CountingLoader la(1), lb(2);

  // Unpinned pages of `a` drop immediately; `b`'s survive.
  { PinnedPages p = bm->Pin(a, 0, {0, 1}, la.fn()).ValueOrDie(); }
  { PinnedPages p = bm->Pin(b, 0, kFirst, lb.fn()).ValueOrDie(); }
  bm->DropOwner(a);
  EXPECT_EQ(bm->stats().resident_pages, 1u);
  EXPECT_EQ(bm->stats().resident_bytes, PageBytes(2, 0));
  { PinnedPages p = bm->Pin(a, 0, kFirst, la.fn()).ValueOrDie(); }
  EXPECT_EQ(la.loads(), 2);
  { PinnedPages p = bm->Pin(b, 0, kFirst, lb.fn()).ValueOrDie(); }
  EXPECT_EQ(lb.loads(), 1);

  // A pinned page outlives the drop and is erased at last unpin.
  PinnedPages held = bm->Pin(a, 0, kFirst, la.fn()).ValueOrDie();
  bm->DropOwner(a);
  EXPECT_EQ(held.pages()[0]->size(), 64u);  // still readable while pinned
  held.Release();
  { PinnedPages p = bm->Pin(a, 0, kFirst, la.fn()).ValueOrDie(); }
  EXPECT_EQ(la.loads(), 3);
}

TEST(BufferManagerTest, ConcurrentPinsShareOneLoad) {
  auto bm = std::make_shared<BufferManager>(0);
  const uint64_t owner = BufferManager::NextOwnerId();
  std::atomic<int> loads{0};
  BufferManager::PageLoader slow =
      [&loads](const std::vector<size_t>& columns)
      -> Result<std::vector<ColumnPtr>> {
    ++loads;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return PagesOf(*SomeChunk(7), columns);
  };

  constexpr int kThreads = 4;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      Result<PinnedPages> pin = bm->Pin(owner, 0, {0, 2}, slow);
      if (pin.ok() && pin->pages()[1]->size() == 64u) ++ok;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(loads.load(), 1);
  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(2 * (kThreads - 1)));
}

TEST(BufferManagerTest, FailedLoadIsNotCached) {
  auto bm = std::make_shared<BufferManager>(1);
  const uint64_t owner = BufferManager::NextOwnerId();
  CountingLoader first(3);
  { PinnedPages p = bm->Pin(owner, 0, kFirst, first.fn()).ValueOrDie(); }
  PinnedPages held = bm->Pin(owner, 1, kFirst, first.fn()).ValueOrDie();

  BufferManager::PageLoader failing =
      [](const std::vector<size_t>&) -> Result<std::vector<ColumnPtr>> {
    return Status::IOError("disk gone");
  };
  // Page 0 of chunk 1 is a hit, page 1 fails to load: the hit's pin is
  // undone and nothing of the failed load stays.
  EXPECT_TRUE(bm->Pin(owner, 1, {0, 1}, failing).status().IsIOError());
  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.resident_pages, 1u);
  EXPECT_EQ(stats.pinned_pages, 1u);
  held.Release();
  EXPECT_EQ(bm->stats().pinned_pages, 0u);

  // The failed slot is free again: a working loader succeeds.
  CountingLoader working(3);
  PinnedPages pin = bm->Pin(owner, 1, {0, 1}, working.fn()).ValueOrDie();
  EXPECT_EQ(pin.pages()[1]->size(), 64u);
}

TEST(BufferManagerTest, HandleKeepsManagerAlive) {
  PinnedPages pin;
  {
    auto bm = std::make_shared<BufferManager>(0);
    CountingLoader loader(9);
    pin = bm->Pin(BufferManager::NextOwnerId(), 0, kFirst, loader.fn())
              .ValueOrDie();
  }
  // The manager's last external reference is gone; the handle still
  // reads and unpins safely.
  EXPECT_EQ(pin.pages()[0]->size(), 64u);
  pin.Release();
}

// --- Column-projected pins through a chunk file -----------------------------

class ProjectedPinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir = "/tmp/skalla_storage_buffer_test";
    mkdir(dir.c_str(), 0755);
    path_ = dir + "/projected.skc";
    WriteChunkFile(SomeRows(5, 200), path_, /*chunk_rows=*/100).Check();
  }

  std::string path_;
};

TEST_F(ProjectedPinTest, PinningOneColumnLoadsOnePage) {
  auto bm = std::make_shared<BufferManager>(0);
  auto provider = ChunkFileDataProvider::Open(path_, bm).ValueOrDie();

  PinnedChunk pin = provider->Pin(1, {1}).ValueOrDie();
  const uint64_t page_bytes = EstimateColumnBytes(pin->column(1));
  EXPECT_EQ(pin.loads().pages, 1u);
  EXPECT_EQ(pin.loads().bytes, page_bytes);
  EXPECT_EQ(pin->num_rows(), 100u);
  EXPECT_EQ(pin->row_begin(), 100u);
  EXPECT_EQ(pin->column(1).StringAt(0), "row-100");

  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.resident_pages, 1u);
  EXPECT_EQ(stats.resident_bytes, page_bytes);
  EXPECT_EQ(stats.loaded_bytes, page_bytes);

  // Widening the read set loads only the new page.
  PinnedChunk wider = provider->Pin(1, {0, 1}).ValueOrDie();
  EXPECT_EQ(wider.loads().pages, 1u);
  EXPECT_EQ(bm->stats().hits, 1u);
  EXPECT_EQ(wider->column(0).Int64At(0), 5100);
}

TEST_F(ProjectedPinTest, EmptyReadSetLoadsNothing) {
  auto bm = std::make_shared<BufferManager>(0);
  auto provider = ChunkFileDataProvider::Open(path_, bm).ValueOrDie();
  PinnedChunk pin = provider->Pin(0, {}).ValueOrDie();
  EXPECT_EQ(pin->num_rows(), 100u);
  EXPECT_FALSE(pin->has_column(0));
  EXPECT_EQ(bm->stats().misses, 0u);
}

TEST_F(ProjectedPinTest, MalformedReadSetIsRejected) {
  auto bm = std::make_shared<BufferManager>(0);
  auto provider = ChunkFileDataProvider::Open(path_, bm).ValueOrDie();
  EXPECT_TRUE(provider->Pin(0, {3}).status().IsInvalidArgument());
  EXPECT_TRUE(provider->Pin(0, {1, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(provider->Pin(0, {1, 1}).status().IsInvalidArgument());
}

TEST_F(ProjectedPinTest, ReadingAnUnrequestedColumnIsCaught) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto bm = std::make_shared<BufferManager>(0);
  auto provider = ChunkFileDataProvider::Open(path_, bm).ValueOrDie();
  PinnedChunk pin = provider->Pin(0, {0, 2}).ValueOrDie();
  EXPECT_TRUE(pin->has_column(2));
  EXPECT_FALSE(pin->has_column(1));
  EXPECT_DEATH((void)pin->column(1).size(), "read set");
}

}  // namespace
}  // namespace skalla

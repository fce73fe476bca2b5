// SubAggregateCache correctness through the serving layer: a repeated
// query is answered from the cache byte-identically with zero
// evaluation rounds (and says so in EXPLAIN ANALYZE), resolved inside
// Submit even while every worker is busy, and never after shutdown;
// bumping the partition epoch invalidates; per-query opt-out works;
// fingerprints distinguish distinct plans and match re-built identical
// ones.

#include "serve/cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/fault.h"
#include "dist/warehouse.h"
#include "net/serde.h"
#include "obs/stats_report.h"
#include "serve/session.h"
#include "sql/parser.h"
#include "storage/partition.h"
#include "types/row.h"

namespace skalla {
namespace {

constexpr size_t kSites = 4;

Table MakeData() {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (int i = 0; i < 800; ++i) {
    t.AppendUnchecked({Value(int64_t{i % 16}), Value(int64_t{i * 7 % 501})});
  }
  return t;
}

GmdjExpr Query() {
  return ParseQuery(R"(
    BASE SELECT DISTINCT g FROM d;
    MD USING d COMPUTE COUNT(*) AS c, SUM(v) AS s WHERE r.g = b.g;
    MD USING d COMPUTE COUNT(*) AS c2
       WHERE r.g = b.g AND r.v >= b.s / b.c;
  )").ValueOrDie();
}

std::vector<uint8_t> TableBytes(const Table& t) {
  std::vector<uint8_t> bytes;
  WriteTable(t, &bytes);
  return bytes;
}

// Holds every site round while closed, so the query running it keeps its
// scheduler worker busy.
class GateInjector : public FaultInjector {
 public:
  Status BeforeSiteRound(int, const std::string&) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++held_;
    changed_.notify_all();
    changed_.wait(lock, [&] { return open_; });
    return Status::OK();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
    held_ = 0;
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    changed_.notify_all();
  }
  // Returns once a round is held at the closed gate.
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return held_ > 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable changed_;
  bool open_ = true;
  int held_ = 0;
};

bool IsReady(const std::future<Result<serve::QueryResult>>& future) {
  return future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

class ServeCacheTest : public ::testing::Test {
 protected:
  ServeCacheTest() : dw_(kSites) {
    std::vector<Table> parts =
        PartitionByValue(MakeData(), "g", kSites).ValueOrDie();
    dw_.AddPartitionedTable("d", std::move(parts), {"g", "v"}).Check();
  }

  serve::QueryResult Run(serve::QuerySession& session,
                         serve::QueryOptions options = {}) {
    auto submission = session.Submit(Query(), options);
    EXPECT_TRUE(submission.ok()) << submission.status().ToString();
    auto answer = submission->result.get();
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return std::move(*answer);
  }

  DistributedWarehouse dw_;
};

TEST_F(ServeCacheTest, RepeatHitsAndIsByteIdentical) {
  auto session = serve::QuerySession::Open(&dw_).ValueOrDie();

  serve::QueryResult first = Run(session);
  EXPECT_FALSE(first.stats.from_cache);
  EXPECT_FALSE(first.stats.rounds.empty());

  serve::QueryResult second = Run(session);
  EXPECT_TRUE(second.stats.from_cache);
  EXPECT_TRUE(second.stats.rounds.empty());  // zero evaluation rounds
  EXPECT_EQ(second.stats.TotalBytes(), 0u);
  EXPECT_EQ(TableBytes(second.table), TableBytes(first.table));

  const serve::CacheStats stats = session.scheduler().cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST_F(ServeCacheTest, ExplainAnalyzeShowsTheHit) {
  auto session = serve::QuerySession::Open(&dw_).ValueOrDie();
  Run(session);
  serve::QueryResult hit = Run(session);
  ASSERT_TRUE(hit.stats.from_cache);

  DistributedPlan plan = session.Plan(Query()).ValueOrDie();
  const std::string report =
      obs::FormatStatsReport(plan, hit.stats, kSites);
  EXPECT_NE(report.find("cache: HIT"), std::string::npos) << report;
  EXPECT_NE(report.find("0 evaluation rounds"), std::string::npos) << report;
}

TEST_F(ServeCacheTest, HitResolvesOnSubmitWhileWorkersBusy) {
  GateInjector gate;
  serve::SessionOptions options;
  options.exec.fault_injector = &gate;
  options.scheduler.max_concurrent_queries = 1;
  auto session = serve::QuerySession::Open(&dw_, options).ValueOrDie();
  serve::QueryResult first = Run(session);  // the miss fills the cache
  ASSERT_FALSE(first.stats.from_cache);

  // Park the only worker on an uncached run of the same query.
  gate.Close();
  serve::QueryOptions no_cache;
  no_cache.use_cache = false;
  auto busy = session.Submit(Query(), no_cache).ValueOrDie();
  gate.WaitUntilHeld();

  auto hit = session.Submit(Query()).ValueOrDie();
  const bool ready = IsReady(hit.result);
  const bool cancelled = session.Cancel(hit.query_id);
  const size_t running = session.scheduler().running_queries();
  const size_t queued = session.scheduler().queued_queries();
  gate.Open();  // before any assertion can return early
  EXPECT_TRUE(ready) << "the hit waited for the busy worker";
  EXPECT_FALSE(cancelled) << "a hit is finished when Submit returns";
  EXPECT_EQ(running, 1u);
  EXPECT_EQ(queued, 0u);

  Result<serve::QueryResult> answer = hit.result.get();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->stats.from_cache);
  EXPECT_TRUE(answer->stats.rounds.empty());
  EXPECT_EQ(answer->stats.query_id, hit.query_id);
  EXPECT_EQ(TableBytes(answer->table), TableBytes(first.table));
  Result<serve::QueryResult> busy_answer = busy.result.get();
  ASSERT_TRUE(busy_answer.ok()) << busy_answer.status().ToString();
  EXPECT_EQ(TableBytes(busy_answer->table), TableBytes(first.table));

  const serve::CacheStats stats = session.scheduler().cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);  // the filling miss, counted once
}

TEST_F(ServeCacheTest, CachedPlanAfterShutdownIsRejected) {
  GateInjector gate;
  ExecutorOptions exec;
  exec.fault_injector = &gate;
  std::unique_ptr<rpc::RpcExecutor> executor =
      dw_.MakeExecutor(NetworkConfig{}, exec);
  serve::SchedulerOptions options;
  options.max_concurrent_queries = 1;
  auto scheduler =
      std::make_unique<serve::QueryScheduler>(executor.get(), options);
  DistributedPlan plan =
      dw_.Plan(Query(), OptimizerOptions::All()).ValueOrDie();
  ASSERT_TRUE(scheduler->Submit(plan).result.get().ok());  // fills the cache
  ASSERT_EQ(scheduler->cache().stats().entries, 1u);

  // Hold the only worker, then run the destructor on another thread: it
  // marks the scheduler shut down and waits for that worker to finish.
  gate.Close();
  serve::QueryOptions no_cache;
  no_cache.use_cache = false;
  auto busy = scheduler->Submit(plan, no_cache);
  gate.WaitUntilHeld();
  serve::QueryScheduler* draining = scheduler.get();
  std::thread teardown([&scheduler] { scheduler.reset(); });
  // Uncached probes queue until shutdown is marked, then are rejected at
  // once.
  while (!IsReady(draining->Submit(plan, no_cache).result)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto late = draining->Submit(plan);
  const bool ready = IsReady(late.result);
  gate.Open();
  teardown.join();
  EXPECT_TRUE(ready);
  Result<serve::QueryResult> answer = late.result.get();
  ASSERT_FALSE(answer.ok()) << "served from the cache after shutdown";
  EXPECT_TRUE(answer.status().IsCancelled()) << answer.status().ToString();
  EXPECT_TRUE(busy.result.get().ok());  // running queries finish
}

TEST_F(ServeCacheTest, EpochBumpInvalidates) {
  auto session = serve::QuerySession::Open(&dw_).ValueOrDie();
  serve::QueryResult first = Run(session);
  session.InvalidateCachedResults();

  // The stale entry is gone: the repeat evaluates again...
  serve::QueryResult after = Run(session);
  EXPECT_FALSE(after.stats.from_cache);
  EXPECT_FALSE(after.stats.rounds.empty());
  EXPECT_EQ(TableBytes(after.table), TableBytes(first.table));

  // ...and re-fills the cache under the new epoch.
  serve::QueryResult hit = Run(session);
  EXPECT_TRUE(hit.stats.from_cache);
  EXPECT_EQ(session.scheduler().cache().stats().entries, 1u);
}

TEST_F(ServeCacheTest, StorageDataEpochInvalidatesWithoutExplicitBump) {
  auto session = serve::QuerySession::Open(&dw_).ValueOrDie();
  serve::QueryResult first = Run(session);
  EXPECT_FALSE(first.stats.from_cache);
  const uint64_t epoch_before = session.scheduler().partition_epoch();

  // Replacing the table's storage bumps the warehouse data epoch;
  // QuerySession::Open wired it into the scheduler's partition epoch,
  // so the stale entry stops being served with no explicit
  // InvalidateCachedResults call.
  std::vector<Table> parts =
      PartitionByValue(MakeData(), "g", kSites).ValueOrDie();
  dw_.AddPartitionedTable("d", std::move(parts), {"g", "v"}).Check();
  EXPECT_EQ(dw_.data_epoch(), 1u);
  EXPECT_EQ(session.scheduler().partition_epoch(), epoch_before + 1);

  serve::QueryResult after = Run(session);
  EXPECT_FALSE(after.stats.from_cache);
  EXPECT_FALSE(after.stats.rounds.empty());

  // The refill lands under the new epoch and serves again.
  serve::QueryResult hit = Run(session);
  EXPECT_TRUE(hit.stats.from_cache);
}

TEST_F(ServeCacheTest, PerQueryOptOutSkipsLookupAndFill) {
  auto session = serve::QuerySession::Open(&dw_).ValueOrDie();
  serve::QueryOptions no_cache;
  no_cache.use_cache = false;
  EXPECT_FALSE(Run(session, no_cache).stats.from_cache);
  EXPECT_FALSE(Run(session, no_cache).stats.from_cache);
  const serve::CacheStats stats = session.scheduler().cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);
}

TEST_F(ServeCacheTest, ZeroCapacityDisablesCaching) {
  serve::SessionOptions options;
  options.scheduler.cache_max_bytes = 0;
  auto session = serve::QuerySession::Open(&dw_, options).ValueOrDie();
  EXPECT_FALSE(Run(session).stats.from_cache);
  EXPECT_FALSE(Run(session).stats.from_cache);
  EXPECT_EQ(session.scheduler().cache().stats().entries, 0u);
}

TEST(PlanFingerprintTest, DistinguishesPlansAndIsStable) {
  DistributedWarehouse dw(kSites);
  std::vector<Table> parts =
      PartitionByValue(MakeData(), "g", kSites).ValueOrDie();
  dw.AddPartitionedTable("d", std::move(parts), {"g", "v"}).Check();

  DistributedPlan a1 = dw.Plan(Query(), OptimizerOptions::All()).ValueOrDie();
  DistributedPlan a2 = dw.Plan(Query(), OptimizerOptions::All()).ValueOrDie();
  DistributedPlan b = dw.Plan(Query(), OptimizerOptions::None()).ValueOrDie();

  EXPECT_EQ(serve::PlanFingerprint(a1), serve::PlanFingerprint(a2));
  if (b.stages.size() != a1.stages.size() || b.sync_base != a1.sync_base) {
    EXPECT_NE(serve::PlanFingerprint(a1), serve::PlanFingerprint(b));
  }

  // The fingerprint covers stage structure: drop a stage, it changes.
  DistributedPlan truncated = a1;
  truncated.stages.pop_back();
  EXPECT_NE(serve::PlanFingerprint(a1), serve::PlanFingerprint(truncated));
}

TEST(SubAggregateCacheTest, LruEvictsByBytesAndEpochEvictsByAge) {
  SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64}}).ValueOrDie();
  Table small(schema);
  for (int i = 0; i < 8; ++i) small.AppendUnchecked({Value(int64_t{i})});
  const uint64_t entry_bytes = SerializedTableSize(small);

  serve::SubAggregateCache cache(entry_bytes * 2 + 8);
  cache.Insert(1, 1, small);
  cache.Insert(2, 1, small);
  EXPECT_TRUE(cache.Lookup(1, 1).has_value());  // 1 is now most-recent
  cache.Insert(3, 1, small);                    // evicts 2 (LRU)
  EXPECT_FALSE(cache.Lookup(2, 1).has_value());
  EXPECT_TRUE(cache.Lookup(1, 1).has_value());
  EXPECT_TRUE(cache.Lookup(3, 1).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);

  // Epoch mismatch is a miss even for a resident fingerprint.
  EXPECT_FALSE(cache.Lookup(1, 2).has_value());
  cache.EvictBefore(2);
  EXPECT_EQ(cache.stats().entries, 0u);
}

}  // namespace
}  // namespace skalla

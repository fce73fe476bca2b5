// QueryScheduler determinism: the same batch of queries submitted
// through a QuerySession at admission width 1 (strictly sequential) and
// width 8 (everything in flight at once, sites shared) must resolve to
// byte-identical per-query results, for every executor — in-process
// sites (sequential and with parallel sites) and real loopback sockets.
// Also covers admission bookkeeping, cancellation, queue-expired
// deadlines, and that a query is retired before its answer is visible.

#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dist/warehouse.h"
#include "net/serde.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "rpc/rpc_executor.h"
#include "rpc/server.h"
#include "rpc/site_service.h"
#include "rpc/tcp.h"
#include "rpc/transport.h"
#include "serve/session.h"
#include "sql/parser.h"
#include "storage/partition.h"

namespace skalla {
namespace {

constexpr size_t kSites = 4;

Table MakeData() {
  Random rng(131);
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"h", ValueType::kInt64},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (int i = 0; i < 1200; ++i) {
    t.AppendUnchecked({Value(rng.UniformInt(0, 23)),
                       Value(rng.UniformInt(0, 5)),
                       Value(rng.UniformInt(0, 999))});
  }
  return t;
}

std::vector<Site> MakeSites(const std::vector<Table>& parts) {
  std::vector<Site> sites;
  for (size_t i = 0; i < parts.size(); ++i) {
    Catalog catalog;
    catalog.Register("d", parts[i]);
    sites.emplace_back(static_cast<int>(i), std::move(catalog));
  }
  return sites;
}

std::vector<uint8_t> TableBytes(const Table& t) {
  std::vector<uint8_t> bytes;
  WriteTable(t, &bytes);
  return bytes;
}

// The submitted batch: four distinct plans, each submitted twice.
std::vector<DistributedPlan> PlanBatch(const DistributedWarehouse& dw) {
  GmdjExpr two_stage = ParseQuery(R"(
    BASE SELECT DISTINCT g FROM d;
    MD USING d COMPUTE COUNT(*) AS c1, MAX(v) AS m1 WHERE r.g = b.g;
    MD USING d COMPUTE COUNT(*) AS c2
       WHERE r.g = b.g AND r.v * 2 >= b.m1;
  )").ValueOrDie();
  GmdjExpr one_stage = ParseQuery(R"(
    BASE SELECT DISTINCT h FROM d;
    MD USING d COMPUTE COUNT(*) AS c, SUM(v) AS s WHERE r.h = b.h;
  )").ValueOrDie();

  std::vector<DistributedPlan> plans;
  for (const GmdjExpr& query : {two_stage, one_stage}) {
    for (const OptimizerOptions& opts :
         {OptimizerOptions::None(), OptimizerOptions::All()}) {
      plans.push_back(dw.Plan(query, opts).ValueOrDie());
    }
  }
  std::vector<DistributedPlan> batch = plans;
  batch.insert(batch.end(), plans.begin(), plans.end());
  return batch;
}

// Runs the batch through a session wrapping `executor` at the given
// admission width and returns each query's serialized result. Caching
// is off: every submission must actually evaluate.
std::vector<std::vector<uint8_t>> RunBatch(
    std::unique_ptr<rpc::RpcExecutor> executor,
    const std::vector<DistributedPlan>& batch, size_t width) {
  serve::SessionOptions options;
  options.scheduler.max_concurrent_queries = width;
  options.scheduler.cache_max_bytes = 0;
  serve::QuerySession session =
      serve::QuerySession::Wrap(std::move(executor), options);

  std::vector<serve::QueryScheduler::Submission> submissions;
  for (const DistributedPlan& plan : batch) {
    submissions.push_back(session.SubmitPlan(plan));
  }
  std::vector<std::vector<uint8_t>> results;
  for (auto& submission : submissions) {
    auto answer = submission.result.get();
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    if (!answer.ok()) {
      results.emplace_back();
      continue;
    }
    EXPECT_FALSE(answer->stats.from_cache);
    EXPECT_FALSE(answer->stats.rounds.empty());
    results.push_back(TableBytes(answer->table));
  }
  return results;
}

struct EngineCase {
  const char* name;
  std::function<std::unique_ptr<rpc::RpcExecutor>(const std::vector<Table>&)>
      make;
};

TEST(ServeSchedulerTest, ConcurrencyIsByteInvariantAcrossEngines) {
  Table data = MakeData();
  std::vector<Table> parts = PartitionByValue(data, "g", kSites).ValueOrDie();
  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("d", std::move(copy), {"g", "h", "v"}).Check();
  }
  const std::vector<DistributedPlan> batch = PlanBatch(dw);

  // Loopback cluster for the TCP case; every RunBatch dials it anew.
  std::vector<std::unique_ptr<rpc::SiteService>> services;
  std::vector<std::unique_ptr<rpc::SiteServer>> servers;
  std::vector<std::thread> server_threads;
  for (size_t i = 0; i < kSites; ++i) {
    Catalog catalog;
    catalog.Register("d", parts[i]);
    services.push_back(std::make_unique<rpc::SiteService>(
        Site(static_cast<int>(i), std::move(catalog))));
    rpc::SiteServerOptions options;
    options.accept_timeout_s = 0.05;
    options.io_timeout_s = 5.0;
    servers.push_back(
        std::make_unique<rpc::SiteServer>(services.back().get(), options));
    servers.back()->Start().Check();
    // Capture the server itself: `servers` reallocates as it grows.
    server_threads.emplace_back(
        [server = servers.back().get()] { (void)server->Serve(); });
  }
  std::vector<rpc::SiteEndpoint> endpoints;
  for (const auto& server : servers) {
    endpoints.push_back({"127.0.0.1", server->port()});
  }

  const EngineCase engines[] = {
      {"sequential",
       [&](const std::vector<Table>& p)
           -> std::unique_ptr<rpc::RpcExecutor> {
         ExecutorOptions options;
         options.fanout_threads = 1;
         return std::make_unique<rpc::RpcExecutor>(
             std::make_unique<rpc::InProcessTransport>(MakeSites(p)), options);
       }},
      {"parallel",
       [&](const std::vector<Table>& p)
           -> std::unique_ptr<rpc::RpcExecutor> {
         return std::make_unique<rpc::RpcExecutor>(
             std::make_unique<rpc::InProcessTransport>(MakeSites(p)),
             ExecutorOptions{});
       }},
      {"tcp",
       [&](const std::vector<Table>&) -> std::unique_ptr<rpc::RpcExecutor> {
         rpc::TcpOptions tcp;
         tcp.io_timeout_s = 5.0;
         tcp.backoff_initial_s = 0.005;
         return std::make_unique<rpc::RpcExecutor>(
             std::make_unique<rpc::TcpTransport>(endpoints, tcp),
             ExecutorOptions{});
       }},
  };

  for (const EngineCase& engine : engines) {
    SCOPED_TRACE(engine.name);
    std::vector<std::vector<uint8_t>> sequential =
        RunBatch(engine.make(parts), batch, /*width=*/1);
    std::vector<std::vector<uint8_t>> concurrent =
        RunBatch(engine.make(parts), batch, /*width=*/8);
    ASSERT_EQ(sequential.size(), batch.size());
    ASSERT_EQ(concurrent.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(sequential[i], concurrent[i])
          << engine.name << " query " << i
          << ": concurrency changed the result bytes";
      EXPECT_FALSE(sequential[i].empty());
    }
  }

  for (auto& server : servers) server->Stop();
  for (std::thread& t : server_threads) t.join();
}

TEST(ServeSchedulerTest, CancelQueuedQueryResolvesCancelled) {
  Table data = MakeData();
  std::vector<Table> parts = PartitionByValue(data, "g", kSites).ValueOrDie();
  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("d", std::move(copy), {"g", "h", "v"}).Check();
  }
  // Caching off: repeats of the plan must not resolve as instant hits
  // before the cancel lands.
  serve::SessionOptions options;
  options.scheduler.cache_max_bytes = 0;
  auto session = serve::QuerySession::Open(&dw, options).ValueOrDie();
  DistributedPlan plan = PlanBatch(dw)[0];

  // Saturate the width-4 admission, then cancel the queued tail.
  std::vector<serve::QueryScheduler::Submission> running;
  for (int i = 0; i < 8; ++i) running.push_back(session.SubmitPlan(plan));
  auto queued = session.SubmitPlan(plan);
  EXPECT_TRUE(session.Cancel(queued.query_id));
  auto answer = queued.result.get();
  // Either it was still queued (cancelled cleanly) or it had already
  // been admitted and ran to completion before the cancel landed.
  if (!answer.ok()) {
    EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
        << answer.status().ToString();
  }
  EXPECT_FALSE(session.Cancel(99999999));  // unknown id
  for (auto& submission : running) {
    auto r = submission.result.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(ServeSchedulerTest, DeadlineExpiresInQueue) {
  Table data = MakeData();
  std::vector<Table> parts = PartitionByValue(data, "g", kSites).ValueOrDie();
  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("d", std::move(copy), {"g", "h", "v"}).Check();
  }
  serve::SessionOptions options;
  options.scheduler.max_concurrent_queries = 1;
  options.scheduler.cache_max_bytes = 0;
  auto session = serve::QuerySession::Open(&dw, options).ValueOrDie();
  DistributedPlan plan = PlanBatch(dw)[0];

  // Hold the single admission slot with a stream of work, and submit a
  // query whose 1ms budget cannot survive the queue.
  std::vector<serve::QueryScheduler::Submission> head;
  for (int i = 0; i < 4; ++i) head.push_back(session.SubmitPlan(plan));
  serve::QueryOptions tight;
  tight.query_deadline_ms = 1;
  tight.use_cache = false;
  auto doomed = session.SubmitPlan(plan, tight);
  auto answer = doomed.result.get();
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
      << answer.status().ToString();
  for (auto& submission : head) {
    auto r = submission.result.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(ServeSchedulerTest, ExecutorDefaultDeadlineCountsQueueWait) {
  // The session's one default deadline is exec.query_deadline_ms, and
  // the scheduler counts it from Submit like a per-query budget: a query
  // that relies on it expires in the queue, never reaching the sites.
  Table data = MakeData();
  std::vector<Table> parts = PartitionByValue(data, "g", kSites).ValueOrDie();
  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("d", std::move(copy), {"g", "h", "v"}).Check();
  }
  serve::SessionOptions options;
  options.exec.query_deadline_ms = 1;
  options.scheduler.max_concurrent_queries = 1;
  options.scheduler.cache_max_bytes = 0;
  auto session = serve::QuerySession::Open(&dw, options).ValueOrDie();
  DistributedPlan plan = PlanBatch(dw)[0];

  // The head queries carry a generous budget of their own and hold the
  // single admission slot.
  serve::QueryOptions generous;
  generous.query_deadline_ms = 600000;
  std::vector<serve::QueryScheduler::Submission> head;
  for (int i = 0; i < 4; ++i) {
    head.push_back(session.SubmitPlan(plan, generous));
  }
  serve::QueryOptions uncached;
  uncached.use_cache = false;
  auto doomed = session.SubmitPlan(plan, uncached);
  auto answer = doomed.result.get();
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
      << answer.status().ToString();
  EXPECT_NE(answer.status().message().find("in the queue"),
            std::string::npos)
      << answer.status().ToString();
  for (auto& submission : head) {
    auto r = submission.result.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(ServeSchedulerTest, FinishedQueryIsRetiredBeforeItsAnswerIsVisible) {
  // A caller woken by get() must find the query finished everywhere:
  // not cancellable, not counted as running, and (tracing on) its
  // serve.query span ended and recorded. 200 one-at-a-time queries give
  // a worker that fulfils the promise first plenty of chances to lose
  // the race.
  Table data = MakeData();
  std::vector<Table> parts = PartitionByValue(data, "g", kSites).ValueOrDie();
  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("d", std::move(copy), {"g", "h", "v"}).Check();
  }
  serve::SessionOptions options;
  options.scheduler.max_concurrent_queries = 1;
  options.scheduler.cache_max_bytes = 0;
  auto session = serve::QuerySession::Open(&dw, options).ValueOrDie();
  DistributedPlan plan = PlanBatch(dw)[3];

  obs::Tracer& tracer = obs::Tracer::Global();
  const bool traced = obs::TracingCompiledIn();
  if (traced) {
    tracer.Clear();
    tracer.set_enabled(true);
  }
  for (int i = 0; i < 200; ++i) {
    const uint64_t mark = tracer.CommitMark();
    auto submission = session.SubmitPlan(plan);
    auto answer = submission.result.get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_FALSE(session.Cancel(submission.query_id)) << "query " << i;
    EXPECT_EQ(session.scheduler().running_queries(), 0u) << "query " << i;
    if (!traced) continue;
    bool span_found = false;
    for (const obs::TraceEvent& e : tracer.SnapshotSince(mark)) {
      if (e.name != "serve.query") continue;
      for (const auto& [key, value] : e.attrs) {
        if (key == "query_id" && value == std::to_string(submission.query_id)) {
          span_found = true;
        }
      }
    }
    EXPECT_TRUE(span_found) << "query " << i;
  }
  if (traced) {
    tracer.set_enabled(false);
    tracer.Clear();
  }
}

}  // namespace
}  // namespace skalla

// Protocol-v5 frame multiplexing: two different queries submitted
// concurrently through one RpcExecutor share its per-site TCP
// connections, so each site sees rounds of both queries interleaved on
// one socket, keyed by each round's query id. Results must be
// byte-identical to isolated sequential runs — with and without seeded
// transport chaos (drops, CRC corruption, mid-frame resets, delays)
// forcing reconnects and idempotent round retries mid-interleave.

#include "rpc/rpc_executor.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "net/serde.h"
#include "rpc/server.h"
#include "rpc/site_service.h"
#include "rpc/tcp.h"
#include "serve/session.h"
#include "storage/partition.h"

namespace skalla {
namespace {

constexpr size_t kSites = 3;

Table MakeFlow(size_t rows) {
  Random rng(83);
  SchemaPtr schema = Schema::Make({{"SAS", ValueType::kInt64},
                                   {"NB", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked(
        {Value(rng.UniformInt(0, 11)), Value(rng.UniformInt(1, 300))});
  }
  return t;
}

// Two deliberately different shapes: distinct base keys, stage counts,
// and carried aggregates, so mixed-up rounds could not accidentally
// produce the right answer.
GmdjExpr QueryA() {
  GmdjExpr expr;
  expr.base = BaseQuery{"flow", {"SAS"}, true, nullptr};
  GmdjOp md1;
  md1.detail_table = "flow";
  md1.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}, {AggKind::kAvg, "NB", "a"}},
      Eq(RCol("SAS"), BCol("SAS"))});
  GmdjOp md2;
  md2.detail_table = "flow";
  md2.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c2"}},
      And(Eq(RCol("SAS"), BCol("SAS")), Ge(RCol("NB"), BCol("a")))});
  expr.ops = {md1, md2};
  return expr;
}

GmdjExpr QueryB() {
  GmdjExpr expr;
  expr.base = BaseQuery{"flow", {"NB"}, true, nullptr};
  GmdjOp md1;
  md1.detail_table = "flow";
  md1.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "n"}, {AggKind::kSum, "SAS", "s"}},
      Eq(RCol("NB"), BCol("NB"))});
  expr.ops = {md1};
  return expr;
}

std::vector<Site> MakeSites(const std::vector<Table>& parts) {
  std::vector<Site> sites;
  for (size_t i = 0; i < parts.size(); ++i) {
    Catalog catalog;
    catalog.Register("flow", parts[i]);
    sites.emplace_back(static_cast<int>(i), std::move(catalog));
  }
  return sites;
}

std::vector<uint8_t> TableBytes(const Table& t) {
  std::vector<uint8_t> bytes;
  WriteTable(t, &bytes);
  return bytes;
}

/// Loopback site servers, optionally with seeded transport chaos.
class Cluster {
 public:
  Cluster(std::vector<Site> sites, uint64_t chaos_seed) {
    for (size_t i = 0; i < sites.size(); ++i) {
      services_.push_back(
          std::make_unique<rpc::SiteService>(std::move(sites[i])));
      rpc::SiteServerOptions options;
      options.accept_timeout_s = 0.05;
      options.io_timeout_s = 5.0;
      if (chaos_seed != 0) {
        options.chaos.seed = chaos_seed + i;
        options.chaos.drop_response_prob = 0.1;
        options.chaos.corrupt_crc_prob = 0.1;
        options.chaos.reset_midframe_prob = 0.05;
        options.chaos.delay_prob = 0.2;
        options.chaos.delay_ms = 2;
      }
      servers_.push_back(
          std::make_unique<rpc::SiteServer>(services_.back().get(), options));
      servers_.back()->Start().Check();
      // Capture the server itself: servers_ reallocates as it grows.
      threads_.emplace_back(
          [server = servers_.back().get()] { (void)server->Serve(); });
    }
  }

  ~Cluster() {
    for (auto& server : servers_) server->Stop();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::vector<rpc::SiteEndpoint> endpoints() const {
    std::vector<rpc::SiteEndpoint> out;
    for (const auto& server : servers_) {
      out.push_back({"127.0.0.1", server->port()});
    }
    return out;
  }

  int total_faults() const {
    int total = 0;
    for (const auto& server : servers_) {
      total += server->chaos_faults_injected();
    }
    return total;
  }

 private:
  std::vector<std::unique_ptr<rpc::SiteService>> services_;
  std::vector<std::unique_ptr<rpc::SiteServer>> servers_;
  std::vector<std::thread> threads_;
};

class RpcInterleaveTest : public ::testing::Test {
 protected:
  RpcInterleaveTest() : dw_(kSites) {
    parts_ = PartitionByValue(MakeFlow(600), "SAS", kSites).ValueOrDie();
    std::vector<Table> copy = parts_;
    dw_.AddPartitionedTable("flow", std::move(copy), {"SAS", "NB"}).Check();
    plan_a_ = dw_.Plan(QueryA(), OptimizerOptions::All()).ValueOrDie();
    plan_b_ = dw_.Plan(QueryB(), OptimizerOptions::None()).ValueOrDie();

    // Isolated baselines from the warehouse's in-process sites.
    expected_a_ = TableBytes(dw_.ExecutePlan(plan_a_).ValueOrDie());
    expected_b_ = TableBytes(dw_.ExecutePlan(plan_b_).ValueOrDie());
  }

  // Submits `rounds` copies of both plans concurrently through one
  // session over one RpcExecutor (one TCP connection per site, shared
  // by every query), and checks each result against its baseline.
  void RunInterleaved(const Cluster& cluster, size_t rounds,
                      size_t max_site_retries) {
    rpc::TcpOptions tcp;
    tcp.io_timeout_s = 5.0;
    tcp.backoff_initial_s = 0.005;
    tcp.backoff_max_s = 0.05;
    ExecutorOptions exec_options;
    exec_options.max_site_retries = max_site_retries;
    auto executor = std::make_unique<rpc::RpcExecutor>(
        std::make_unique<rpc::TcpTransport>(cluster.endpoints(), tcp),
        exec_options);

    serve::SessionOptions options;
    options.scheduler.max_concurrent_queries = 2 * rounds;
    options.scheduler.cache_max_bytes = 0;  // every submission evaluates
    serve::QuerySession session =
        serve::QuerySession::Wrap(std::move(executor), options);

    std::vector<serve::QueryScheduler::Submission> a_subs;
    std::vector<serve::QueryScheduler::Submission> b_subs;
    for (size_t i = 0; i < rounds; ++i) {
      a_subs.push_back(session.SubmitPlan(plan_a_));
      b_subs.push_back(session.SubmitPlan(plan_b_));
    }
    for (size_t i = 0; i < rounds; ++i) {
      auto a = a_subs[i].result.get();
      ASSERT_TRUE(a.ok()) << "query A #" << i << ": "
                          << a.status().ToString();
      EXPECT_EQ(TableBytes(a->table), expected_a_) << "query A #" << i;
      auto b = b_subs[i].result.get();
      ASSERT_TRUE(b.ok()) << "query B #" << i << ": "
                          << b.status().ToString();
      EXPECT_EQ(TableBytes(b->table), expected_b_) << "query B #" << i;
    }
  }

  DistributedWarehouse dw_;
  std::vector<Table> parts_;
  DistributedPlan plan_a_;
  DistributedPlan plan_b_;
  std::vector<uint8_t> expected_a_;
  std::vector<uint8_t> expected_b_;
};

TEST_F(RpcInterleaveTest, TwoQueriesShareConnectionsCleanly) {
  Cluster cluster(MakeSites(parts_), /*chaos_seed=*/0);
  RunInterleaved(cluster, /*rounds=*/3, /*max_site_retries=*/0);
}

TEST_F(RpcInterleaveTest, InterleavingSurvivesSeededChaos) {
  Cluster cluster(MakeSites(parts_), /*chaos_seed=*/47);
  RunInterleaved(cluster, /*rounds=*/3, /*max_site_retries=*/4);
  // The seed is chosen so the chaos hooks actually fire mid-interleave.
  EXPECT_GT(cluster.total_faults(), 0);
}

}  // namespace
}  // namespace skalla

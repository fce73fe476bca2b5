// Deterministic chaos soak: the query suite runs under a seeded
// ChaosInjector (request faults, response faults, dead sites) and under
// transport-level chaos in the TCP server, and every run must produce
// byte-for-byte the result of a fault-free sequential run — in-process
// at every fan-out width, and over TCP. Faults are a pure function of
// the seed, so every failure here replays exactly.

#include "dist/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "net/serde.h"
#include "rpc/rpc_executor.h"
#include "rpc/server.h"
#include "rpc/site_service.h"
#include "rpc/tcp.h"
#include "rpc/transport.h"
#include "storage/partition.h"

namespace skalla {
namespace {

constexpr size_t kSites = 4;

Table MakeFlow(size_t rows) {
  Random rng(71);
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

// The soak suite: every query shape the engines distinguish — multi
// stage, filtered base, and single stage.
std::vector<GmdjExpr> QuerySuite() {
  GmdjExpr two_stage;
  two_stage.base = BaseQuery{"flow", {"SAS"}, true, nullptr};
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
  two_stage.ops = {md1, md2};

  GmdjExpr filtered;
  filtered.base = BaseQuery{"flow", {"SAS"}, true,
                            Gt(RCol("NB"), Lit(Value(int64_t{50})))};
  filtered.ops = {md1};

  GmdjExpr single;
  single.base = BaseQuery{"flow", {"SAS"}, true, nullptr};
  GmdjOp sums;
  sums.detail_table = "flow";
  sums.blocks.push_back(GmdjBlock{
      {{AggKind::kSum, "NB", "s"}, {AggKind::kMax, "NB", "m"}},
      Eq(RCol("SAS"), BCol("SAS"))});
  single.ops = {sums};

  return {two_stage, filtered, single};
}

std::vector<uint8_t> TableBytes(const Table& table) {
  std::vector<uint8_t> bytes;
  WriteTable(table, &bytes);
  return bytes;
}

struct Fixture {
  Table flow = MakeFlow(400);
  std::vector<Table> parts;
  DistributedWarehouse dw{kSites};

  Fixture() {
    parts = PartitionByValue(flow, "SAS", kSites).ValueOrDie();
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("flow", std::move(copy), {"SAS", "NB"}).Check();
  }

  std::vector<Site> MakeSites() const {
    std::vector<Site> sites;
    for (size_t i = 0; i < kSites; ++i) {
      Catalog catalog;
      catalog.Register("flow", parts[i]);
      sites.emplace_back(static_cast<int>(i), std::move(catalog));
    }
    return sites;
  }
};

// The chaos budget and the retry budget line up: at most one fault per
// (site, round, phase) and two phases, so two retries always recover —
// except at dead sites, which exhaust retries and fail over.
ChaosConfig SoakChaos(uint64_t seed, std::vector<int> dead_sites = {}) {
  ChaosConfig config;
  config.seed = seed;
  config.before_fail_prob = 0.6;
  config.after_fail_prob = 0.4;
  config.max_faults_per_site_round = 1;
  config.dead_sites = std::move(dead_sites);
  return config;
}

// The fault-free reference: one site after another, in site order.
ExecutorOptions CleanOptions() {
  ExecutorOptions options;
  options.fanout_threads = 1;
  return options;
}

ExecutorOptions SoakOptions(FaultInjector* injector) {
  ExecutorOptions options;
  options.fault_injector = injector;
  options.max_site_retries = 2;
  return options;
}

TEST(ChaosSoakTest, ScheduleIsReproducibleFromSeed) {
  Fixture fx;
  DistributedPlan plan =
      fx.dw.Plan(QuerySuite()[0], OptimizerOptions::None()).ValueOrDie();
  int64_t first_injected = -1;
  std::vector<uint8_t> first_bytes;
  for (int run = 0; run < 2; ++run) {
    ChaosInjector injector(SoakChaos(/*seed=*/17));
    rpc::RpcExecutor executor(
        std::make_unique<rpc::InProcessTransport>(fx.MakeSites()),
        SoakOptions(&injector));
    Table result = executor.Execute(plan, nullptr).ValueOrDie();
    if (run == 0) {
      first_injected = injector.injected();
      first_bytes = TableBytes(result);
      EXPECT_GT(first_injected, 0);
    } else {
      EXPECT_EQ(injector.injected(), first_injected);
      EXPECT_EQ(TableBytes(result), first_bytes);
    }
  }
}

TEST(ChaosSoakTest, ResetReplaysTheSameSchedule) {
  Fixture fx;
  DistributedPlan plan =
      fx.dw.Plan(QuerySuite()[0], OptimizerOptions::None()).ValueOrDie();
  ChaosInjector injector(SoakChaos(/*seed=*/17));
  rpc::RpcExecutor executor(
      std::make_unique<rpc::InProcessTransport>(fx.MakeSites()),
      SoakOptions(&injector));
  executor.Execute(plan, nullptr).ValueOrDie();
  int64_t after_first = injector.injected();
  injector.Reset();
  executor.Execute(plan, nullptr).ValueOrDie();
  EXPECT_EQ(injector.injected() - after_first, after_first);
}

TEST(ChaosSoakTest, ByteIdenticalUnderChaos) {
  Fixture fx;
  for (const OptimizerOptions& opts :
       {OptimizerOptions::None(), OptimizerOptions::All()}) {
    SCOPED_TRACE(opts.ToString());
    for (const GmdjExpr& query : QuerySuite()) {
      DistributedPlan plan = fx.dw.Plan(query, opts).ValueOrDie();
      rpc::RpcExecutor clean(
          std::make_unique<rpc::InProcessTransport>(fx.MakeSites()),
          CleanOptions());
      std::vector<uint8_t> expected =
          TableBytes(clean.Execute(plan, nullptr).ValueOrDie());
      for (uint64_t seed : {3u, 19u, 101u}) {
        SCOPED_TRACE(seed);
        ChaosInjector injector(SoakChaos(seed));
        rpc::RpcExecutor executor(
            std::make_unique<rpc::InProcessTransport>(fx.MakeSites()),
            SoakOptions(&injector));
        Table result = executor.Execute(plan, nullptr).ValueOrDie();
        EXPECT_EQ(TableBytes(result), expected);
      }
    }
  }
}

TEST(ChaosSoakTest, EveryFanOutWidthByteIdenticalUnderChaos) {
  // Sites finish in a scheduling-dependent order under chaos; fragments
  // still merge in site order, so the bytes match the clean sequential
  // run, and the chaos schedule is a function of (site, round, attempt),
  // so one site after another (1), two workers (2) and one worker per
  // site (0) account the same bytes, tuples and per-site profiles.
  Fixture fx;
  for (const GmdjExpr& query : QuerySuite()) {
    DistributedPlan plan =
        fx.dw.Plan(query, OptimizerOptions::All()).ValueOrDie();
    rpc::RpcExecutor clean(
        std::make_unique<rpc::InProcessTransport>(fx.MakeSites()),
        CleanOptions());
    std::vector<uint8_t> expected =
        TableBytes(clean.Execute(plan, nullptr).ValueOrDie());
    for (uint64_t seed : {3u, 19u}) {
      SCOPED_TRACE(seed);
      ExecStats reference;
      for (size_t width : {1, 0, 2}) {
        SCOPED_TRACE(width);
        ChaosInjector injector(SoakChaos(seed));
        ExecutorOptions options = SoakOptions(&injector);
        options.fanout_threads = width;
        rpc::RpcExecutor executor(
            std::make_unique<rpc::InProcessTransport>(fx.MakeSites()), options);
        ExecStats stats;
        Table result = executor.Execute(plan, &stats).ValueOrDie();
        EXPECT_EQ(TableBytes(result), expected);
        if (width == 1) {
          reference = stats;
          continue;
        }
        EXPECT_EQ(stats.TotalBytesToSites(), reference.TotalBytesToSites());
        EXPECT_EQ(stats.TotalBytesToCoord(), reference.TotalBytesToCoord());
        EXPECT_EQ(stats.TotalTuplesTransferred(),
                  reference.TotalTuplesTransferred());
        EXPECT_EQ(stats.TotalSiteRetries(), reference.TotalSiteRetries());
        ASSERT_EQ(stats.rounds.size(), reference.rounds.size());
        for (size_t r = 0; r < stats.rounds.size(); ++r) {
          const auto& got = stats.rounds[r].site_profiles;
          const auto& want = reference.rounds[r].site_profiles;
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].site_id, want[i].site_id);
            EXPECT_EQ(got[i].bytes_in, want[i].bytes_in);
            EXPECT_EQ(got[i].bytes_out, want[i].bytes_out);
            EXPECT_EQ(got[i].result_rows, want[i].result_rows);
            EXPECT_EQ(got[i].rows_scanned, want[i].rows_scanned);
            EXPECT_EQ(got[i].rows_matched, want[i].rows_matched);
          }
        }
      }
    }
  }
}

TEST(ChaosSoakTest, PermanentLossWithReplicaStaysByteIdentical) {
  // The acceptance bar: transient chaos plus one permanently dead
  // primary, whose replica absorbs the round via failover. Replicas sit
  // at endpoints 4..7 (SetReplication's site ids), so chaos aimed at
  // primary ids never hits them. None(): every round is self-contained,
  // so every round may fail over.
  Fixture fx;
  fx.dw.SetReplication(2);
  for (const GmdjExpr& query : QuerySuite()) {
    DistributedPlan plan =
        fx.dw.Plan(query, OptimizerOptions::None()).ValueOrDie();
    rpc::RpcExecutor clean(
        std::make_unique<rpc::InProcessTransport>(fx.MakeSites()),
        CleanOptions());
    std::vector<uint8_t> expected =
        TableBytes(clean.Execute(plan, nullptr).ValueOrDie());
    ChaosInjector injector(SoakChaos(/*seed=*/43, /*dead_sites=*/{2}));
    std::unique_ptr<rpc::RpcExecutor> executor =
        fx.dw.MakeExecutor(NetworkConfig{}, SoakOptions(&injector));
    ASSERT_EQ(executor->num_sites(), kSites);
    ExecStats stats;
    Table result = executor->Execute(plan, &stats).ValueOrDie();
    EXPECT_EQ(TableBytes(result), expected);
    EXPECT_GT(stats.TotalSiteFailovers(), 0u);
    EXPECT_TRUE(stats.complete());
  }
}

TEST(ChaosSoakTest, UnreplicatedLossDegradesAndReportsTheSite) {
  Fixture fx;
  DistributedPlan plan =
      fx.dw.Plan(QuerySuite()[0], OptimizerOptions::None()).ValueOrDie();
  ChaosInjector injector(SoakChaos(/*seed=*/7, /*dead_sites=*/{2}));
  ExecutorOptions options = SoakOptions(&injector);
  options.on_site_loss = OnSiteLoss::kDegrade;
  rpc::RpcExecutor executor(
      std::make_unique<rpc::InProcessTransport>(fx.MakeSites()), options);
  ExecStats stats;
  Table result = executor.Execute(plan, &stats).ValueOrDie();
  EXPECT_GT(result.num_rows(), 0u);
  EXPECT_FALSE(stats.complete());
  ASSERT_EQ(stats.lost_sites.size(), 1u);
  EXPECT_EQ(stats.lost_sites[0], 2);
}

// ---- Transport-level chaos over real sockets -----------------------------

/// Site servers on loopback with seeded transport chaos enabled.
class ChaosCluster {
 public:
  ChaosCluster(std::vector<Site> sites, uint64_t seed) {
    for (size_t i = 0; i < sites.size(); ++i) {
      services_.push_back(
          std::make_unique<rpc::SiteService>(std::move(sites[i])));
      rpc::SiteServerOptions options;
      options.accept_timeout_s = 0.05;
      options.io_timeout_s = 5.0;
      // Distinct per-server seeds so the fleet's fault mix varies.
      options.chaos.seed = seed + i;
      options.chaos.drop_response_prob = 0.2;
      options.chaos.corrupt_crc_prob = 0.15;
      options.chaos.reset_midframe_prob = 0.15;
      options.chaos.delay_prob = 0.2;
      options.chaos.delay_ms = 2;
      servers_.push_back(
          std::make_unique<rpc::SiteServer>(services_.back().get(), options));
      servers_.back()->Start().Check();
      // Capture the server itself: servers_ reallocates as it grows.
      threads_.emplace_back(
          [server = servers_.back().get()] { (void)server->Serve(); });
    }
  }

  ~ChaosCluster() {
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

TEST(ChaosSoakTest, TcpTransportChaosIsSurvivedByteIdentically) {
  Fixture fx;
  int faults_seen = 0;
  for (const OptimizerOptions& opts :
       {OptimizerOptions::None(), OptimizerOptions::All()}) {
    SCOPED_TRACE(opts.ToString());
    DistributedPlan plan = fx.dw.Plan(QuerySuite()[0], opts).ValueOrDie();
    rpc::RpcExecutor in_process(
        std::make_unique<rpc::InProcessTransport>(fx.MakeSites()),
        CleanOptions());
    std::vector<uint8_t> expected =
        TableBytes(in_process.Execute(plan, nullptr).ValueOrDie());

    ChaosCluster cluster(fx.MakeSites(), /*seed=*/29);
    rpc::TcpOptions tcp;
    tcp.connect_timeout_s = 5.0;
    tcp.io_timeout_s = 5.0;
    tcp.backoff_initial_s = 0.005;
    ExecutorOptions options;
    options.max_site_retries = 2;
    rpc::RpcExecutor executor(
        std::make_unique<rpc::TcpTransport>(cluster.endpoints(), tcp),
        options);
    auto result = executor.Execute(plan, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(TableBytes(*result), expected);
    faults_seen += cluster.total_faults();
  }
  // The seed is chosen so the schedule actually bites; a zero here means
  // the chaos hooks silently stopped firing.
  EXPECT_GT(faults_seen, 0);
}

}  // namespace
}  // namespace skalla

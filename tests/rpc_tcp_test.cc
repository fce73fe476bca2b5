// The TCP transport against real loopback sockets: in-process SiteServer
// threads serve SiteServices, the RpcExecutor dials them, and the
// results (and table-payload byte accounting) must match the in-process
// transport exactly. Also covers the recovery story — an
// injected mid-round connection drop survived via reconnect + retry —
// and the typed rejection of foreign protocol versions.

#include "rpc/tcp.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dist/fault.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "rpc/plan_serde.h"
#include "rpc/rpc_executor.h"
#include "rpc/server.h"
#include "rpc/site_service.h"
#include "storage/partition.h"
#include "types/row.h"

namespace skalla {
namespace rpc {
namespace {

constexpr size_t kSites = 4;

Table MakeFlow(size_t rows) {
  Random rng(67);
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

GmdjExpr SimpleQuery() {
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

std::vector<Site> MakeSites(const std::vector<Table>& parts) {
  std::vector<Site> sites;
  for (size_t i = 0; i < parts.size(); ++i) {
    Catalog catalog;
    catalog.Register("flow", parts[i]);
    sites.emplace_back(static_cast<int>(i), std::move(catalog));
  }
  return sites;
}

bool ExactlyEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (!RowEquals(a.row(r), b.row(r))) return false;
  }
  return true;
}

/// N site servers on loopback, each in its own thread.
class Cluster {
 public:
  explicit Cluster(std::vector<Site> sites,
                   std::vector<int> drop_request_index = {}) {
    for (size_t i = 0; i < sites.size(); ++i) {
      services_.push_back(
          std::make_unique<SiteService>(std::move(sites[i])));
      SiteServerOptions options;
      options.accept_timeout_s = 0.05;
      options.io_timeout_s = 5.0;
      if (i < drop_request_index.size()) {
        options.drop_request_index = drop_request_index[i];
      }
      servers_.push_back(
          std::make_unique<SiteServer>(services_.back().get(), options));
      servers_.back()->Start().Check();
    }
    // Serve threads start once the vectors stop growing: they index them.
    serve_status_.assign(servers_.size(), Status::OK());
    for (size_t i = 0; i < servers_.size(); ++i) {
      threads_.emplace_back([this, i] {
        serve_status_[i] = servers_[i]->Serve();
      });
    }
  }

  ~Cluster() { Stop(); }

  void Stop() {
    for (auto& server : servers_) server->Stop();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::vector<SiteEndpoint> endpoints() const {
    std::vector<SiteEndpoint> out;
    for (const auto& server : servers_) {
      out.push_back({"127.0.0.1", server->port()});
    }
    return out;
  }

  const Status& serve_status(size_t i) const { return serve_status_[i]; }

 private:
  std::vector<std::unique_ptr<SiteService>> services_;
  std::vector<std::unique_ptr<SiteServer>> servers_;
  std::vector<Status> serve_status_;
  std::vector<std::thread> threads_;
};

TcpOptions FastTcpOptions() {
  TcpOptions options;
  options.connect_timeout_s = 5.0;
  options.io_timeout_s = 5.0;
  options.backoff_initial_s = 0.005;
  options.backoff_max_s = 0.05;  // dead-endpoint tests probe repeatedly
  return options;
}

TEST(RpcTcpTest, MatchesInProcessTransportOverLoopback) {
  Table flow = MakeFlow(500);
  std::vector<Table> parts = PartitionByValue(flow, "SAS", kSites)
                                 .ValueOrDie();
  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("flow", std::move(copy), {"SAS", "NB"}).Check();
  }

  for (const OptimizerOptions& opts :
       {OptimizerOptions::None(), OptimizerOptions::All()}) {
    SCOPED_TRACE(opts.ToString());
    DistributedPlan plan = dw.Plan(SimpleQuery(), opts).ValueOrDie();

    RpcExecutor local(
        std::make_unique<InProcessTransport>(MakeSites(parts)), {});
    ExecStats local_stats;
    Table expected = local.Execute(plan, &local_stats).ValueOrDie();

    Cluster cluster(MakeSites(parts));
    RpcExecutor executor(
        std::make_unique<TcpTransport>(cluster.endpoints(),
                                       FastTcpOptions()),
        ExecutorOptions{});
    ExecStats stats;
    auto result = executor.Execute(plan, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(ExactlyEqual(*result, expected));
    EXPECT_EQ(stats.TotalBytesToSites(), local_stats.TotalBytesToSites());
    EXPECT_EQ(stats.TotalBytesToCoord(), local_stats.TotalBytesToCoord());
    EXPECT_EQ(stats.TotalTuplesTransferred(),
              local_stats.TotalTuplesTransferred());
    // Real sockets moved more than the accounted table payloads.
    EXPECT_GT(executor.wire_bytes(), stats.TotalBytes());
  }
}

TEST(RpcTcpTest, MidRoundConnectionDropRecoversViaRetry) {
  Table flow = MakeFlow(400);
  std::vector<Table> parts = PartitionByValue(flow, "SAS", kSites)
                                 .ValueOrDie();
  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("flow", std::move(copy), {"SAS", "NB"}).Check();
  }
  DistributedPlan plan =
      dw.Plan(SimpleQuery(), OptimizerOptions::None()).ValueOrDie();
  RpcExecutor local(std::make_unique<InProcessTransport>(MakeSites(parts)),
                    {});
  Table expected = local.Execute(plan, nullptr).ValueOrDie();

  // Site 1 hangs up instead of answering its 4th request — the first
  // GMDJ round (after catalog probe, begin-plan, and base round). The
  // coordinator must reconnect and retry without changing the result.
  std::vector<int> drops(kSites, -1);
  drops[1] = 3;
  Cluster cluster(MakeSites(parts), drops);

  ExecutorOptions options;
  options.max_site_retries = 2;
  RpcExecutor executor(
      std::make_unique<TcpTransport>(cluster.endpoints(), FastTcpOptions()),
      options);
  ExecStats stats;
  auto result = executor.Execute(plan, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ExactlyEqual(*result, expected));
  size_t total_retries = 0;
  for (const RoundStats& r : stats.rounds) total_retries += r.site_retries;
  EXPECT_EQ(total_retries, 1u);
}

TEST(RpcTcpTest, DropWithoutRetriesSurfacesTheFailure) {
  Table flow = MakeFlow(200);
  std::vector<Table> parts = PartitionByValue(flow, "SAS", kSites)
                                 .ValueOrDie();
  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("flow", std::move(copy), {"SAS", "NB"}).Check();
  }
  DistributedPlan plan =
      dw.Plan(SimpleQuery(), OptimizerOptions::None()).ValueOrDie();

  std::vector<int> drops(kSites, -1);
  drops[2] = 3;
  Cluster cluster(MakeSites(parts), drops);
  RpcExecutor executor(
      std::make_unique<TcpTransport>(cluster.endpoints(), FastTcpOptions()),
      ExecutorOptions{});  // max_site_retries = 0
  auto result = executor.Execute(plan, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
}

TEST(RpcTcpTest, ForeignVersionFrameGetsTypedRejection) {
  Table flow = MakeFlow(50);
  std::vector<Table> parts = PartitionByValue(flow, "SAS", 1).ValueOrDie();
  Cluster cluster(MakeSites(parts));
  int port = cluster.endpoints()[0].port;

  TcpSocket socket =
      TcpSocket::ConnectTo("127.0.0.1", port, 5.0).ValueOrDie();
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kCatalogRequest, {});
  wire[4] = kProtocolVersion + 1;  // a future coordinator
  ASSERT_TRUE(socket.SendAll(wire.data(), wire.size(), 5.0).ok());

  Result<Frame> response = RecvFrame(&socket, 5.0, nullptr);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->type, MessageType::kError);
  Status rejection = ReadStatusPayload(response->payload);
  EXPECT_TRUE(rejection.IsVersionMismatch()) << rejection.ToString();
}

// A port outside [0, 65535] is rejected, not wrapped onto another port
// (70001 would otherwise dial 4465, -1 would bind 65535).
TEST(RpcTcpTest, OutOfRangePortsAreRejected) {
  EXPECT_TRUE(TcpListener::Bind("127.0.0.1", 65536).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(TcpListener::Bind("127.0.0.1", -1).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(TcpSocket::ConnectTo("127.0.0.1", 70001, 1.0).status()
                  .IsInvalidArgument());
}

// A port that was bound a moment ago but has no listener now: connects
// are refused immediately, modelling a site that is down before the
// query starts.
int DeadPort() {
  TcpListener listener = TcpListener::Bind("127.0.0.1", 0).ValueOrDie();
  int port = listener.port();
  listener.Close();
  return port;
}

TEST(RpcTcpTest, DeadPrimaryEndpointFailsOverToReplica) {
  Table flow = MakeFlow(400);
  std::vector<Table> parts = PartitionByValue(flow, "SAS", kSites)
                                 .ValueOrDie();
  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("flow", std::move(copy), {"SAS", "NB"}).Check();
  }
  DistributedPlan plan =
      dw.Plan(SimpleQuery(), OptimizerOptions::None()).ValueOrDie();
  RpcExecutor local(std::make_unique<InProcessTransport>(MakeSites(parts)),
                    {});
  Table expected = local.Execute(plan, nullptr).ValueOrDie();

  // Live servers for sites 0, 1, 3, and a replica of partition 2 under
  // site id 4. Endpoint 2 points at a closed port: the primary for
  // partition 2 is down before the coordinator ever dials it, so the
  // catalog probe fails there, every round's first attempt there fails,
  // and every round must fail over to endpoint 4.
  std::vector<Site> sites;
  for (int id : {0, 1, 3, 4}) {
    Catalog catalog;
    catalog.Register("flow", parts[id == 4 ? 2 : id]);
    sites.emplace_back(id, std::move(catalog));
  }
  Cluster cluster(std::move(sites));
  std::vector<SiteEndpoint> live = cluster.endpoints();
  std::vector<SiteEndpoint> endpoints = {
      live[0], live[1], {"127.0.0.1", DeadPort()}, live[2], live[3]};

  ExecutorOptions options;
  options.max_site_retries = 1;
  RpcExecutor executor(
      std::make_unique<TcpTransport>(std::move(endpoints), FastTcpOptions()),
      options);
  executor.AddReplica(2, 4);
  ASSERT_EQ(executor.num_sites(), kSites);
  ExecStats stats;
  auto result = executor.Execute(plan, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ExactlyEqual(*result, expected));
  EXPECT_GT(stats.TotalSiteFailovers(), 0u);
  EXPECT_TRUE(stats.complete());
}

TEST(RpcTcpTest, DeadUnreplicatedEndpointDegradesWhenAllowed) {
  Table flow = MakeFlow(400);
  std::vector<Table> parts = PartitionByValue(flow, "SAS", kSites)
                                 .ValueOrDie();
  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("flow", std::move(copy), {"SAS", "NB"}).Check();
  }
  DistributedPlan plan =
      dw.Plan(SimpleQuery(), OptimizerOptions::None()).ValueOrDie();

  // The degraded ground truth: in-process sites losing site 2 the same
  // way (permanently, no replica) under kDegrade.
  PermanentSiteFailure down(2);
  ExecutorOptions degrade;
  degrade.fault_injector = &down;
  degrade.on_site_loss = OnSiteLoss::kDegrade;
  RpcExecutor local(
      std::make_unique<InProcessTransport>(MakeSites(parts)), degrade);
  ExecStats local_stats;
  Table expected = local.Execute(plan, &local_stats).ValueOrDie();
  ASSERT_EQ(local_stats.lost_sites, (std::vector<int>{2}));

  std::vector<Site> sites;
  for (int id : {0, 1, 3}) {
    Catalog catalog;
    catalog.Register("flow", parts[id]);
    sites.emplace_back(id, std::move(catalog));
  }
  Cluster cluster(std::move(sites));
  std::vector<SiteEndpoint> live = cluster.endpoints();
  std::vector<SiteEndpoint> endpoints = {
      live[0], live[1], {"127.0.0.1", DeadPort()}, live[2]};

  ExecutorOptions options;
  options.on_site_loss = OnSiteLoss::kDegrade;
  RpcExecutor executor(
      std::make_unique<TcpTransport>(std::move(endpoints), FastTcpOptions()),
      options);
  ExecStats stats;
  auto result = executor.Execute(plan, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ExactlyEqual(*result, expected));
  EXPECT_EQ(stats.lost_sites, (std::vector<int>{2}));
  EXPECT_FALSE(stats.complete());
}

TEST(RpcTcpTest, ShutdownStopsTheServers) {
  Table flow = MakeFlow(100);
  std::vector<Table> parts = PartitionByValue(flow, "SAS", 2).ValueOrDie();
  Cluster cluster(MakeSites(parts));
  RpcExecutor executor(
      std::make_unique<TcpTransport>(cluster.endpoints(), FastTcpOptions()),
      ExecutorOptions{});
  ASSERT_TRUE(executor.Shutdown().ok());
  // Serve loops exit on their own — Stop() here only joins.
  cluster.Stop();
  EXPECT_TRUE(cluster.serve_status(0).ok());
  EXPECT_TRUE(cluster.serve_status(1).ok());
}

}  // namespace
}  // namespace rpc
}  // namespace skalla

// RpcExecutor over the in-process transport: the full query battery must
// match the centralized reference under both extreme optimizer
// configurations, row-for-row identical with identical accounting
// whether a round fans out concurrently or one site after another. Every
// exchange round-trips through the framed wire encoding, so this pins
// the whole protocol stack short of the sockets (rpc_tcp_test adds them).

#include "rpc/rpc_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/macros.h"
#include "data/flow_gen.h"
#include "data/tpcr_gen.h"
#include "dist/warehouse.h"
#include "net/serde.h"
#include "obs/obs.h"
#include "rpc/plan_serde.h"
#include "rpc/transport.h"
#include "sql/parser.h"
#include "storage/partition.h"
#include "types/row.h"

namespace skalla {
namespace {

using rpc::InProcessTransport;
using rpc::RpcExecutor;

constexpr size_t kSites = 4;

struct QueryCase {
  const char* name;
  const char* text;
};

// The query_suite battery (flow + tpcr), verbatim.
const QueryCase kQueries[] = {
    {"per_source_totals", R"(
      BASE SELECT DISTINCT SourceAS FROM flow;
      MD USING flow
         COMPUTE COUNT(*) AS flows, SUM(NumBytes) AS bytes,
                 MAX(NumPackets) AS max_pkts
         WHERE r.SourceAS = b.SourceAS;
    )"},
    {"above_average_pairs", R"(
      BASE SELECT DISTINCT SourceAS, DestAS FROM flow;
      MD USING flow
         COMPUTE COUNT(*) AS cnt1, SUM(NumBytes) AS sum1
         WHERE r.SourceAS = b.SourceAS AND r.DestAS = b.DestAS;
      MD USING flow
         COMPUTE COUNT(*) AS cnt2
         WHERE r.SourceAS = b.SourceAS AND r.DestAS = b.DestAS
           AND r.NumBytes >= b.sum1 / b.cnt1;
    )"},
    {"web_vs_total_blocks", R"(
      BASE SELECT DISTINCT SourceAS FROM flow;
      MD USING flow
         COMPUTE COUNT(*) AS web
         WHERE r.SourceAS = b.SourceAS
           AND (r.DestPort = 80 OR r.DestPort = 443)
         COMPUTE COUNT(*) AS total, AVG(NumBytes) AS avg_bytes
         WHERE r.SourceAS = b.SourceAS;
    )"},
    {"filtered_base", R"(
      BASE SELECT DISTINCT DestAS FROM flow WHERE NumPackets > 100;
      MD USING flow
         COMPUTE COUNT(*) AS big_flows, MIN(NumBytes) AS smallest
         WHERE r.DestAS = b.DestAS AND r.NumPackets > 100;
    )"},
    {"three_round_chain", R"(
      BASE SELECT DISTINCT SourceAS FROM flow;
      MD USING flow
         COMPUTE MAX(NumBytes) AS biggest
         WHERE r.SourceAS = b.SourceAS;
      MD USING flow
         COMPUTE COUNT(*) AS at_max
         WHERE r.SourceAS = b.SourceAS AND r.NumBytes = b.biggest;
      MD USING flow
         COMPUTE SUM(NumPackets) AS pkts_at_max
         WHERE r.SourceAS = b.SourceAS AND r.NumBytes = b.biggest;
    )"},
    {"empty_result", R"(
      BASE SELECT DISTINCT SourceAS FROM flow WHERE SourceAS < 0;
      MD USING flow
         COMPUTE COUNT(*) AS c WHERE r.SourceAS = b.SourceAS;
    )"},
    {"non_equi_only", R"(
      BASE SELECT DISTINCT SourcePort FROM flow WHERE SourcePort < 1100;
      MD USING flow
         COMPUTE COUNT(*) AS lower_ports
         WHERE r.SourcePort < b.SourcePort;
    )"},
    {"clerk_low_cardinality", R"(
      BASE SELECT DISTINCT Clerk FROM tpcr;
      MD USING tpcr
         COMPUTE COUNT(*) AS lines, AVG(ExtendedPrice) AS avg_price
         WHERE r.Clerk = b.Clerk;
      MD USING tpcr
         COMPUTE COUNT(*) AS pricey
         WHERE r.Clerk = b.Clerk AND r.ExtendedPrice >= b.avg_price;
    )"},
    {"customer_quantities", R"(
      BASE SELECT DISTINCT CustKey FROM tpcr;
      MD USING tpcr
         COMPUTE COUNT(Quantity) AS big_qty_lines, SUM(Quantity) AS total_qty
         WHERE r.CustKey = b.CustKey AND r.Quantity > 10
         COMPUTE MIN(ShipDate) AS first_ship
         WHERE r.CustKey = b.CustKey;
    )"},
    {"cross_relation_chain", R"(
      BASE SELECT DISTINCT SourceAS FROM flow;
      MD USING flow
         COMPUTE COUNT(*) AS hist_flows, AVG(NumBytes) AS hist_avg
         WHERE r.SourceAS = b.SourceAS;
      MD USING flow_recent
         COMPUTE COUNT(*) AS recent_above
         WHERE r.SourceAS = b.SourceAS AND r.NumBytes >= b.hist_avg;
    )"},
};

bool ExactlyEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (!RowEquals(a.row(r), b.row(r))) return false;
  }
  return true;
}

class RpcExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FlowConfig flow_config;
    flow_config.num_flows = 1500;
    flow_config.num_routers = kSites;
    flow_config.num_as = 20;
    TpcrConfig tpcr_config;
    tpcr_config.num_rows = 2000;
    tpcr_config.num_customers = 200;
    tpcr_config.num_clerks = 30;
    FlowConfig recent_config = flow_config;
    recent_config.seed = 99;
    recent_config.num_flows = 1000;

    flow_parts_ = new std::vector<Table>(
        PartitionByValue(GenerateFlows(flow_config), "RouterId", kSites)
            .ValueOrDie());
    tpcr_parts_ = new std::vector<Table>(
        PartitionByValue(GenerateTpcr(tpcr_config), "NationKey", kSites)
            .ValueOrDie());
    recent_parts_ = new std::vector<Table>(
        PartitionByValue(GenerateFlows(recent_config), "RouterId", kSites)
            .ValueOrDie());

    warehouse_ = new DistributedWarehouse(kSites);
    warehouse_
        ->AddPartitionedTable(
            "flow", *flow_parts_,
            {"RouterId", "SourceAS", "DestAS", "DestPort", "SourcePort",
             "NumBytes", "NumPackets"})
        .Check();
    warehouse_
        ->AddPartitionedTable(
            "tpcr", *tpcr_parts_,
            {"NationKey", "CustKey", "CustName", "Clerk", "MktSegment",
             "OrderPriority", "Quantity", "ExtendedPrice"})
        .Check();
    warehouse_
        ->AddPartitionedTable("flow_recent", *recent_parts_,
                              {"RouterId", "SourceAS", "NumBytes"})
        .Check();
  }

  static void TearDownTestSuite() {
    delete warehouse_;
    delete flow_parts_;
    delete tpcr_parts_;
    delete recent_parts_;
    warehouse_ = nullptr;
    flow_parts_ = tpcr_parts_ = recent_parts_ = nullptr;
  }

  // The sites evaluate GMDJ rounds with `engine`.
  static std::vector<Site> MakeSites(
      EvalEngine engine = EvalEngine::kColumnar) {
    std::vector<Site> sites;
    for (size_t i = 0; i < kSites; ++i) {
      Catalog catalog;
      catalog.Register("flow", (*flow_parts_)[i]);
      catalog.Register("tpcr", (*tpcr_parts_)[i]);
      catalog.Register("flow_recent", (*recent_parts_)[i]);
      sites.emplace_back(static_cast<int>(i), std::move(catalog), engine);
    }
    return sites;
  }

  static DistributedWarehouse* warehouse_;
  static std::vector<Table>* flow_parts_;
  static std::vector<Table>* tpcr_parts_;
  static std::vector<Table>* recent_parts_;
};

DistributedWarehouse* RpcExecutorTest::warehouse_ = nullptr;
std::vector<Table>* RpcExecutorTest::flow_parts_ = nullptr;
std::vector<Table>* RpcExecutorTest::tpcr_parts_ = nullptr;
std::vector<Table>* RpcExecutorTest::recent_parts_ = nullptr;

TEST_F(RpcExecutorTest, MatchesCentralizedAndSequentialFanOut) {
  // Against the centralized reference, and byte for byte against the
  // same plan run one site after another: the merge order is the site
  // order either way, so even row order must match, and so must the
  // accounting (the paper's exact figures are pinned in
  // exec_stats_test's CostAccountingTest).
  ExecutorOptions sequential_options;
  sequential_options.fanout_threads = 1;
  for (const QueryCase& q : kQueries) {
    SCOPED_TRACE(q.name);
    GmdjExpr expr = ParseQuery(q.text).ValueOrDie();
    Table reference = warehouse_->ExecuteCentralized(expr).ValueOrDie();
    for (const OptimizerOptions& opts :
         {OptimizerOptions::None(), OptimizerOptions::All()}) {
      SCOPED_TRACE(opts.ToString());
      DistributedPlan plan = warehouse_->Plan(expr, opts).ValueOrDie();

      RpcExecutor sequential(std::make_unique<InProcessTransport>(MakeSites()),
                             sequential_options);
      ExecStats sequential_stats;
      Table sequential_result =
          sequential.Execute(plan, &sequential_stats).ValueOrDie();
      ASSERT_TRUE(sequential_result.ApproxSameRows(reference, 1e-9));

      RpcExecutor rpc(std::make_unique<InProcessTransport>(MakeSites()), {});
      ExecStats rpc_stats;
      auto rpc_result = rpc.Execute(plan, &rpc_stats);
      ASSERT_TRUE(rpc_result.ok()) << rpc_result.status().ToString();

      EXPECT_TRUE(ExactlyEqual(*rpc_result, sequential_result))
          << "expected:\n"
          << sequential_result.ToString(30) << "actual:\n"
          << rpc_result->ToString(30);

      // And the accounting, round by round.
      ASSERT_EQ(rpc_stats.rounds.size(), sequential_stats.rounds.size());
      for (size_t r = 0; r < rpc_stats.rounds.size(); ++r) {
        const RoundStats& a = rpc_stats.rounds[r];
        const RoundStats& b = sequential_stats.rounds[r];
        SCOPED_TRACE(b.label);
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.synchronized, b.synchronized);
        EXPECT_EQ(a.bytes_to_sites, b.bytes_to_sites);
        EXPECT_EQ(a.bytes_to_coord, b.bytes_to_coord);
        EXPECT_EQ(a.tuples_to_sites, b.tuples_to_sites);
        EXPECT_EQ(a.tuples_to_coord, b.tuples_to_coord);
        EXPECT_EQ(a.sites_skipped, b.sites_skipped);
      }
    }
  }
}

TEST_F(RpcExecutorTest, WireBytesExceedAccountedPayloadBytes) {
  // Frame headers, handshakes, and request envelopes are transport
  // overhead: visible in wire_bytes(), absent from the ExecStats byte
  // accounting (which counts table payloads only, as the paper's byte
  // figures do).
  GmdjExpr expr = ParseQuery(kQueries[0].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::None()).ValueOrDie();
  RpcExecutor rpc(std::make_unique<InProcessTransport>(MakeSites()), {});
  ExecStats stats;
  rpc.Execute(plan, &stats).ValueOrDie();
  EXPECT_GT(rpc.wire_bytes(), stats.TotalBytes());
}

TEST_F(RpcExecutorTest, WireBytesIsSafeBesideConcurrentQueries) {
  // wire_bytes() reads every connection's counter while Executes on other
  // threads move frames over the same connections (a data race without
  // the per-connection locks; the TSan leg runs this). Each counter only
  // grows, so successive sums never shrink.
  GmdjExpr expr = ParseQuery(kQueries[1].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::All()).ValueOrDie();
  RpcExecutor rpc(std::make_unique<InProcessTransport>(MakeSites()), {});
  ASSERT_TRUE(rpc.Connect().ok());
  std::atomic<int> running{3};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      for (int q = 0; q < 4; ++q) {
        EXPECT_TRUE(rpc.Execute(plan, nullptr).ok());
      }
      running.fetch_sub(1);
    });
  }
  uint64_t last = 0;
  size_t reads = 0;
  while (running.load() > 0) {
    const uint64_t now = rpc.wire_bytes();
    EXPECT_GE(now, last);
    last = now;
    ++reads;
  }
  for (std::thread& client : clients) client.join();
  EXPECT_GT(reads, 0u);
  EXPECT_GE(rpc.wire_bytes(), last);
  EXPECT_GT(last, 0u);
}

TEST_F(RpcExecutorTest, RoundProfilesReconcileWithRoundStats) {
  // Every round response embeds the site's RoundProfile; summed over the
  // sites these must reconcile byte-for-byte and row-for-row with the
  // coordinator-observed RoundStats, and the per-round wire accounting
  // must tile the execution total exactly.
  for (const QueryCase& q : kQueries) {
    SCOPED_TRACE(q.name);
    GmdjExpr expr = ParseQuery(q.text).ValueOrDie();
    DistributedPlan plan =
        warehouse_->Plan(expr, OptimizerOptions::All()).ValueOrDie();
    RpcExecutor rpc(std::make_unique<InProcessTransport>(MakeSites()), {});
    ExecStats stats;
    auto result = rpc.Execute(plan, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(stats.query_id, 0u);
    uint64_t round_wire = 0;
    for (const RoundStats& rs : stats.rounds) {
      SCOPED_TRACE(rs.label);
      round_wire += rs.wire_bytes;
      if (rs.site_profiles.empty()) {
        // Only possible when the RNG filter skipped every site.
        EXPECT_GT(rs.sites_skipped, 0u);
        continue;
      }
      uint64_t bytes_in = 0;
      uint64_t bytes_out = 0;
      uint64_t result_rows = 0;
      for (const SiteRoundProfile& p : rs.site_profiles) {
        bytes_in += p.bytes_in;
        bytes_out += p.bytes_out;
        result_rows += p.result_rows;
      }
      EXPECT_EQ(bytes_in, rs.bytes_to_sites);
      if (rs.synchronized) {
        EXPECT_EQ(bytes_out, rs.bytes_to_coord);
        EXPECT_EQ(result_rows, rs.tuples_to_coord);
      }
      // Frames wrap the accounted payloads, so each round's wire traffic
      // strictly dominates its payload traffic.
      EXPECT_GT(rs.wire_bytes, rs.bytes_to_sites + rs.bytes_to_coord);
    }
    // No frame outside the rounds counts: the query's wire total is
    // exactly the sum of its rounds.
    EXPECT_EQ(stats.total_wire_bytes, round_wire);
    // The connection-level counter additionally covers the hello/catalog
    // handshake, which total_wire_bytes (per-execution) excludes.
    EXPECT_LT(stats.total_wire_bytes, rpc.wire_bytes());
  }
}

TEST_F(RpcExecutorTest, ProfilesMatchAcrossFanOutWidths) {
  // The same plan one site after another, on a two-worker pool and with
  // the default one worker per site must agree on the
  // reconciliation-relevant profile columns (bytes shipped per site,
  // result rows).
  GmdjExpr expr = ParseQuery(kQueries[1].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::None()).ValueOrDie();

  ExecutorOptions sequential;
  sequential.fanout_threads = 1;
  RpcExecutor one_by_one(std::make_unique<InProcessTransport>(MakeSites()),
                         sequential);
  ExecStats one_by_one_stats;
  ASSERT_TRUE(one_by_one.Execute(plan, &one_by_one_stats).ok());

  ExecutorOptions two_workers;
  two_workers.fanout_threads = 2;
  RpcExecutor parallel(std::make_unique<InProcessTransport>(MakeSites()),
                       two_workers);
  ExecStats parallel_stats;
  ASSERT_TRUE(parallel.Execute(plan, &parallel_stats).ok());

  RpcExecutor rpc(std::make_unique<InProcessTransport>(MakeSites()), {});
  ExecStats rpc_stats;
  ASSERT_TRUE(rpc.Execute(plan, &rpc_stats).ok());

  ASSERT_EQ(one_by_one_stats.rounds.size(), rpc_stats.rounds.size());
  ASSERT_EQ(parallel_stats.rounds.size(), rpc_stats.rounds.size());
  for (size_t r = 0; r < rpc_stats.rounds.size(); ++r) {
    SCOPED_TRACE(rpc_stats.rounds[r].label);
    const std::vector<SiteRoundProfile>& a =
        one_by_one_stats.rounds[r].site_profiles;
    const std::vector<SiteRoundProfile>& b =
        parallel_stats.rounds[r].site_profiles;
    const std::vector<SiteRoundProfile>& c =
        rpc_stats.rounds[r].site_profiles;
    ASSERT_EQ(a.size(), c.size());
    ASSERT_EQ(b.size(), c.size());
    for (size_t i = 0; i < c.size(); ++i) {
      SCOPED_TRACE(c[i].site_id);
      EXPECT_EQ(a[i].site_id, c[i].site_id);
      EXPECT_EQ(b[i].site_id, c[i].site_id);
      EXPECT_EQ(a[i].bytes_in, c[i].bytes_in);
      EXPECT_EQ(b[i].bytes_in, c[i].bytes_in);
      EXPECT_EQ(a[i].bytes_out, c[i].bytes_out);
      EXPECT_EQ(b[i].bytes_out, c[i].bytes_out);
      EXPECT_EQ(a[i].result_rows, c[i].result_rows);
      EXPECT_EQ(b[i].result_rows, c[i].result_rows);
    }
  }
}

TEST_F(RpcExecutorTest, SiteStatsReturnsMetricsJson) {
  GmdjExpr expr = ParseQuery(kQueries[0].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::None()).ValueOrDie();
  RpcExecutor rpc(std::make_unique<InProcessTransport>(MakeSites()), {});
  ASSERT_TRUE(rpc.Execute(plan, nullptr).ok());
  for (size_t e = 0; e < kSites; ++e) {
    auto stats = rpc.SiteStats(e);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->site_id, static_cast<int>(e));
    EXPECT_FALSE(stats->metrics_json.empty());
    EXPECT_EQ(stats->metrics_json.front(), '{');
  }
  EXPECT_FALSE(rpc.SiteStats(kSites + 7).ok());
}

TEST_F(RpcExecutorTest, OracleSitesAgreeWithColumnarSites) {
  // Sites built with a row-oracle engine evaluate every GMDJ round with
  // it; the round profiles report the kernel that actually ran, and
  // every kernel agrees with the centralized reference, and byte for
  // byte with the default columnar kernel.
  GmdjExpr expr = ParseQuery(kQueries[0].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::None()).ValueOrDie();

  RpcExecutor columnar(std::make_unique<InProcessTransport>(MakeSites()), {});
  Table expected = columnar.Execute(plan, nullptr).ValueOrDie();
  ASSERT_TRUE(expected.ApproxSameRows(
      warehouse_->ExecuteCentralized(expr).ValueOrDie(), 1e-9));

  for (EvalEngine engine : {EvalEngine::kColumnar, EvalEngine::kRow,
                            EvalEngine::kNestedLoop}) {
    RpcExecutor rpc(std::make_unique<InProcessTransport>(MakeSites(engine)),
                    {});
    ExecStats stats;
    Table result = rpc.Execute(plan, &stats).ValueOrDie();
    EXPECT_TRUE(ExactlyEqual(result, expected)) << EvalEngineName(engine);
    EXPECT_EQ(stats.engines_used, engine == EvalEngine::kColumnar
                                      ? kEngineBitColumnar
                                      : kEngineBitRow)
        << EvalEngineName(engine);
    // The base round's scan is columnar under every engine, and its
    // profile crosses the wire with the rows it scanned: every flow row
    // (the base query has no WHERE to prune with).
    ASSERT_FALSE(stats.rounds.empty());
    uint64_t scanned = 0, flow_rows = 0;
    for (const SiteRoundProfile& p : stats.rounds[0].site_profiles) {
      EXPECT_EQ(p.engines_used, kEngineBitColumnar) << EvalEngineName(engine);
      EXPECT_EQ(p.chunks_pruned, 0u) << EvalEngineName(engine);
      scanned += p.rows_scanned;
    }
    for (const Table& part : *flow_parts_) flow_rows += part.num_rows();
    EXPECT_EQ(scanned, flow_rows) << EvalEngineName(engine);
  }
}

TEST_F(RpcExecutorTest, RetiredBeginPlanFrameIsRejectedTyped) {
  // Type 5 was BeginPlan until protocol v11, type 6 BaseRound until v12.
  // A site answers each like any type it cannot serve: a typed
  // InvalidArgument, and no query state.
  std::vector<Site> sites = MakeSites();
  rpc::SiteService service(std::move(sites[0]));
  for (uint8_t type : {uint8_t{5}, uint8_t{6}}) {
    rpc::Frame retired;
    retired.type = static_cast<rpc::MessageType>(type);
    rpc::Frame response = service.Handle(retired).ValueOrDie();
    ASSERT_EQ(response.type, rpc::MessageType::kError) << int{type};
    Status status = rpc::ReadStatusPayload(response.payload);
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(service.open_plans(), 0u) << int{type};
  }
}

TEST_F(RpcExecutorTest, SiteErrorCodeSurvivesTheWire) {
  // Site 2's catalog is missing the detail relation. Its NotFound must
  // surface at the coordinator as NotFound — not as a generic transport
  // error — including when retries were attempted and exhausted.
  auto make_broken_sites = [] {
    std::vector<Site> sites;
    for (size_t i = 0; i < kSites; ++i) {
      Catalog catalog;
      if (i != 2) catalog.Register("flow", (*flow_parts_)[i]);
      sites.emplace_back(static_cast<int>(i), std::move(catalog));
    }
    return sites;
  };
  GmdjExpr expr = ParseQuery(kQueries[0].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::None()).ValueOrDie();

  for (size_t retries : {size_t{0}, size_t{3}}) {
    ExecutorOptions options;
    options.max_site_retries = retries;
    RpcExecutor rpc(
        std::make_unique<InProcessTransport>(make_broken_sites()), options);
    auto result = rpc.Execute(plan, nullptr);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsNotFound())
        << "retries=" << retries << ": " << result.status().ToString();
  }
}

TEST_F(RpcExecutorTest, ResentRoundIsIdempotent) {
  // A coordinator retry re-sends a round the site may have already
  // evaluated (response lost in flight). For rounds that consume the
  // site's carried-over structure, the service must re-evaluate from the
  // saved input — not apply the operator to its own output.
  std::vector<Site> sites = MakeSites();
  rpc::SiteService service(std::move(sites[0]));

  // above_average_pairs: md1 computes the base locally and keeps its
  // output at the site (Prop. 2 + Theorem 5); md2 continues it.
  GmdjExpr expr = ParseQuery(kQueries[1].text).ValueOrDie();

  rpc::GmdjRoundRequest fused;
  fused.op = expr.ops[0];
  fused.label = "md1";
  fused.ship_result = false;  // keep the output at the site
  fused.has_base_query = true;
  fused.base_query = expr.base;
  rpc::Frame fused_frame;
  fused_frame.type = rpc::MessageType::kGmdjRound;
  fused_frame.payload = rpc::EncodeGmdjRoundRequest(fused, {});
  ASSERT_TRUE(service.Handle(fused_frame).ValueOrDie().type ==
              rpc::MessageType::kRoundResult);

  rpc::GmdjRoundRequest round;
  round.op = expr.ops[1];
  round.label = "md2";
  round.sub_aggregates = true;
  round.ship_result = true;
  round.has_base = false;  // consumes the carried structure
  rpc::Frame round_frame;
  round_frame.type = rpc::MessageType::kGmdjRound;
  round_frame.payload = rpc::EncodeGmdjRoundRequest(round, {});

  rpc::Frame first = service.Handle(round_frame).ValueOrDie();
  ASSERT_EQ(first.type, rpc::MessageType::kRoundResult);
  rpc::Frame again = service.Handle(round_frame).ValueOrDie();
  ASSERT_EQ(again.type, rpc::MessageType::kRoundResult);
  // Since protocol v4 a round response embeds a wall-clock RoundProfile,
  // so raw payloads differ between identical calls; idempotency means
  // the shipped *table* is byte-identical.
  rpc::RoundResult first_result =
      rpc::DecodeRoundResult(first.payload).ValueOrDie();
  rpc::RoundResult again_result =
      rpc::DecodeRoundResult(again.payload).ValueOrDie();
  ASSERT_TRUE(first_result.has_table);
  ASSERT_TRUE(again_result.has_table);
  EXPECT_EQ(first_result.table_bytes, again_result.table_bytes);
  std::vector<uint8_t> first_bytes;
  std::vector<uint8_t> again_bytes;
  WriteTable(first_result.table->ToTable(), &first_bytes);
  WriteTable(again_result.table->ToTable(), &again_bytes);
  EXPECT_EQ(first_bytes, again_bytes);
  // The duplicate delivery is visible in the site's profile.
  EXPECT_EQ(first_result.profile.duplicate_rounds, 0u);
  EXPECT_EQ(again_result.profile.duplicate_rounds, 1u);
}

// Encodes a GMDJ round request as a frame.
rpc::Frame GmdjRoundFrame(const rpc::GmdjRoundRequest& request) {
  rpc::Frame frame;
  frame.type = rpc::MessageType::kGmdjRound;
  frame.payload = rpc::EncodeGmdjRoundRequest(request, {});
  return frame;
}

// The table a kRoundResult response ships, or the error it carries.
Result<Table> RoundTable(const rpc::Frame& response) {
  if (response.type == rpc::MessageType::kError) {
    return rpc::ReadStatusPayload(response.payload);
  }
  SKALLA_ASSIGN_OR_RETURN(rpc::RoundResult result,
                          rpc::DecodeRoundResult(response.payload));
  if (!result.has_table) return Status::Internal("no table shipped");
  return result.table->ToTable();
}

TEST_F(RpcExecutorTest, CarriedRoundWithNothingCarriedFailsTyped) {
  // A round that continues a carried structure the site never built
  // (a replica, or a site whose query state was released) must fail
  // with a typed error naming the round — every time it is re-sent, and
  // without touching a moved-from table.
  std::vector<Site> sites = MakeSites();
  rpc::SiteService service(std::move(sites[0]));
  GmdjExpr expr = ParseQuery(kQueries[1].text).ValueOrDie();

  rpc::GmdjRoundRequest carried;
  carried.op = expr.ops[1];
  carried.label = "md2";
  carried.sub_aggregates = true;
  const rpc::Frame frame = GmdjRoundFrame(carried);
  for (int attempt = 0; attempt < 2; ++attempt) {
    rpc::Frame response = service.Handle(frame).ValueOrDie();
    ASSERT_EQ(response.type, rpc::MessageType::kError) << attempt;
    Status status = rpc::ReadStatusPayload(response.payload);
    EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
    EXPECT_NE(status.message().find("md2"), std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(service.duplicate_rounds(), 0u);
}

TEST_F(RpcExecutorTest, FailedCarriedRoundLeavesTheStructureForTheRetry) {
  // A carried round whose evaluation fails must leave the carried
  // structure in place: the coordinator's retry evaluates it again and
  // gets the same table as a round that never failed.
  GmdjExpr expr = ParseQuery(kQueries[1].text).ValueOrDie();
  auto run = [&](bool fail_first) -> Result<Table> {
    std::vector<Site> sites = MakeSites();
    rpc::SiteService service(std::move(sites[0]));

    rpc::GmdjRoundRequest fused;
    fused.op = expr.ops[0];
    fused.label = "md1";
    fused.ship_result = false;
    fused.has_base_query = true;
    fused.base_query = expr.base;
    EXPECT_EQ(service.Handle(GmdjRoundFrame(fused)).ValueOrDie().type,
              rpc::MessageType::kRoundResult);

    rpc::GmdjRoundRequest carried;
    carried.op = expr.ops[1];
    carried.label = "md2";
    carried.sub_aggregates = true;
    if (fail_first) {
      rpc::GmdjRoundRequest broken = carried;
      broken.op.detail_table = "no_such_relation";
      Result<Table> failed =
          RoundTable(service.Handle(GmdjRoundFrame(broken)).ValueOrDie());
      EXPECT_TRUE(failed.status().IsNotFound()) << failed.status().ToString();
    }
    return RoundTable(service.Handle(GmdjRoundFrame(carried)).ValueOrDie());
  };
  Table reference = run(false).ValueOrDie();
  Table retried = run(true).ValueOrDie();
  ASSERT_GT(reference.num_rows(), 0u);
  std::vector<uint8_t> reference_bytes;
  std::vector<uint8_t> retried_bytes;
  WriteTable(reference, &reference_bytes);
  WriteTable(retried, &retried_bytes);
  EXPECT_EQ(reference_bytes, retried_bytes);
}

TEST_F(RpcExecutorTest, ShutdownReachesEverySite) {
  auto transport = std::make_unique<InProcessTransport>(MakeSites());
  InProcessTransport* raw = transport.get();
  RpcExecutor rpc(std::move(transport), {});
  ASSERT_TRUE(rpc.Shutdown().ok());
  for (size_t i = 0; i < kSites; ++i) {
    EXPECT_TRUE(raw->service(i)->shutdown_requested()) << "site " << i;
  }
}


TEST_F(RpcExecutorTest, SitesWithEmptyCatalogsFailNotFound) {
  // Every site answers the catalog probe, with an empty catalog: the
  // probe succeeded, so Connect is OK (and does not probe again), and the
  // query fails NotFound for its unknown table, as DistExecTest pins for
  // the warehouse.
  std::vector<Site> sites;
  for (int i = 0; i < 2; ++i) sites.emplace_back(i, Catalog());
  RpcExecutor rpc(std::make_unique<InProcessTransport>(std::move(sites)), {});
  Status connected = rpc.Connect();
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  const uint64_t wire_after_probe = rpc.wire_bytes();
  ASSERT_TRUE(rpc.Connect().ok());
  EXPECT_EQ(rpc.wire_bytes(), wire_after_probe);

  GmdjExpr expr = ParseQuery(kQueries[0].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::None()).ValueOrDie();
  auto result = rpc.Execute(plan, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
}

TEST_F(RpcExecutorTest, MoreReplicasThanEndpointsFailTyped) {
  // Three replica registrations over a two-endpoint transport leave no
  // primary. The query must fail InvalidArgument before anything is
  // sized from the partition count.
  std::vector<Site> sites = MakeSites();
  sites.erase(sites.begin() + 2, sites.end());
  RpcExecutor rpc(std::make_unique<InProcessTransport>(std::move(sites)), {});
  rpc.AddReplica(0, 1);
  rpc.AddReplica(0, 1);
  rpc.AddReplica(1, 0);
  EXPECT_EQ(rpc.num_sites(), 0u);
  GmdjExpr expr = ParseQuery(kQueries[0].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::None()).ValueOrDie();
  auto result = rpc.Execute(plan, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST_F(RpcExecutorTest, InProcessSiteSpansAppearOnceUnderTheirOwnRound) {
  // In-process sites record into the coordinator's own tracer. Under
  // concurrent queries and a concurrent fan-out, each site.round span
  // must appear exactly once, below the rpc.round that issued it (same
  // site, same query), and never in another site's lane.
  if (!obs::TracingCompiledIn()) GTEST_SKIP() << "tracing compiled out";
  constexpr int kQueriesInFlight = 5;
  GmdjExpr expr = ParseQuery(kQueries[1].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::None()).ValueOrDie();
  RpcExecutor rpc(std::make_unique<InProcessTransport>(MakeSites()), {});
  ASSERT_TRUE(rpc.Connect().ok());

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);
  std::vector<ExecStats> stats(kQueriesInFlight);
  std::vector<std::thread> clients;
  for (int q = 0; q < kQueriesInFlight; ++q) {
    clients.emplace_back(
        [&, q] { EXPECT_TRUE(rpc.Execute(plan, &stats[q]).ok()); });
  }
  for (std::thread& client : clients) client.join();
  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  tracer.set_enabled(false);
  tracer.Clear();

  auto attr = [](const obs::TraceEvent& e, const std::string& key) {
    for (const auto& [k, v] : e.attrs) {
      if (k == key) return v;
    }
    return std::string();
  };
  std::map<uint64_t, const obs::TraceEvent*> by_id;
  for (const obs::TraceEvent& e : events) by_id[e.id] = &e;

  std::set<std::tuple<std::string, std::string, std::string>> seen;
  size_t site_rounds = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name.rfind("site.round:", 0) != 0) continue;
    ++site_rounds;
    const std::string site = attr(e, "site");
    const std::string query = attr(e, "query_id");
    SCOPED_TRACE(e.name + " site " + site + " query " + query);
    EXPECT_TRUE(seen.insert({e.name, site, query}).second) << "duplicated";
    EXPECT_TRUE(e.pid == obs::kLocalPid ||
                e.pid == static_cast<uint32_t>(std::stoi(site)) + 2)
        << "in lane " << e.pid;
    const obs::TraceEvent* round = nullptr;
    for (auto it = by_id.find(e.parent_id); it != by_id.end();
         it = by_id.find(it->second->parent_id)) {
      if (it->second->name == "rpc.round") {
        round = it->second;
        break;
      }
    }
    ASSERT_NE(round, nullptr) << "not below an rpc.round";
    EXPECT_EQ(attr(*round, "site"), site);
    EXPECT_EQ(attr(*round, "query_id"), query);
  }
  EXPECT_EQ(site_rounds, kQueriesInFlight * stats[0].rounds.size() * kSites);
}

}  // namespace
}  // namespace skalla

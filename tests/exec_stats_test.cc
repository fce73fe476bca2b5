// ExecStats / RoundStats accounting invariants — on hand-built stats and
// on stats produced by really executing plans, sequentially and with
// parallel sites — the paper's cost accounting pinned to exact figures,
// plus the EXPLAIN ANALYZE report's consistency with the stats it
// renders.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "../bench/bench_common.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "net/network.h"
#include "obs/stats_report.h"
#include "rpc/rpc_executor.h"
#include "rpc/transport.h"
#include "storage/partition.h"
#include "types/row.h"

namespace skalla {
namespace {

RoundStats MakeRound(const char* label, bool sync, uint64_t down_bytes,
                     uint64_t up_bytes, double site_max, double coord,
                     double comm) {
  RoundStats r;
  r.label = label;
  r.synchronized = sync;
  r.bytes_to_sites = down_bytes;
  r.bytes_to_coord = up_bytes;
  r.tuples_to_sites = down_bytes / 10;
  r.tuples_to_coord = up_bytes / 10;
  r.site_time_max = site_max;
  r.site_time_sum = site_max * 2;
  r.coord_time = coord;
  r.comm_time = comm;
  return r;
}

TEST(ExecStatsTest, TotalsAreSumsOverRounds) {
  ExecStats stats;
  stats.rounds.push_back(MakeRound("base", true, 0, 1000, 0.5, 0.1, 0.2));
  stats.rounds.push_back(MakeRound("md1", false, 0, 0, 0.3, 0.0, 0.0));
  stats.rounds.push_back(MakeRound("md2", true, 400, 2000, 0.7, 0.2, 0.4));

  EXPECT_EQ(stats.TotalBytesToSites(), 400u);
  EXPECT_EQ(stats.TotalBytesToCoord(), 3000u);
  EXPECT_EQ(stats.TotalBytes(),
            stats.TotalBytesToSites() + stats.TotalBytesToCoord());
  EXPECT_EQ(stats.TotalTuplesTransferred(), 40u + 300u);

  double per_round = 0;
  for (const RoundStats& r : stats.rounds) per_round += r.ResponseTime();
  EXPECT_DOUBLE_EQ(stats.ResponseTime(), per_round);

  size_t sync_rounds = 0;
  for (const RoundStats& r : stats.rounds) {
    if (r.synchronized) ++sync_rounds;
  }
  EXPECT_EQ(stats.NumSyncRounds(), sync_rounds);
  EXPECT_EQ(stats.NumSyncRounds(), 2u);
}

TEST(ExecStatsTest, RoundResponseTimeCombinesCommSiteAndCoord) {
  RoundStats r = MakeRound("base", true, 0, 0, 0.25, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(r.ResponseTime(), 1.0 + 0.25 + 0.5);
}

TEST(ExecStatsTest, EmptyStatsAreAllZero) {
  ExecStats stats;
  EXPECT_EQ(stats.TotalBytes(), 0u);
  EXPECT_EQ(stats.TotalTuplesTransferred(), 0u);
  EXPECT_DOUBLE_EQ(stats.ResponseTime(), 0.0);
  EXPECT_EQ(stats.NumSyncRounds(), 0u);
}

// --- Invariants on really-executed plans -----------------------------------

Table MakeFlowTable(uint64_t seed, size_t rows) {
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"SAS", ValueType::kInt64},
                                   {"DAS", ValueType::kInt64},
                                   {"NB", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked({Value(rng.UniformInt(0, 7)),
                       Value(rng.UniformInt(0, 5)),
                       Value(rng.UniformInt(1, 1000))});
  }
  return t;
}

GmdjExpr CorrelatedExpr() {
  GmdjExpr expr;
  expr.base = BaseQuery{"flow", {"SAS"}, true, nullptr};
  ExprPtr group = Eq(RCol("SAS"), BCol("SAS"));
  GmdjOp md1;
  md1.detail_table = "flow";
  md1.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt1"}, {AggKind::kSum, "NB", "sum1"}},
      group});
  GmdjOp md2;
  md2.detail_table = "flow";
  md2.blocks.push_back(
      GmdjBlock{{{AggKind::kCountStar, "", "cnt2"}},
                And(group, Ge(RCol("NB"), Div(BCol("sum1"), BCol("cnt1"))))});
  expr.ops = {md1, md2};
  return expr;
}

void CheckInvariants(const DistributedPlan& plan, const ExecStats& stats) {
  // One RoundStats per stage, plus the base round when the plan
  // synchronizes its base; a Prop. 2 plan computes the base inside md1.
  ASSERT_EQ(stats.rounds.size(), plan.stages.size() + (plan.sync_base ? 1 : 0));
  EXPECT_EQ(stats.rounds[0].label, plan.sync_base ? "base" : "md1");
  for (size_t k = 0; k < stats.rounds.size(); ++k) {
    EXPECT_EQ(stats.rounds[k].fused_base, k == 0 && !plan.sync_base)
        << stats.rounds[k].label;
  }

  uint64_t down = 0, up = 0, tuples = 0;
  double response = 0;
  size_t sync_rounds = 0;
  for (const RoundStats& r : stats.rounds) {
    down += r.bytes_to_sites;
    up += r.bytes_to_coord;
    tuples += r.tuples_to_sites + r.tuples_to_coord;
    response += r.ResponseTime();
    if (r.synchronized) ++sync_rounds;
    // The coordinator's wait on the sites happens inside the round.
    EXPECT_GE(r.fanout_wait, 0.0) << r.label;
    EXPECT_LE(r.fanout_wait, r.wall_time) << r.label;
  }
  EXPECT_EQ(stats.TotalBytesToSites(), down);
  EXPECT_EQ(stats.TotalBytesToCoord(), up);
  EXPECT_EQ(stats.TotalBytes(),
            stats.TotalBytesToSites() + stats.TotalBytesToCoord());
  EXPECT_EQ(stats.TotalTuplesTransferred(), tuples);
  EXPECT_DOUBLE_EQ(stats.ResponseTime(), response);
  EXPECT_EQ(stats.NumSyncRounds(), sync_rounds);
  // The plan promised exactly this many synchronization rounds.
  EXPECT_EQ(stats.NumSyncRounds(), plan.NumSyncRounds());
}

TEST(ExecStatsTest, ExecutedPlanSatisfiesInvariants) {
  Table flow = MakeFlowTable(7, 600);
  for (int mask = 0; mask < 4; ++mask) {
    OptimizerOptions opts;
    opts.indep_group_reduction = mask & 1;
    opts.sync_reduction = mask & 2;
    DistributedWarehouse dw(3);
    dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
    DistributedPlan plan = dw.Plan(CorrelatedExpr(), opts).ValueOrDie();
    ExecStats stats;
    ASSERT_TRUE(dw.ExecutePlan(plan, &stats).ok());
    CheckInvariants(plan, stats);
  }
}

TEST(ExecStatsTest, ParallelSitesSatisfyInvariants) {
  Table flow = MakeFlowTable(11, 600);
  DistributedWarehouse dw(3);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  DistributedPlan plan =
      dw.Plan(CorrelatedExpr(), OptimizerOptions::All()).ValueOrDie();

  std::vector<Table> parts =
      PartitionByModulo(flow, "SAS", 3).ValueOrDie();
  std::vector<Site> sites;
  for (size_t i = 0; i < parts.size(); ++i) {
    Catalog catalog;
    catalog.Register("flow", parts[i]);
    sites.emplace_back(static_cast<int>(i), std::move(catalog));
  }
  std::vector<Site> sequential_sites = sites;
  rpc::RpcExecutor executor(
      std::make_unique<rpc::InProcessTransport>(std::move(sites)), {});
  ExecStats stats;
  Result<Table> result = executor.Execute(plan, &stats);
  ASSERT_TRUE(result.ok());
  CheckInvariants(plan, stats);

  // And the concurrent run is the sequential one, row for row.
  ExecutorOptions one_by_one;
  one_by_one.fanout_threads = 1;
  rpc::RpcExecutor sequential(
      std::make_unique<rpc::InProcessTransport>(std::move(sequential_sites)),
      one_by_one);
  Table expected = sequential.Execute(plan, nullptr).ValueOrDie();
  ASSERT_EQ(result->num_rows(), expected.num_rows());
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    EXPECT_TRUE(RowEquals(result->row(r), expected.row(r))) << "row " << r;
  }
}

// --- The paper's cost accounting, pinned -----------------------------------

TEST(CostAccountingTest, ModeledTransferTimeIsLatencyPlusBytesOverBandwidth) {
  NetworkConfig config;
  config.latency_s = 0.002;
  config.bandwidth_bytes_per_s = 1000.0;
  // 500 bytes at 1000 B/s = 0.5s plus 2ms latency.
  EXPECT_DOUBLE_EQ(ModeledTransferTime(config, 500), 0.502);
  EXPECT_DOUBLE_EQ(ModeledTransferTime(config, 0), 0.002);
  config.latency_s = 0.001;
  config.bandwidth_bytes_per_s = 1e6;
  EXPECT_DOUBLE_EQ(ModeledTransferTime(config, 1000000), 1.001);
}

struct RoundBytes {
  const char* label;
  uint64_t to_sites;
  uint64_t to_coord;
};

struct AccountingCase {
  const char* query;
  bool all_optimizations;
  uint64_t total_bytes;
  uint64_t total_tuples;
  size_t sync_rounds;
  std::vector<RoundBytes> rounds;
  double comm_s;  // under the default NetworkConfig
};

TEST(CostAccountingTest, PinsBytesTuplesRoundsAndModeledTime) {
  // Fig. 2's correlated query and Fig. 3's coalescing query over a small
  // TPC-R on 4 sites: payload bytes only, per round, plus the modeled
  // communication time of those payloads. The expected figures were
  // recorded from an earlier, separate in-process implementation of the
  // protocol, so they pin the paper's accounting independently of the
  // executor under test.
  const std::vector<AccountingCase> cases = {
      {"correlated", false, 73947, 6698, 3,
       {{"base", 0, 1164}, {"md1", 4528, 13287}, {"md2", 21912, 33056}},
       0.0273947},
      {"correlated", true, 10780, 394, 1,
       {{"md1", 0, 0}, {"md2", 0, 10780}}, 0.005078},
      {"coalescing", false, 447211, 21287, 3,
       {{"base", 0, 19475}, {"md1", 64364, 91448}, {"md2", 118840, 153084}},
       0.0647211},
      {"coalescing", true, 46273, 1495, 1, {{"md1", 0, 46273}}, 0.0086273},
  };
  DistributedWarehouse dw(4);
  dw.AddPartitionedTable("tpcr", bench::MakeTpcrPartitions(4000, 400, 4),
                         bench::TrackedColumns())
      .Check();
  const NetworkConfig network;
  for (const AccountingCase& c : cases) {
    SCOPED_TRACE(StrCat(c.query, c.all_optimizations ? " All" : " None"));
    GmdjExpr query = std::string(c.query) == "correlated"
                         ? bench::CorrelatedQuery("CustKey")
                         : bench::CoalescingQuery("Clerk");
    ExecStats stats;
    Table result =
        dw.Execute(query,
                   c.all_optimizations ? OptimizerOptions::All()
                                       : OptimizerOptions::None(),
                   &stats)
            .ValueOrDie();
    EXPECT_TRUE(
        result.ApproxSameRows(dw.ExecuteCentralized(query).ValueOrDie(), 1e-9));
    EXPECT_EQ(stats.TotalBytes(), c.total_bytes);
    EXPECT_EQ(stats.TotalTuplesTransferred(), c.total_tuples);
    EXPECT_EQ(stats.NumSyncRounds(), c.sync_rounds);
    ASSERT_EQ(stats.rounds.size(), c.rounds.size());
    // The model charged once per accounted shipment: each X a site
    // received, and each fragment of a synchronized round.
    double comm = 0;
    for (size_t r = 0; r < c.rounds.size(); ++r) {
      const RoundStats& round = stats.rounds[r];
      SCOPED_TRACE(round.label);
      EXPECT_EQ(round.label, c.rounds[r].label);
      EXPECT_EQ(round.bytes_to_sites, c.rounds[r].to_sites);
      EXPECT_EQ(round.bytes_to_coord, c.rounds[r].to_coord);
      double round_comm = 0;
      for (const SiteRoundProfile& site : round.site_profiles) {
        if (site.bytes_in > 0) {
          round_comm += ModeledTransferTime(network, site.bytes_in);
        }
        if (round.synchronized) {
          round_comm += ModeledTransferTime(network, site.bytes_out);
        }
      }
      EXPECT_DOUBLE_EQ(round.comm_time, round_comm);
      comm += round_comm;
    }
    EXPECT_DOUBLE_EQ(stats.TotalCommTime(), comm);
    EXPECT_NEAR(stats.TotalCommTime(), c.comm_s, 1e-9);
  }
}

// --- EXPLAIN ANALYZE consistency --------------------------------------------

TEST(ExecStatsTest, StatsReportRendersPerStageAndTotalCounts) {
  Table flow = MakeFlowTable(13, 500);
  DistributedWarehouse dw(3);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  DistributedPlan plan =
      dw.Plan(CorrelatedExpr(), OptimizerOptions::None()).ValueOrDie();
  ExecStats stats;
  ASSERT_TRUE(dw.ExecutePlan(plan, &stats).ok());

  std::string report = obs::FormatStatsReport(plan, stats, 3);
  // One "analyzed:" line per round (base + each stage).
  size_t lines = 0;
  for (size_t pos = report.find("analyzed:"); pos != std::string::npos;
       pos = report.find("analyzed:", pos + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, stats.rounds.size());
  // Every per-round byte/tuple figure appears verbatim.
  for (const RoundStats& r : stats.rounds) {
    EXPECT_NE(report.find(StrCat(r.bytes_to_coord, " bytes")),
              std::string::npos)
        << report;
    EXPECT_NE(report.find(StrCat(r.tuples_to_coord, " tuples")),
              std::string::npos)
        << report;
  }
  // And the totals line matches the ExecStats accessors.
  EXPECT_NE(report.find(StrCat("total: ", stats.TotalBytes(), " bytes (",
                               stats.TotalBytesToSites(), " down, ",
                               stats.TotalBytesToCoord(), " up)")),
            std::string::npos)
      << report;
  EXPECT_NE(
      report.find(StrCat(stats.NumSyncRounds(), " sync rounds")),
      std::string::npos)
      << report;
  // The base round is profiled like the GMDJ rounds: every site's line
  // carries the [columnar] tag of its scan, and the sites together
  // scanned every flow row.
  const size_t base_begin = report.find("  base: ");
  const size_t base_end = report.find("  stage 1: ");
  ASSERT_NE(base_begin, std::string::npos) << report;
  ASSERT_NE(base_end, std::string::npos) << report;
  const std::string base_section =
      report.substr(base_begin, base_end - base_begin);
  size_t tags = 0;
  for (size_t pos = base_section.find("[columnar]");
       pos != std::string::npos;
       pos = base_section.find("[columnar]", pos + 1)) {
    ++tags;
  }
  EXPECT_EQ(tags, stats.rounds[0].site_profiles.size()) << base_section;
  uint64_t scanned = 0;
  for (const SiteRoundProfile& p : stats.rounds[0].site_profiles) {
    scanned += p.rows_scanned;
  }
  EXPECT_EQ(scanned, flow.num_rows());
}

TEST(ExecStatsTest, StatsReportShowsTheFusedBaseRound) {
  // A Prop. 2 plan has no base round: the report says where the base
  // went and tags each first-round site line with how that site ran it —
  // one fused pass under the columnar kernel, the base scan and then
  // the kernel under the row oracle.
  Table flow = MakeFlowTable(13, 500);
  DistributedWarehouse dw(3);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  DistributedPlan plan =
      dw.Plan(CorrelatedExpr(), OptimizerOptions::All()).ValueOrDie();
  ASSERT_FALSE(plan.sync_base);
  std::vector<Table> parts = PartitionByValue(flow, "SAS", 3).ValueOrDie();
  for (EvalEngine engine : {EvalEngine::kColumnar, EvalEngine::kRow}) {
    std::vector<Site> sites;
    for (size_t i = 0; i < parts.size(); ++i) {
      Catalog catalog;
      catalog.Register("flow", parts[i]);
      sites.emplace_back(static_cast<int>(i), std::move(catalog), engine);
    }
    rpc::RpcExecutor executor(
        std::make_unique<rpc::InProcessTransport>(std::move(sites)), {});
    ExecStats stats;
    ASSERT_TRUE(executor.Execute(plan, &stats).ok());
    std::string report = obs::FormatStatsReport(plan, stats, 3);
    EXPECT_NE(report.find("[no-sync, fused into md1]"), std::string::npos)
        << report;
    EXPECT_EQ(report.find("was this ExecStats"), std::string::npos)
        << report;
    const std::string tag =
        engine == EvalEngine::kColumnar ? "[fused]" : "[base, then md1]";
    size_t tags = 0;
    for (size_t pos = report.find(tag); pos != std::string::npos;
         pos = report.find(tag, pos + 1)) {
      ++tags;
    }
    EXPECT_EQ(tags, stats.rounds[0].site_profiles.size()) << report;
    EXPECT_EQ(tags, 3u) << report;
  }
}

TEST(ExecStatsTest, StatsReportFlagsMismatchedStats) {
  DistributedPlan plan;
  plan.base = BaseQuery{"flow", {"SAS"}, true, nullptr};
  ExecStats stats;  // No rounds: cannot belong to any executed plan.
  std::string report = obs::FormatStatsReport(plan, stats, 3);
  EXPECT_NE(report.find("was this ExecStats produced by this plan?"),
            std::string::npos)
      << report;
}

}  // namespace
}  // namespace skalla

// Golden property of the Skalla system: the distributed evaluation of a
// GMDJ expression — under ANY combination of optimizations, site counts,
// and partitioning styles — produces exactly the centralized result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "common/string_util.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "net/serde.h"

namespace skalla {
namespace {

Table MakeFlowTable(uint64_t seed, size_t rows, int64_t num_sas,
                    int64_t num_das) {
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"SAS", ValueType::kInt64},
                                   {"DAS", ValueType::kInt64},
                                   {"NB", ValueType::kInt64},
                                   {"NP", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked({Value(rng.UniformInt(0, num_sas - 1)),
                       Value(rng.UniformInt(0, num_das - 1)),
                       Value(rng.UniformInt(1, 1000)),
                       Value(rng.UniformInt(1, 50))});
  }
  return t;
}

// The paper's Example 1: per (SAS, DAS) group, total flows and flows whose
// NB exceeds the group average.
GmdjExpr Example1Expr() {
  GmdjExpr expr;
  expr.base = BaseQuery{"flow", {"SAS", "DAS"}, true, nullptr};
  ExprPtr group = And(Eq(RCol("SAS"), BCol("SAS")),
                      Eq(RCol("DAS"), BCol("DAS")));
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

// A coalescable two-operator expression: the second op's conditions do not
// reference the first op's outputs.
GmdjExpr CoalescableExpr() {
  GmdjExpr expr;
  expr.base = BaseQuery{"flow", {"SAS"}, true, nullptr};
  GmdjOp md1;
  md1.detail_table = "flow";
  md1.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt1"}, {AggKind::kAvg, "NB", "avg1"}},
      Eq(RCol("SAS"), BCol("SAS"))});
  GmdjOp md2;
  md2.detail_table = "flow";
  md2.blocks.push_back(
      GmdjBlock{{{AggKind::kCountStar, "", "cnt2"}},
                And(Eq(RCol("SAS"), BCol("SAS")),
                    Ge(RCol("NB"), Lit(Value(500))))});
  expr.ops = {md1, md2};
  return expr;
}

enum class PartitionStyle { kByGroupAttr, kRoundRobin };

struct Config {
  size_t num_sites;
  PartitionStyle style;
  OptimizerOptions opts;
  std::string name;
};

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (size_t sites : {1u, 2u, 5u}) {
    for (PartitionStyle style :
         {PartitionStyle::kByGroupAttr, PartitionStyle::kRoundRobin}) {
      for (int mask = 0; mask < 16; ++mask) {
        OptimizerOptions o;
        o.coalescing = mask & 1;
        o.indep_group_reduction = mask & 2;
        o.aware_group_reduction = mask & 4;
        o.sync_reduction = mask & 8;
        configs.push_back(Config{
            sites, style, o,
            StrCat("sites", sites, "_",
                   style == PartitionStyle::kByGroupAttr ? "attr" : "rr",
                   "_opt", mask)});
      }
    }
  }
  return configs;
}

class DistEquivalenceTest : public ::testing::TestWithParam<Config> {};

DistributedWarehouse MakeWarehouse(const Config& config, const Table& flow) {
  DistributedWarehouse dw(config.num_sites);
  if (config.style == PartitionStyle::kByGroupAttr) {
    dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  } else {
    std::vector<Table> parts =
        PartitionRoundRobin(flow, config.num_sites).ValueOrDie();
    dw.AddPartitionedTable("flow", std::move(parts), {"SAS", "DAS", "NB"})
        .Check();
  }
  return dw;
}

TEST_P(DistEquivalenceTest, Example1MatchesCentralized) {
  const Config& config = GetParam();
  Table flow = MakeFlowTable(/*seed=*/7, /*rows=*/400, 12, 6);
  DistributedWarehouse dw = MakeWarehouse(config, flow);

  GmdjExpr expr = Example1Expr();
  Table expected = dw.ExecuteCentralized(expr).ValueOrDie();
  ExecStats stats;
  Table actual = dw.Execute(expr, config.opts, &stats).ValueOrDie();
  EXPECT_TRUE(actual.SameRows(expected))
      << "config " << config.name << "\nplan:\n"
      << dw.Plan(expr, config.opts).ValueOrDie().ToString(config.num_sites)
      << "expected:\n"
      << expected.ToString(50) << "actual:\n"
      << actual.ToString(50);
}

TEST_P(DistEquivalenceTest, CoalescableMatchesCentralized) {
  const Config& config = GetParam();
  Table flow = MakeFlowTable(/*seed=*/13, /*rows=*/300, 9, 4);
  DistributedWarehouse dw = MakeWarehouse(config, flow);

  GmdjExpr expr = CoalescableExpr();
  Table expected = dw.ExecuteCentralized(expr).ValueOrDie();
  Table actual = dw.Execute(expr, config.opts, nullptr).ValueOrDie();
  EXPECT_TRUE(actual.SameRows(expected)) << "config " << config.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, DistEquivalenceTest, ::testing::ValuesIn(AllConfigs()),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.name;
    });

TEST(DistExecTest, PlanShapesMatchPaper) {
  Table flow = MakeFlowTable(3, 200, 8, 4);
  DistributedWarehouse dw(4);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();

  GmdjExpr expr = Example1Expr();

  // Unoptimized: m + 1 = 3 synchronization rounds.
  DistributedPlan naive =
      dw.Plan(expr, OptimizerOptions::None()).ValueOrDie();
  EXPECT_EQ(naive.NumSyncRounds(), 3u);

  // Example 5: SAS partition attribute + (SAS, DAS) key => Prop. 2 and
  // Cor. 1 both apply; a single synchronization remains.
  OptimizerOptions sync_only;
  sync_only.sync_reduction = true;
  DistributedPlan reduced = dw.Plan(expr, sync_only).ValueOrDie();
  EXPECT_EQ(reduced.NumSyncRounds(), 1u);
  EXPECT_FALSE(reduced.sync_base);
  EXPECT_FALSE(reduced.stages[0].sync_after);
  EXPECT_TRUE(reduced.stages[1].sync_after);

  // Example 1 is NOT coalescable (md2 references sum1/cnt1): coalescing
  // alone must leave both operators in place.
  OptimizerOptions coal_only;
  coal_only.coalescing = true;
  DistributedPlan coalesced = dw.Plan(expr, coal_only).ValueOrDie();
  EXPECT_EQ(coalesced.stages.size(), 2u);

  // The coalescable expression merges into one operator and, with sync
  // reduction, runs in a single round (Fig. 3's coalesced curve).
  OptimizerOptions coal_sync;
  coal_sync.coalescing = true;
  coal_sync.sync_reduction = true;
  DistributedPlan merged =
      dw.Plan(CoalescableExpr(), coal_sync).ValueOrDie();
  EXPECT_EQ(merged.stages.size(), 1u);
  EXPECT_EQ(merged.NumSyncRounds(), 1u);
}

TEST(DistExecTest, GroupReductionReducesBytes) {
  Table flow = MakeFlowTable(11, 600, 24, 6);
  DistributedWarehouse dw(6);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();

  GmdjExpr expr = Example1Expr();
  ExecStats none_stats;
  ExecStats gr_stats;
  Table expected = dw.ExecuteCentralized(expr).ValueOrDie();

  Table none_result =
      dw.Execute(expr, OptimizerOptions::None(), &none_stats).ValueOrDie();
  OptimizerOptions gr;
  gr.indep_group_reduction = true;
  gr.aware_group_reduction = true;
  Table gr_result = dw.Execute(expr, gr, &gr_stats).ValueOrDie();

  EXPECT_TRUE(none_result.SameRows(expected));
  EXPECT_TRUE(gr_result.SameRows(expected));
  // SAS is the partition attribute: each site holds ~1/6 of the groups, so
  // both directions of traffic must shrink substantially.
  EXPECT_LT(gr_stats.TotalBytesToCoord(), none_stats.TotalBytesToCoord());
  EXPECT_LT(gr_stats.TotalBytesToSites(), none_stats.TotalBytesToSites());
}

TEST(DistExecTest, Theorem2TransferBound) {
  // Max data transferred <= sum_i(2 * s_i * |Q|) + s_0 * |Q|, measured in
  // tuples, independent of |R|.
  for (size_t rows : {200u, 800u}) {
    Table flow = MakeFlowTable(17, rows, 10, 4);
    size_t n = 5;
    DistributedWarehouse dw(n);
    dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
    GmdjExpr expr = Example1Expr();
    ExecStats stats;
    Table result =
        dw.Execute(expr, OptimizerOptions::None(), &stats).ValueOrDie();
    uint64_t q = result.num_rows();
    uint64_t bound = 0;
    for (size_t i = 0; i < expr.ops.size(); ++i) bound += 2 * n * q;
    bound += n * q;
    EXPECT_LE(stats.TotalTuplesTransferred(), bound)
        << "rows=" << rows;
  }
}

TEST(DistExecTest, ParallelSitesMatchesSequential) {
  Table flow = MakeFlowTable(23, 500, 16, 4);
  ExecutorOptions one_by_one;
  one_by_one.fanout_threads = 1;
  DistributedWarehouse seq_dw(4, NetworkConfig{}, one_by_one);
  DistributedWarehouse par_dw(4);
  seq_dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  par_dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();

  GmdjExpr expr = Example1Expr();
  Table seq = seq_dw.Execute(expr, OptimizerOptions::All()).ValueOrDie();
  Table par_result =
      par_dw.Execute(expr, OptimizerOptions::All()).ValueOrDie();
  EXPECT_TRUE(seq.SameRows(par_result));
}

TEST(DistExecTest, ConstantPredicatePruningSkipsSites) {
  // Detail partitioned by `region`; the query's second condition pins
  // region = 2, so distribution-aware analysis proves every other site
  // holds nothing relevant and they sit the GMDJ round out (S_MD ⊂ S_B).
  SchemaPtr schema = Schema::Make({{"region", ValueType::kInt64},
                                   {"cat", ValueType::kInt64},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  Random rng(53);
  for (int i = 0; i < 400; ++i) {
    t.AppendUnchecked({Value(rng.UniformInt(0, 3)),
                       Value(rng.UniformInt(0, 9)),
                       Value(rng.UniformInt(0, 99))});
  }
  DistributedWarehouse dw(4);
  std::vector<Table> parts = PartitionByModulo(t, "region", 4).ValueOrDie();
  dw.AddPartitionedTable("t", std::move(parts), {"region", "cat", "v"})
      .Check();

  GmdjExpr expr;
  expr.base = BaseQuery{"t", {"cat"}, true, nullptr};
  GmdjOp op;
  op.detail_table = "t";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}},
      And(Eq(RCol("cat"), BCol("cat")),
          Eq(RCol("region"), Lit(Value(2))))});
  expr.ops.push_back(op);

  Table expected = dw.ExecuteCentralized(expr).ValueOrDie();
  OptimizerOptions aware;
  aware.aware_group_reduction = true;
  ExecStats stats;
  Table result = dw.Execute(expr, aware, &stats).ValueOrDie();
  EXPECT_TRUE(result.SameRows(expected));
  // Stage round is rounds[1]; three of four sites skipped.
  ASSERT_EQ(stats.rounds.size(), 2u);
  EXPECT_EQ(stats.rounds[1].sites_skipped, 3u);
}

TEST(DistExecTest, EmptyPartitionSitesAreHarmless) {
  // More sites than distinct partition values: some sites hold no rows.
  Table flow = MakeFlowTable(29, 100, 3, 2);
  DistributedWarehouse dw(8);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  GmdjExpr expr = Example1Expr();
  Table expected = dw.ExecuteCentralized(expr).ValueOrDie();
  for (const OptimizerOptions& o :
       {OptimizerOptions::None(), OptimizerOptions::All()}) {
    Table actual = dw.Execute(expr, o).ValueOrDie();
    EXPECT_TRUE(actual.SameRows(expected));
  }
}

TEST(DistExecTest, UnknownTableFails) {
  DistributedWarehouse dw(2);
  GmdjExpr expr = Example1Expr();
  auto result = dw.Execute(expr, OptimizerOptions::None());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(DistExecTest, MismatchedPartitionCountFails) {
  DistributedWarehouse dw(3);
  Table flow = MakeFlowTable(1, 10, 2, 2);
  std::vector<Table> two_parts = PartitionRoundRobin(flow, 2).ValueOrDie();
  Status s = dw.AddPartitionedTable("flow", std::move(two_parts), {});
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
}

// The rows of `t` as a sorted list of their serialized cells: a multiset
// comparison that, unlike SameRows, holds NaN equal to itself and tells
// -0.0 from 0.0.
std::vector<std::vector<uint8_t>> RowBytes(const Table& t) {
  std::vector<std::vector<uint8_t>> rows;
  for (const Row& row : t.rows()) {
    std::vector<uint8_t> bytes;
    for (const Value& v : row) WriteValue(&bytes, v);
    rows.push_back(std::move(bytes));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(DistExecTest, NaNGroupingKeyMatchesCentralized) {
  // DISTINCT keeps every NaN row (NaN equals nothing), so X holds eight
  // NaN groups; seeded rounds must still find each one. Every optimizer
  // mask, 1, 2 and 5 round-robin sites.
  SchemaPtr schema = Schema::Make({{"k", ValueType::kFloat64},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  const double keys[] = {1.0, std::numeric_limits<double>::quiet_NaN(), -0.0,
                         0.0, 2.5};
  Table t(schema);
  for (int rep = 0; rep < 8; ++rep) {
    for (int i = 0; i < 5; ++i) {
      t.AppendUnchecked({Value(keys[i]), Value(int64_t{rep * 5 + i})});
    }
  }
  GmdjExpr expr;
  expr.base = BaseQuery{"t", {"k"}, true, nullptr};
  GmdjOp md;
  md.detail_table = "t";
  md.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt"}, {AggKind::kSum, "v", "sum"}},
      Eq(RCol("k"), BCol("k"))});
  expr.ops = {md};
  for (size_t sites : {1u, 2u, 5u}) {
    DistributedWarehouse dw(sites);
    dw.AddPartitionedTable("t", PartitionRoundRobin(t, sites).ValueOrDie(),
                           {"k"})
        .Check();
    const Table expected = dw.ExecuteCentralized(expr).ValueOrDie();
    ASSERT_EQ(expected.num_rows(), 11u);
    for (int mask = 0; mask < 16; ++mask) {
      OptimizerOptions o;
      o.coalescing = mask & 1;
      o.indep_group_reduction = mask & 2;
      o.aware_group_reduction = mask & 4;
      o.sync_reduction = mask & 8;
      Result<Table> actual = dw.Execute(expr, o);
      ASSERT_TRUE(actual.ok())
          << "sites " << sites << " mask " << mask << ": "
          << actual.status().ToString();
      EXPECT_EQ(RowBytes(*actual), RowBytes(expected))
          << "sites " << sites << " mask " << mask << "\n"
          << actual->ToString(20) << "centralized:\n"
          << expected.ToString(20);
    }
  }
}

TEST(DistExecTest, StatsAccounting) {
  Table flow = MakeFlowTable(31, 300, 8, 3);
  DistributedWarehouse dw(4);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  GmdjExpr expr = Example1Expr();
  ExecStats stats;
  dw.Execute(expr, OptimizerOptions::None(), &stats).ValueOrDie();
  // Unoptimized Example 1: base round + 2 GMDJ rounds, all synchronized.
  ASSERT_EQ(stats.rounds.size(), 3u);
  EXPECT_EQ(stats.NumSyncRounds(), 3u);
  EXPECT_GT(stats.TotalBytesToCoord(), 0u);
  EXPECT_GT(stats.rounds[1].bytes_to_sites, 0u);   // X shipped to sites.
  EXPECT_EQ(stats.rounds[0].bytes_to_sites, 0u);   // Base round only sends up.
  EXPECT_GT(stats.ResponseTime(), 0.0);
  EXPECT_GE(stats.TotalSiteTimeSum(), stats.TotalSiteTimeMax());
}

}  // namespace
}  // namespace skalla

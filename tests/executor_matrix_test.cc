// Executor consistency matrix: the same optimized plan executed by every
// executor variant over in-process site services — sequential fan-out,
// the default concurrent fan-out with one worker per site, two workers,
// and sites that evaluate with the row oracle. Every variant must
// produce results identical to the centralized evaluator, reproduce the
// sequential baseline row for row, and move exactly the baseline's
// payload bytes and tuples; every round reports its wall time.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "dist/warehouse.h"
#include "rpc/rpc_executor.h"
#include "rpc/transport.h"
#include "sql/parser.h"
#include "storage/partition.h"
#include "types/row.h"

namespace skalla {
namespace {

constexpr size_t kSites = 6;

Table MakeData() {
  Random rng(97);
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"h", ValueType::kInt64},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (int i = 0; i < 1500; ++i) {
    t.AppendUnchecked({Value(rng.UniformInt(0, 39)),
                       Value(rng.UniformInt(0, 7)),
                       Value(rng.UniformInt(0, 999))});
  }
  return t;
}

std::vector<Site> MakeSites(const std::vector<Table>& parts,
                            EvalEngine engine) {
  std::vector<Site> sites;
  for (size_t i = 0; i < parts.size(); ++i) {
    Catalog catalog;
    catalog.Register("d", parts[i]);
    sites.emplace_back(static_cast<int>(i), std::move(catalog), engine);
  }
  return sites;
}

// Row-for-row equality including order — pins that every fan-out width
// and kernel reproduces the sequential merge's output exactly, not just
// as a set.
bool ExactlyEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (!RowEquals(a.row(r), b.row(r))) return false;
  }
  return true;
}

struct Variant {
  const char* name;
  ExecutorOptions options;
  EvalEngine engine = EvalEngine::kColumnar;
};

// Builds the variant's executor over sites that evaluate with `engine`.
std::unique_ptr<rpc::RpcExecutor> MakeExecutor(
    const std::vector<Table>& parts, const ExecutorOptions& options,
    EvalEngine engine = EvalEngine::kColumnar) {
  return std::make_unique<rpc::RpcExecutor>(
      std::make_unique<rpc::InProcessTransport>(MakeSites(parts, engine)),
      options);
}

// Per-site profiles agree site by site in every round: whichever kernel
// and fan-out width ran them, the same sites shipped and returned the
// same payload bytes and rows.
void ExpectSameSiteProfiles(const ExecStats& a, const ExecStats& b,
                            const std::string& what) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << what;
  for (size_t r = 0; r < a.rounds.size(); ++r) {
    const std::vector<SiteRoundProfile>& x = a.rounds[r].site_profiles;
    const std::vector<SiteRoundProfile>& y = b.rounds[r].site_profiles;
    ASSERT_EQ(x.size(), y.size()) << what << " " << a.rounds[r].label;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].site_id, y[i].site_id) << what;
      EXPECT_EQ(x[i].bytes_in, y[i].bytes_in) << what;
      EXPECT_EQ(x[i].bytes_out, y[i].bytes_out) << what;
      EXPECT_EQ(x[i].result_rows, y[i].result_rows) << what;
    }
  }
}

// Every variant times every round it runs.
void ExpectRoundsTimed(const ExecStats& stats, const std::string& what) {
  for (const RoundStats& round : stats.rounds) {
    EXPECT_GT(round.wall_time, 0) << what << " " << round.label;
  }
}

TEST(ExecutorMatrixTest, AllVariantsAgree) {
  Table data = MakeData();
  std::vector<Table> parts = PartitionByValue(data, "g", kSites).ValueOrDie();

  DistributedWarehouse dw(kSites);
  {
    std::vector<Table> copy = parts;
    dw.AddPartitionedTable("d", std::move(copy), {"g", "h", "v"}).Check();
  }

  GmdjExpr query = ParseQuery(R"(
    BASE SELECT DISTINCT g FROM d;
    MD USING d
       COMPUTE COUNT(*) AS c1, SUM(v) AS s1, MAX(v) AS m1
       WHERE r.g = b.g;
    MD USING d
       COMPUTE COUNT(*) AS c2
       WHERE r.g = b.g AND r.v * 2 >= b.m1;
  )").ValueOrDie();

  ExecutorOptions sequential;
  sequential.fanout_threads = 1;
  ExecutorOptions parallel2;
  parallel2.fanout_threads = 2;
  const Variant variants[] = {
      {"sequential", sequential},
      {"parallel", {}},
      {"parallel2", parallel2},
      {"row", {}, EvalEngine::kRow},
  };

  for (int opt_mask : {0, 15}) {
    OptimizerOptions opts;
    opts.coalescing = opt_mask & 1;
    opts.indep_group_reduction = opt_mask & 2;
    opts.aware_group_reduction = opt_mask & 4;
    opts.sync_reduction = opt_mask & 8;
    DistributedPlan plan = dw.Plan(query, opts).ValueOrDie();

    Table reference = dw.ExecuteCentralized(query).ValueOrDie();

    // Sequential baseline for cross-variant byte accounting.
    ExecStats baseline_stats;
    std::unique_ptr<rpc::RpcExecutor> baseline =
        MakeExecutor(parts, sequential);
    Table baseline_result =
        baseline->Execute(plan, &baseline_stats).ValueOrDie();
    ASSERT_TRUE(baseline_result.SameRows(reference))
        << "sequential, opts " << opt_mask;
    ExpectRoundsTimed(baseline_stats, "sequential baseline");
    // A default in-process run evaluates every round columnar at every
    // site: the GMDJ rounds with the columnar kernel, the base round
    // with the columnar base-query scan, which reads every row of its
    // partition (the plan's base query has no WHERE).
    EXPECT_EQ(baseline_stats.engines_used, kEngineBitColumnar);
    for (const RoundStats& round : baseline_stats.rounds) {
      for (const SiteRoundProfile& site : round.site_profiles) {
        EXPECT_EQ(site.engines_used, kEngineBitColumnar)
            << round.label << " site " << site.site_id;
      }
    }
    ASSERT_EQ(baseline_stats.rounds[0].site_profiles.size(), parts.size());
    for (size_t i = 0; i < parts.size(); ++i) {
      EXPECT_EQ(baseline_stats.rounds[0].site_profiles[i].rows_scanned,
                parts[i].num_rows())
          << "base site " << i;
    }

    for (const Variant& variant : variants) {
      std::unique_ptr<rpc::RpcExecutor> executor =
          MakeExecutor(parts, variant.options, variant.engine);
      ExecStats stats;
      Table result = executor->Execute(plan, &stats).ValueOrDie();
      EXPECT_TRUE(result.SameRows(reference))
          << variant.name << ", opts " << opt_mask;
      EXPECT_EQ(stats.rounds.size(),
                plan.stages.size() + (plan.sync_base ? 1 : 0))
          << variant.name << ", opts " << opt_mask;
      if (std::string(variant.name) == "row") {
        EXPECT_EQ(stats.engines_used, kEngineBitRow);
      }

      EXPECT_TRUE(ExactlyEqual(result, baseline_result))
          << variant.name << ", opts " << opt_mask;
      EXPECT_EQ(stats.TotalBytes(), baseline_stats.TotalBytes())
          << variant.name << ", opts " << opt_mask;
      EXPECT_EQ(stats.TotalTuplesTransferred(),
                baseline_stats.TotalTuplesTransferred())
          << variant.name << ", opts " << opt_mask;
      ExpectSameSiteProfiles(stats, baseline_stats, variant.name);
      ExpectRoundsTimed(stats, variant.name);
    }
  }
}

}  // namespace
}  // namespace skalla

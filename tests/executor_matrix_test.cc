// Cross-executor consistency matrix: the same optimized plan executed by
// every engine variant — synchronous star, parallel sites (one worker per
// site, and two workers), row-blocked, row-oracle sites, and coordinator
// trees of two fanouts — through the unified skalla::Executor interface,
// crossed with coordinator_shards ∈ {1, 4}. Every combination must
// produce results identical to the centralized evaluator; every
// star-shaped variant must reproduce the star baseline row for row;
// sharding must leave results (row order included), transfer bytes, and
// tuple counts exactly as the sequential merge produced them; where byte
// accounting is defined the same way as the star's (all variants but the
// tree), byte counts match the star baseline too.

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "dist/tree.h"
#include "dist/warehouse.h"
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

std::vector<Site> MakeSites(const std::vector<Table>& parts) {
  std::vector<Site> sites;
  for (size_t i = 0; i < parts.size(); ++i) {
    Catalog catalog;
    catalog.Register("d", parts[i]);
    sites.emplace_back(static_cast<int>(i), std::move(catalog));
  }
  return sites;
}

// Row-for-row equality including order — pins that sharded merging
// reproduces the sequential merge's output exactly, not just as a set.
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
  // How byte accounting relates to the star baseline: "exact" variants
  // ship identical messages; "blocked" splits them (more headers);
  // "tree" adds inter-coordinator links.
  bool bytes_match_star;
};

// Builds the variant's engine behind the unified interface.
std::unique_ptr<Executor> MakeExecutor(const std::string& name,
                                       const std::vector<Table>& parts,
                                       const ExecutorOptions& options) {
  if (name == "tree2" || name == "tree3") {
    size_t fanout = name == "tree2" ? 2 : 3;
    return std::make_unique<TreeExecutor>(
        MakeSites(parts), CoordinatorTree::Balanced(kSites, fanout),
        NetworkConfig{}, options);
  }
  return std::make_unique<DistributedExecutor>(MakeSites(parts),
                                               NetworkConfig{}, options);
}

TEST(ExecutorMatrixTest, AllEnginesAgreeAcrossShardCounts) {
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

  ExecutorOptions parallel;
  parallel.parallel_sites = true;
  ExecutorOptions parallel2 = parallel;
  parallel2.num_threads = 2;
  ExecutorOptions blocked;
  blocked.ship_block_rows = 11;
  ExecutorOptions row;
  row.engine = EvalEngine::kRow;
  const Variant variants[] = {
      {"star", {}, true},          {"parallel", parallel, true},
      {"parallel2", parallel2, true}, {"blocked", blocked, false},
      {"row", row, true},          {"tree2", {}, false},
      {"tree3", {}, false},
  };

  for (int opt_mask : {0, 15}) {
    OptimizerOptions opts;
    opts.coalescing = opt_mask & 1;
    opts.indep_group_reduction = opt_mask & 2;
    opts.aware_group_reduction = opt_mask & 4;
    opts.sync_reduction = opt_mask & 8;
    DistributedPlan plan = dw.Plan(query, opts).ValueOrDie();

    Table reference = dw.ExecuteCentralized(query).ValueOrDie();

    // Star baseline for cross-variant byte accounting.
    ExecStats star_stats;
    std::unique_ptr<Executor> star = MakeExecutor("star", parts, {});
    Table star_result = star->Execute(plan, &star_stats).ValueOrDie();
    ASSERT_TRUE(star_result.SameRows(reference)) << "star, opts " << opt_mask;
    // A default in-process run evaluates every GMDJ round with the
    // columnar kernel at every site (base rounds run no kernel).
    EXPECT_EQ(star_stats.engines_used, kEngineBitColumnar);
    for (const RoundStats& round : star_stats.rounds) {
      for (const SiteRoundProfile& site : round.site_profiles) {
        EXPECT_EQ(site.engines_used,
                  round.label == "base" ? 0 : kEngineBitColumnar)
            << round.label << " site " << site.site_id;
      }
    }

    for (const Variant& variant : variants) {
      // Sequential-merge run: the pinned baseline for this variant.
      ExecutorOptions seq_options = variant.options;
      seq_options.coordinator_shards = 1;
      std::unique_ptr<Executor> seq_exec =
          MakeExecutor(variant.name, parts, seq_options);
      ExecStats seq_stats;
      Table seq_result = seq_exec->Execute(plan, &seq_stats).ValueOrDie();
      EXPECT_TRUE(seq_result.SameRows(reference))
          << variant.name << ", opts " << opt_mask;
      EXPECT_EQ(seq_stats.rounds.size(), plan.stages.size() + 1)
          << variant.name << ", opts " << opt_mask;
      if (std::string(variant.name) == "row") {
        EXPECT_EQ(seq_stats.engines_used, kEngineBitRow);
      }

      if (variant.bytes_match_star) {
        EXPECT_EQ(seq_stats.TotalBytes(), star_stats.TotalBytes())
            << variant.name << ", opts " << opt_mask;
      }
      if (std::string(variant.name).rfind("tree", 0) != 0) {
        EXPECT_TRUE(ExactlyEqual(seq_result, star_result))
            << variant.name << ", opts " << opt_mask;
        EXPECT_EQ(seq_stats.TotalTuplesTransferred(),
                  star_stats.TotalTuplesTransferred())
            << variant.name << ", opts " << opt_mask;
      }

      // Sharded-merge run: results (row for row), bytes, and tuples must
      // be exactly what the sequential merge produced.
      ExecutorOptions sharded_options = variant.options;
      sharded_options.coordinator_shards = 4;
      std::unique_ptr<Executor> sharded_exec =
          MakeExecutor(variant.name, parts, sharded_options);
      ExecStats sharded_stats;
      Table sharded_result =
          sharded_exec->Execute(plan, &sharded_stats).ValueOrDie();
      EXPECT_TRUE(ExactlyEqual(sharded_result, seq_result))
          << variant.name << " shards=4, opts " << opt_mask;
      EXPECT_EQ(sharded_stats.TotalBytes(), seq_stats.TotalBytes())
          << variant.name << " shards=4, opts " << opt_mask;
      EXPECT_EQ(sharded_stats.TotalBytesToSites(),
                seq_stats.TotalBytesToSites())
          << variant.name << " shards=4, opts " << opt_mask;
      EXPECT_EQ(sharded_stats.TotalBytesToCoord(),
                seq_stats.TotalBytesToCoord())
          << variant.name << " shards=4, opts " << opt_mask;
      EXPECT_EQ(sharded_stats.TotalTuplesTransferred(),
                seq_stats.TotalTuplesTransferred())
          << variant.name << " shards=4, opts " << opt_mask;
      EXPECT_EQ(sharded_stats.RootBytes(), seq_stats.RootBytes())
          << variant.name << " shards=4, opts " << opt_mask;

      // Intra-site parallel run: eval_threads is scheduling-only, so
      // results (row for row) and every byte count must be exactly the
      // sequential-evaluation baseline's.
      ExecutorOptions threaded_options = variant.options;
      threaded_options.eval_threads = 4;
      std::unique_ptr<Executor> threaded_exec =
          MakeExecutor(variant.name, parts, threaded_options);
      ExecStats threaded_stats;
      Table threaded_result =
          threaded_exec->Execute(plan, &threaded_stats).ValueOrDie();
      EXPECT_TRUE(ExactlyEqual(threaded_result, seq_result))
          << variant.name << " eval_threads=4, opts " << opt_mask;
      EXPECT_EQ(threaded_stats.TotalBytes(), seq_stats.TotalBytes())
          << variant.name << " eval_threads=4, opts " << opt_mask;
      EXPECT_EQ(threaded_stats.TotalTuplesTransferred(),
                seq_stats.TotalTuplesTransferred())
          << variant.name << " eval_threads=4, opts " << opt_mask;
    }
  }
}

}  // namespace
}  // namespace skalla

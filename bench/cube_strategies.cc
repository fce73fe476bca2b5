// Ablation: distributed data-cube strategies. Direct evaluation runs one
// distributed GMDJ query per cuboid (2^k round-trips); the roll-up
// strategy (Agarwal et al. [1], cited by the paper) ships only the
// finest cuboid and derives the rest locally. Both produce identical
// cubes; the traffic and round counts diverge exponentially in k.

#include <cstdio>

#include "bench_common.h"
#include "olap/cube.h"

namespace skalla {
namespace {

void Run() {
  const int64_t kRows = 48000;
  const int64_t kCustomers = 6000;
  const size_t kSites = 8;
  std::vector<Table> partitions =
      bench::MakeTpcrPartitions(kRows, kCustomers, kSites);
  DistributedWarehouse dw(kSites, {}, bench::SequentialFanOut());
  {
    std::vector<Table> copy = partitions;
    dw.AddPartitionedTable("tpcr", std::move(copy),
                           {"NationKey", "RegionKey", "MktSegment",
                            "OrderPriority", "Quantity"})
        .Check();
  }

  std::printf("=== Data-cube strategies: per-cuboid queries vs roll-up "
              "===\n");
  std::printf("%5s %10s %12s %14s %12s %14s\n", "dims", "cuboids",
              "direct_ms", "direct_bytes", "rollup_ms", "rollup_bytes");

  const std::vector<std::string> all_dims = {"RegionKey", "MktSegment",
                                             "OrderPriority", "NationKey"};
  for (size_t k = 2; k <= all_dims.size(); ++k) {
    CubeSpec spec;
    spec.detail_table = "tpcr";
    spec.dims.assign(all_dims.begin(),
                     all_dims.begin() + static_cast<int64_t>(k));
    spec.aggs = {{AggKind::kCountStar, "", "n"},
                 {AggKind::kAvg, "Quantity", "avg_qty"}};

    ExecStats direct_stats;
    Table direct = ComputeCubeDistributed(dw, spec, OptimizerOptions::All(),
                                          &direct_stats)
                       .ValueOrDie();
    ExecStats rollup_stats;
    Table rollup = ComputeCubeByRollup(dw, spec, OptimizerOptions::All(),
                                       &rollup_stats)
                       .ValueOrDie();
    if (!direct.SameRows(rollup)) {
      std::printf("MISMATCH at k=%zu!\n", k);
      return;
    }
    std::printf("%5zu %10u %12.2f %14llu %12.2f %14llu\n", k, 1u << k,
                direct_stats.ResponseTime() * 1e3,
                static_cast<unsigned long long>(direct_stats.TotalBytes()),
                rollup_stats.ResponseTime() * 1e3,
                static_cast<unsigned long long>(rollup_stats.TotalBytes()));
  }
}

}  // namespace
}  // namespace skalla

int main(int argc, char** argv) {
  skalla::bench::ObsSession obs(argc, argv);
  skalla::Run();
  return 0;
}

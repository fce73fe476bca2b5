// Figure 5 reproduction: the combined reductions query (scale-up
// experiment).
//
// The number of sites is fixed at four; the per-site data size scales
// x1..x4. The combined query (three GMDJ operators: a correlated pair
// plus a coalescable third) runs with either all reductions or none.
// Both configurations grow linearly with database size; the optimized
// plan takes roughly half the time. The right-hand graph of the paper
// breaks the optimized evaluation down into site computation, coordinator
// computation, and communication overhead — all growing linearly. A
// second series keeps the number of groups constant while the database
// grows, as in the paper's final experiment.
//
// A third series stresses the coordinator: eight sites, every round
// synchronized, so the merge of eight sub-aggregate fragments per round
// dominates coordinator time (`skalla.coord.merge_us` in --metrics-out).

#include <cstdio>

#include "bench_common.h"
#include "common/flags.h"

namespace skalla {
namespace {

constexpr size_t kSites = 4;
constexpr int64_t kBaseRows = 32000;
constexpr int64_t kBaseCustomers = 4000;

void RunSeries(const char* title, bool scale_groups) {
  std::printf("--- %s ---\n", title);
  bench::PrintSeriesHeader("scale");
  GmdjExpr query = bench::CombinedQuery("CustName");

  std::vector<ExecStats> optimized_stats;
  for (int64_t scale = 1; scale <= 4; ++scale) {
    std::vector<Table> partitions = bench::MakeTpcrPartitions(
        kBaseRows * scale,
        scale_groups ? kBaseCustomers * scale : kBaseCustomers, kSites);
    DistributedWarehouse dw = bench::MakeWarehouse(
        partitions, kSites, {}, bench::SequentialFanOut());

    ExecStats none_stats;
    ExecStats all_stats;
    bench::Execute(dw, query, OptimizerOptions::None(), &none_stats);
    bench::Execute(dw, query, OptimizerOptions::All(), &all_stats);
    bench::PrintSeriesRow(static_cast<size_t>(scale), "no-reductions",
                          none_stats);
    bench::PrintSeriesRow(static_cast<size_t>(scale), "all-reductions",
                          all_stats);
    optimized_stats.push_back(all_stats);
  }

  std::printf("\nBreakdown of the optimized query (right-hand graph):\n");
  std::printf("%5s %14s %14s %14s %14s\n", "scale", "site_ms", "coord_ms",
              "comm_ms", "total_ms");
  for (size_t i = 0; i < optimized_stats.size(); ++i) {
    const ExecStats& s = optimized_stats[i];
    std::printf("%5zu %14.2f %14.2f %14.2f %14.2f\n", i + 1,
                s.TotalSiteTimeMax() * 1e3, s.TotalCoordTime() * 1e3,
                s.TotalCommTime() * 1e3, s.ResponseTime() * 1e3);
  }
  std::printf("\n");
}

// Coordinator-bound configuration: 8 sites, unoptimized plan (every
// round synchronizes), so the root merges 8 fragments per round.
void RunCoordinatorSeries() {
  const size_t kCoordSites = 8;
  std::printf("--- coordinator-bound (8 sites, no reductions) ---\n");
  GmdjExpr query = bench::CombinedQuery("CustName");
  std::printf("%5s %14s %14s %14s %14s %12s\n", "scale", "coord_ms",
              "site_ms", "total_ms", "bytes", "tuples");
  for (int64_t scale = 1; scale <= 4; ++scale) {
    std::vector<Table> partitions = bench::MakeTpcrPartitions(
        kBaseRows * scale, kBaseCustomers * scale, kCoordSites);
    DistributedWarehouse dw = bench::MakeWarehouse(
        partitions, kCoordSites, {}, bench::SequentialFanOut());
    ExecStats stats;
    bench::Execute(dw, query, OptimizerOptions::None(), &stats);
    std::printf("%5zu %14.2f %14.2f %14.2f %14llu %12llu\n",
                static_cast<size_t>(scale), stats.TotalCoordTime() * 1e3,
                stats.TotalSiteTimeMax() * 1e3, stats.ResponseTime() * 1e3,
                static_cast<unsigned long long>(stats.TotalBytes()),
                static_cast<unsigned long long>(
                    stats.TotalTuplesTransferred()));
  }
  std::printf("\n");
}

void Run() {
  std::printf(
      "=== Figure 5: combined reductions query (scale-up, 4 sites, x1..x4 "
      "data) ===\n\n");
  RunSeries("groups scale with data (customers x1..x4)", true);
  RunSeries("constant group count (customers fixed)", false);
  RunCoordinatorSeries();
}

}  // namespace
}  // namespace skalla

int main(int argc, char** argv) {
  skalla::FlagSet flags;
  flags.IgnorePrefix("--trace-out=");
  flags.IgnorePrefix("--metrics-out=");
  skalla::Status parsed = flags.Parse(&argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  skalla::bench::ObsSession obs(argc, argv);
  skalla::Run();
  return 0;
}

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
// dominates coordinator time. `--shards=N` shards that merge structure
// (0 = one shard per hardware thread, the default is 1 = sequential);
// byte/tuple counts and results are invariant under the shard count, so
// running the bench twice with --metrics-out and different --shards
// isolates the coordinator merge wall time (`skalla.coord.merge_us`).
//
// `--eval-threads=N` turns on intra-site morsel parallelism for every
// series (0 = one worker per hardware thread). Like --shards, it leaves
// results and byte/tuple counts untouched, so sweeping it isolates site
// computation time (`skalla.site.eval_us`).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench_common.h"
#include "common/flags.h"

namespace skalla {
namespace {

constexpr size_t kSites = 4;
constexpr int64_t kBaseRows = 32000;
constexpr int64_t kBaseCustomers = 4000;

// Coordinator shard count for every executor in this bench (--shards=N).
size_t g_shards = 1;

// Intra-site morsel parallelism for every executor in this bench
// (--eval-threads=N, 0 = one worker per hardware thread). Results and
// byte/tuple counts are invariant under this knob, so comparing
// site_ms (or skalla.site.eval_us in --metrics-out) across runs with
// different values isolates the site-evaluation wall time.
size_t g_eval_threads = 1;

ExecutorOptions ExecOptions() {
  ExecutorOptions options = bench::SequentialFanOut();
  options.coordinator_shards = g_shards;
  options.eval_threads = g_eval_threads;
  return options;
}

void RunSeries(const char* title, bool scale_groups) {
  std::printf("--- %s ---\n", title);
  bench::PrintSeriesHeader("scale");
  GmdjExpr query = bench::CombinedQuery("CustName");

  std::vector<ExecStats> optimized_stats;
  for (int64_t scale = 1; scale <= 4; ++scale) {
    std::vector<Table> partitions = bench::MakeTpcrPartitions(
        kBaseRows * scale,
        scale_groups ? kBaseCustomers * scale : kBaseCustomers, kSites);
    DistributedWarehouse dw =
        bench::MakeWarehouse(partitions, kSites, {}, ExecOptions());

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
// round synchronizes), so the root merges 8 fragments per round. This is
// the series where coordinator sharding pays off.
void RunCoordinatorSeries() {
  const size_t kShardSites = 8;
  std::printf("--- coordinator-bound (8 sites, no reductions, shards=%zu) "
              "---\n",
              ResolveCoordinatorShards(g_shards));
  GmdjExpr query = bench::CombinedQuery("CustName");
  std::printf("%5s %14s %14s %14s %14s %12s\n", "scale", "coord_ms",
              "site_ms", "total_ms", "bytes", "tuples");
  for (int64_t scale = 1; scale <= 4; ++scale) {
    std::vector<Table> partitions = bench::MakeTpcrPartitions(
        kBaseRows * scale, kBaseCustomers * scale, kShardSites);
    DistributedWarehouse dw =
        bench::MakeWarehouse(partitions, kShardSites, {}, ExecOptions());
    ExecStats stats;
    bench::Execute(dw, query, OptimizerOptions::None(), &stats);
    std::printf("%5zu %14.2f %14.2f %14.2f %14llu %12llu\n",
                static_cast<size_t>(scale), stats.TotalCoordTime() * 1e3,
                stats.TotalSiteTimeMax() * 1e3, stats.ResponseTime() * 1e3,
                static_cast<unsigned long long>(stats.TotalBytes()),
                static_cast<unsigned long long>(
                    stats.TotalTuplesTransferred()));
  }
  std::printf("\nBytes/tuples are invariant under --shards; compare "
              "coord_ms (or skalla.coord.merge_us\nin --metrics-out) "
              "across runs with different shard counts.\n\n");
}

void Run() {
  std::printf(
      "=== Figure 5: combined reductions query (scale-up, 4 sites, x1..x4 "
      "data) ===\n");
  std::printf("coordinator shards: %zu, eval threads: %zu "
              "(of %u hardware threads)\n\n",
              ResolveCoordinatorShards(g_shards),
              ResolveEvalThreads(g_eval_threads),
              std::thread::hardware_concurrency());
  RunSeries("groups scale with data (customers x1..x4)", true);
  RunSeries("constant group count (customers fixed)", false);
  RunCoordinatorSeries();
}

}  // namespace
}  // namespace skalla

int main(int argc, char** argv) {
  skalla::FlagSet flags;
  flags.SizeT("--shards", &skalla::g_shards, "coordinator merge shards");
  flags.SizeT("--eval-threads", &skalla::g_eval_threads,
              "intra-site eval workers");
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

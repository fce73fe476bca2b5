// Ablation: incremental (pipelined) synchronization. Sect. 3.2 notes the
// coordinator "can synchronize H with those sub-results it has already
// received ... rather than having to wait for all of H". With its default
// concurrent fan-out (fanout_threads = 0) the star driver runs exactly
// that way: sites evaluate concurrently and the coordinator merges
// fragment i as soon as fragments 0..i have arrived, overlapping merge
// work with slower sites while keeping the sequential merge's output.
// This bench compares real wall-clock time of the sequential run
// (fanout_threads = 1) against the pipelined concurrent run, on a
// compute-heavy unoptimized plan where per-site work dominates.

#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "common/stopwatch.h"

namespace skalla {
namespace {

void Run() {
  const size_t kSites = 8;
  const int64_t kRows = 96000;
  const int64_t kCustomers = 12000;
  DistributedWarehouse dw(kSites);
  dw.AddPartitionedTable("tpcr",
                         bench::MakeTpcrPartitions(kRows, kCustomers, kSites),
                         bench::TrackedColumns())
      .Check();
  GmdjExpr query = bench::CorrelatedQuery("CustKey");
  DistributedPlan plan =
      dw.Plan(query, OptimizerOptions::None()).ValueOrDie();

  std::printf("=== Pipelining ablation: real wall time per engine ===\n");
  unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u%s\n", cores,
              cores <= 1 ? "  (single core: concurrent engines can only "
                           "show their overhead here; gains need real "
                           "parallel hardware)"
                         : "");
  std::printf("%-22s %12s\n", "engine", "wall_ms");

  {
    Stopwatch timer;
    ExecStats stats;
    bench::ExecutePlan(
        dw.MakeExecutor(NetworkConfig{}, bench::SequentialFanOut()), plan,
        &stats);
    std::printf("%-22s %12.2f\n", "sequential", timer.ElapsedSeconds() * 1e3);
  }
  {
    Stopwatch timer;
    ExecStats stats;
    bench::ExecutePlan(dw.MakeExecutor(NetworkConfig{}, ExecutorOptions{}),
                       plan, &stats);
    double wall = timer.ElapsedSeconds();
    double round_walls = 0;
    for (const RoundStats& r : stats.rounds) round_walls += r.wall_time;
    std::printf("%-22s %12.2f  (merge overlapped with site compute)\n",
                "concurrent fan-out", wall * 1e3);
    std::printf("%-22s %12.2f\n", "  sum of round walls", round_walls * 1e3);
  }
}

}  // namespace
}  // namespace skalla

int main(int argc, char** argv) {
  skalla::bench::ObsSession obs(argc, argv);
  skalla::Run();
  return 0;
}

// Ablation: network parameters. The paper argues its setting differs
// from Shatdal & Naughton's parallel-machine work because communication
// is NOT cheap in a distributed warehouse. This bench sweeps the
// modeled network from parallel-machine-like (high bandwidth, low
// latency) to WAN-like and shows where the Sect. 4 optimizations matter:
// the slower the network, the larger the optimized/unoptimized gap;
// on a fast interconnect the gap collapses toward the pure-compute
// difference.

#include <cstdio>

#include "bench_common.h"

namespace skalla {
namespace {

struct NetPoint {
  const char* name;
  NetworkConfig config;
};

void Run() {
  const int64_t kRows = 48000;
  const int64_t kCustomers = 6000;
  const size_t kSites = 8;
  std::vector<Table> partitions =
      bench::MakeTpcrPartitions(kRows, kCustomers, kSites);
  GmdjExpr query = bench::CorrelatedQuery("CustKey");

  const NetPoint points[] = {
      {"parallel-1GB/s-10us", {10e-6, 1e9}},
      {"LAN-100MB/s-100us", {100e-6, 100e6}},
      {"campus-10MB/s-1ms", {1e-3, 10e6}},
      {"WAN-1MB/s-20ms", {20e-3, 1e6}},
  };

  std::printf("=== Network sensitivity: when do the optimizations "
              "matter? ===\n");
  std::printf("%-22s %14s %14s %8s\n", "network", "none_ms", "all_ms",
              "speedup");
  for (const NetPoint& point : points) {
    DistributedWarehouse dw =
        bench::MakeWarehouse(partitions, kSites, point.config);
    ExecStats none_stats;
    ExecStats all_stats;
    bench::Execute(dw, query, OptimizerOptions::None(), &none_stats);
    bench::Execute(dw, query, OptimizerOptions::All(), &all_stats);
    std::printf("%-22s %14.2f %14.2f %7.1fx\n", point.name,
                none_stats.ResponseTime() * 1e3,
                all_stats.ResponseTime() * 1e3,
                none_stats.ResponseTime() / all_stats.ResponseTime());
  }
  std::printf("\nBytes moved are network-independent: %s\n",
              "the optimizations shrink traffic; the network prices it.");
}

}  // namespace
}  // namespace skalla

int main(int argc, char** argv) {
  skalla::bench::ObsSession obs(argc, argv);
  skalla::Run();
  return 0;
}

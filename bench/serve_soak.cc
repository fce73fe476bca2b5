// serve_soak: latency and throughput of the serving path. One
// QuerySession over a 4-site TPCR warehouse; closed-loop clients submit
// queries and wait for their futures, at concurrency {1, 4, 16}. Per
// query we record submit-to-resolve latency (queue wait included — that
// is what a user of skalla-coord experiences) and report p50/p99 plus
// aggregate QPS per concurrency level, then a cached series showing the
// sub-aggregate cache fast path. Output is a JSON record on stdout,
// conventionally saved as BENCH_serve_soak.json (not committed).
//
//   ./bench/serve_soak [--queries N] [--rows N] [--trace-out=F]
//                      [--metrics-out=F]
//
// The latency series runs with use_cache = false so every query pays
// full evaluation; mixes of three query shapes x three group columns
// keep the plans distinct. Results are deterministic; timings are
// hardware-dependent.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "common/stopwatch.h"

namespace skalla {
namespace {

int64_t g_queries = 48;  // per concurrency level
int64_t g_rows = 32000;

std::vector<GmdjExpr> QueryMix() {
  std::vector<GmdjExpr> mix;
  for (const char* column : {"CustName", "Clerk", "CustKey"}) {
    mix.push_back(bench::CorrelatedQuery(column));
    mix.push_back(bench::CoalescingQuery(column));
    mix.push_back(bench::CombinedQuery(column));
  }
  return mix;
}

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(index, sorted.size() - 1)];
}

struct SeriesResult {
  size_t concurrency = 0;
  size_t queries = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double qps = 0;
  uint64_t cache_hits = 0;
};

SeriesResult RunSeries(const DistributedWarehouse& dw, size_t concurrency,
                       bool use_cache) {
  serve::SessionOptions session_options;
  session_options.scheduler.max_concurrent_queries = concurrency;
  auto session = serve::QuerySession::Open(&dw, session_options).ValueOrDie();

  const std::vector<GmdjExpr> mix = QueryMix();
  const size_t total = static_cast<size_t>(g_queries);
  std::vector<double> latencies_ms;
  std::mutex latencies_mu;
  std::atomic<size_t> next{0};

  Stopwatch wall;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < concurrency; ++c) {
    clients.emplace_back([&] {
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= total) return;
        // The cached series repeats one query; the latency series
        // cycles the mix so consecutive queries differ.
        const GmdjExpr& query = use_cache ? mix[0] : mix[i % mix.size()];
        serve::QueryOptions options;
        options.use_cache = use_cache;
        Stopwatch latency;
        auto submission = session.Submit(query, options).ValueOrDie();
        submission.result.get().ValueOrDie();
        std::lock_guard<std::mutex> lock(latencies_mu);
        latencies_ms.push_back(latency.ElapsedSeconds() * 1e3);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_s = wall.ElapsedSeconds();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  SeriesResult result;
  result.concurrency = concurrency;
  result.queries = total;
  result.p50_ms = Percentile(latencies_ms, 0.50);
  result.p99_ms = Percentile(latencies_ms, 0.99);
  result.qps = wall_s > 0 ? static_cast<double>(total) / wall_s : 0;
  result.cache_hits = session.scheduler().cache().stats().hits;
  return result;
}

void Run() {
  std::vector<Table> partitions =
      bench::MakeTpcrPartitions(g_rows, g_rows / 8, 4);
  DistributedWarehouse dw = bench::MakeWarehouse(partitions, 4);

  char date[16];
  std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%d", std::localtime(&now));

  std::printf("{\n \"bench\": \"serve_soak\",\n \"date\": \"%s\",\n"
              " \"hardware_threads\": %u,\n"
              " \"command\": [\"./bench/serve_soak --queries %lld --rows "
              "%lld\"],\n"
              " \"note\": \"Closed-loop serving soak through QuerySession: "
              "per-query submit-to-resolve latency (queue wait included) "
              "and aggregate QPS per admission width. The latency series "
              "disables the sub-aggregate cache and cycles nine distinct "
              "plans; the cached series repeats one plan with the cache on, "
              "so all but the first resolutions are lookups. Single-core "
              "container: widening admission mostly reorders the same "
              "work, so QPS stays flat while p99 grows with the queue "
              "depth; on multicore hardware the independent per-site "
              "rounds overlap instead.\",\n \"latency_series\": [\n",
              date, std::thread::hardware_concurrency(),
              static_cast<long long>(g_queries),
              static_cast<long long>(g_rows));
  bool first = true;
  for (size_t concurrency : {size_t{1}, size_t{4}, size_t{16}}) {
    SeriesResult r = RunSeries(dw, concurrency, /*use_cache=*/false);
    std::printf("%s  {\"concurrency\": %zu, \"queries\": %zu, "
                "\"p50_ms\": %.2f, \"p99_ms\": %.2f, \"qps\": %.2f}",
                first ? "" : ",\n", r.concurrency, r.queries, r.p50_ms,
                r.p99_ms, r.qps);
    first = false;
  }
  SeriesResult cached = RunSeries(dw, 4, /*use_cache=*/true);
  std::printf("\n ],\n \"cached_series\": {\"concurrency\": %zu, "
              "\"queries\": %zu, \"p50_ms\": %.2f, \"p99_ms\": %.2f, "
              "\"qps\": %.2f, \"cache_hits\": %llu}\n}\n",
              cached.concurrency, cached.queries, cached.p50_ms,
              cached.p99_ms, cached.qps,
              static_cast<unsigned long long>(cached.cache_hits));
}

}  // namespace
}  // namespace skalla

int main(int argc, char** argv) {
  skalla::FlagSet flags;
  flags.Int64("--queries", &skalla::g_queries,
              "queries per concurrency level");
  flags.Int64("--rows", &skalla::g_rows, "TPCR rows across the 4 sites");
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

// Figure 5 at the paper's scale, over real site processes and real
// disk: the combined reductions query against a warehouse written by
// skalla-dataset, served by one skalla-site process per
// partition, each paging its partition through a bounded buffer pool.
//
// The paper ran 6M TPC(R) tuples partitioned by NationKey across 8
// local warehouses whose detail data lived in Daytona, not in memory.
// This bench reproduces that setting end to end:
//
//   skalla-dataset --out DIR --sites 8 --tpcr-rows 6000000
//       --tpcr-customers 100000 --tpcr-clerks 3000   (one line)
//   fig5_fullscale --data DIR [--budgets 16777216,0] [--json-out F]
//
// For every --buffer-bytes budget in the list (0 = unlimited), a fresh
// 8-process cluster is spawned and the combined query runs unoptimized
// and with all reductions through the RpcExecutor. After each run the
// per-site buffer-pool counters (skalla.storage.buffer.{hit,miss,evict},
// via the kGetStats RPC) are collected, showing how much of the
// partition was paged versus resident. Reply tables must be
// byte-identical across every budget and both plans — the byte-identity
// contract, measured where it matters.
//
// Buffer metrics require a tracing-enabled build of skalla-site
// (-DSKALLA_TRACING=ON, the default); the timings and byte accounting
// work either way.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "net/serde.h"
#include "rpc/rpc_executor.h"
#include "rpc/tcp.h"

namespace skalla {
namespace {

std::string g_data;
std::string g_site_bin;
size_t g_sites = 8;
std::string g_budgets = "16777216,0";
std::string g_json_out;

std::string SiteBinary() {
  if (!g_site_bin.empty()) return g_site_bin;
  const char* env = std::getenv("SKALLA_SITE_BIN");
  if (env != nullptr && env[0] != '\0') return env;
  for (const char* candidate :
       {"tools/skalla-site", "./build/tools/skalla-site",
        "../tools/skalla-site"}) {
    if (std::filesystem::exists(candidate)) return candidate;
  }
  return "";
}

struct SiteProcess {
  pid_t pid = -1;
  int port = 0;
  int stdout_fd = -1;
};

// Spawns `skalla-site --data DIR --site i --port 0 --buffer-bytes B`
// and scrapes "LISTENING port=<p>" from its stdout.
SiteProcess SpawnSite(const std::string& binary, size_t index,
                      uint64_t buffer_bytes) {
  SiteProcess process;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return process;

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return process;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::string site_arg = std::to_string(index);
    std::string budget_arg = std::to_string(buffer_bytes);
    ::execl(binary.c_str(), binary.c_str(), "--data", g_data.c_str(),
            "--site", site_arg.c_str(), "--port", "0", "--buffer-bytes",
            budget_arg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }

  ::close(pipe_fds[1]);
  FILE* out = ::fdopen(pipe_fds[0], "r");
  char line[256];
  while (out != nullptr && std::fgets(line, sizeof line, out) != nullptr) {
    int port = 0;
    if (std::sscanf(line, "LISTENING port=%d", &port) == 1) {
      process.pid = pid;
      process.port = port;
      process.stdout_fd = pipe_fds[0];
      return process;
    }
  }
  if (out != nullptr) std::fclose(out);
  ::waitpid(pid, nullptr, 0);
  return process;
}

void ReapAll(std::vector<SiteProcess>* processes) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (SiteProcess& process : *processes) {
    if (process.pid < 0) continue;
    for (;;) {
      int status = 0;
      pid_t done = ::waitpid(process.pid, &status, WNOHANG);
      if (done == process.pid || done < 0) break;
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(process.pid, SIGKILL);
        ::waitpid(process.pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    process.pid = -1;
    if (process.stdout_fd >= 0) {
      ::close(process.stdout_fd);
      process.stdout_fd = -1;
    }
  }
}

// Counters serialize as `"name": 123` in MetricsRegistry JSON.
uint64_t ScrapeCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  size_t pos = json.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
}

struct BufferTotals {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

struct RunRow {
  uint64_t budget = 0;
  std::string variant;
  double wall_ms = 0;
  double response_ms = 0;
  uint64_t bytes = 0;
  uint64_t tuples = 0;
  size_t rounds = 0;
  BufferTotals buffers;
};

// One fresh cluster per run, so the site-side buffer counters belong to
// exactly this query execution.
RunRow RunOnce(const std::string& binary, const DistributedPlan& plan,
               uint64_t budget, const char* variant,
               std::vector<uint8_t>* table_bytes) {
  std::vector<SiteProcess> processes;
  std::vector<rpc::SiteEndpoint> endpoints;
  for (size_t i = 0; i < g_sites; ++i) {
    SiteProcess process = SpawnSite(binary, i, budget);
    if (process.pid < 0) {
      std::fprintf(stderr, "failed to spawn site %zu\n", i);
      ReapAll(&processes);
      std::exit(1);
    }
    endpoints.push_back({"127.0.0.1", process.port});
    processes.push_back(process);
  }

  RunRow row;
  row.budget = budget;
  row.variant = variant;
  {
    rpc::RpcExecutor executor(
        std::make_unique<rpc::TcpTransport>(std::move(endpoints)),
        bench::SequentialFanOut());
    ExecStats stats;
    auto started = std::chrono::steady_clock::now();
    auto result = executor.Execute(plan, &stats);
    auto elapsed = std::chrono::steady_clock::now() - started;
    if (!result.ok()) {
      std::fprintf(stderr, "execution failed: %s\n",
                   result.status().ToString().c_str());
      ReapAll(&processes);
      std::exit(1);
    }
    row.wall_ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
    row.response_ms = stats.ResponseTime() * 1e3;
    row.bytes = stats.TotalBytes();
    row.tuples = stats.TotalTuplesTransferred();
    row.rounds = stats.NumSyncRounds();
    table_bytes->clear();
    WriteTable(*result, table_bytes);

    for (size_t i = 0; i < g_sites; ++i) {
      auto stats_result = executor.SiteStats(i);
      if (!stats_result.ok()) continue;
      const std::string& json = stats_result->metrics_json;
      row.buffers.hits += ScrapeCounter(json, "skalla.storage.buffer.hit");
      row.buffers.misses +=
          ScrapeCounter(json, "skalla.storage.buffer.miss");
      row.buffers.evictions +=
          ScrapeCounter(json, "skalla.storage.buffer.evict");
    }
    executor.Shutdown().Check();
  }
  ReapAll(&processes);
  return row;
}

void Run() {
  const std::string binary = SiteBinary();
  if (binary.empty() || g_data.empty()) {
    std::fprintf(stderr,
                 "need --data DIR (a skalla-dataset warehouse) "
                 "and a skalla-site binary\n(--site-bin or "
                 "SKALLA_SITE_BIN)\n");
    std::exit(2);
  }

  // The warehouse loads lazily: opening it here costs only the manifest,
  // STATS, and chunk-file footers, and gives the planner the same
  // distribution knowledge the resident warehouse would have.
  DistributedWarehouse dw =
      DistributedWarehouse::Load(g_data, {}, {}, 1 << 20).ValueOrDie();
  if (dw.num_sites() != g_sites) {
    std::fprintf(stderr, "--sites %zu but the warehouse has %zu\n", g_sites,
                 dw.num_sites());
    std::exit(2);
  }
  uint64_t total_rows = 0;
  auto provider = dw.central_catalog().GetProvider("tpcr");
  if (provider.ok()) total_rows = (*provider)->num_rows();
  uint64_t partition_bytes = 0;
  for (size_t i = 0; i < g_sites; ++i) {
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(
        PartitionChunkPath(g_data, "tpcr", i), ec);
    if (!ec && size > partition_bytes) partition_bytes = size;
  }

  GmdjExpr query = bench::CombinedQuery("CustName");
  DistributedPlan none_plan =
      dw.Plan(query, OptimizerOptions::None()).ValueOrDie();
  DistributedPlan all_plan =
      dw.Plan(query, OptimizerOptions::All()).ValueOrDie();

  std::vector<uint64_t> budgets;
  for (const std::string& piece : Split(g_budgets, ',')) {
    if (piece.empty()) continue;
    budgets.push_back(std::strtoull(piece.c_str(), nullptr, 10));
  }

  std::printf("=== Figure 5 at full scale: %llu tpcr rows, %zu site "
              "processes, largest partition %llu bytes ===\n\n",
              static_cast<unsigned long long>(total_rows), g_sites,
              static_cast<unsigned long long>(partition_bytes));
  std::printf("%12s  %-16s %10s %10s %12s %10s %12s %12s %10s\n",
              "buffer_bytes", "variant", "wall_ms", "resp_ms", "bytes",
              "tuples", "buf_hits", "buf_misses", "evicted");
  bench::PrintRule();

  std::vector<RunRow> rows;
  std::vector<uint8_t> reference;
  for (uint64_t budget : budgets) {
    for (const auto& [plan, variant] :
         {std::pair<const DistributedPlan*, const char*>{&none_plan,
                                                         "no-reductions"},
          {&all_plan, "all-reductions"}}) {
      std::vector<uint8_t> table_bytes;
      RunRow row = RunOnce(binary, *plan, budget, variant, &table_bytes);
      if (reference.empty()) {
        reference = table_bytes;
      } else if (table_bytes != reference) {
        std::fprintf(stderr,
                     "BYTE-IDENTITY VIOLATION: budget=%llu %s diverged\n",
                     static_cast<unsigned long long>(budget), variant);
        std::exit(1);
      }
      std::printf("%12llu  %-16s %10.1f %10.1f %12llu %10llu %12llu "
                  "%12llu %10llu\n",
                  static_cast<unsigned long long>(row.budget),
                  row.variant.c_str(), row.wall_ms, row.response_ms,
                  static_cast<unsigned long long>(row.bytes),
                  static_cast<unsigned long long>(row.tuples),
                  static_cast<unsigned long long>(row.buffers.hits),
                  static_cast<unsigned long long>(row.buffers.misses),
                  static_cast<unsigned long long>(row.buffers.evictions));
      rows.push_back(std::move(row));
    }
  }
  std::printf("\nAll %zu runs returned byte-identical tables.\n",
              rows.size());

  if (!g_json_out.empty()) {
    std::FILE* f = std::fopen(g_json_out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", g_json_out.c_str());
      std::exit(1);
    }
    std::fprintf(f,
                 "{\n \"bench\": \"fig5_fullscale\",\n \"sites\": %zu,\n"
                 " \"tpcr_rows\": %llu,\n \"largest_partition_bytes\": "
                 "%llu,\n \"byte_identical_across_runs\": true,\n"
                 " \"series\": [\n",
                 g_sites, static_cast<unsigned long long>(total_rows),
                 static_cast<unsigned long long>(partition_bytes));
    for (size_t i = 0; i < rows.size(); ++i) {
      const RunRow& r = rows[i];
      std::fprintf(
          f,
          "  {\"buffer_bytes\": %llu, \"variant\": \"%s\", "
          "\"wall_ms\": %.1f, \"response_ms\": %.1f, \"bytes\": %llu, "
          "\"tuples\": %llu, \"sync_rounds\": %zu, "
          "\"skalla.storage.buffer.hit\": %llu, "
          "\"skalla.storage.buffer.miss\": %llu, "
          "\"skalla.storage.buffer.evict\": %llu}%s\n",
          static_cast<unsigned long long>(r.budget), r.variant.c_str(),
          r.wall_ms, r.response_ms,
          static_cast<unsigned long long>(r.bytes),
          static_cast<unsigned long long>(r.tuples), r.rounds,
          static_cast<unsigned long long>(r.buffers.hits),
          static_cast<unsigned long long>(r.buffers.misses),
          static_cast<unsigned long long>(r.buffers.evictions),
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, " ]\n}\n");
    std::fclose(f);
  }
}

}  // namespace
}  // namespace skalla

int main(int argc, char** argv) {
  skalla::FlagSet flags;
  flags.String("--data", &skalla::g_data,
               "warehouse directory (written by skalla-dataset)");
  flags.String("--site-bin", &skalla::g_site_bin,
               "skalla-site binary (default: $SKALLA_SITE_BIN)");
  flags.SizeT("--sites", &skalla::g_sites, "number of site processes");
  flags.String("--budgets", &skalla::g_budgets,
               "comma-separated --buffer-bytes values (0 = unlimited)");
  flags.String("--json-out", &skalla::g_json_out,
               "write the series as JSON to this file");
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

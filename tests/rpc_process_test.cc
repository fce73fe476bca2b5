// End-to-end multi-process smoke: four real skalla-site processes are
// spawned over a saved warehouse, and the RpcExecutor drives the full
// query_suite battery through them over loopback TCP. Results must be
// byte-identical to the warehouse's in-process sites, with identical
// bytes_to_sites / bytes_to_coord accounting, and an injected mid-round
// connection drop (a site hanging up via --drop-request) must be
// survived by reconnect + retry without changing the result.
//
// The skalla-site binary path comes from the SKALLA_SITE_BIN environment
// variable, falling back to the build-time target location; the test
// skips if neither resolves.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/flow_gen.h"
#include "data/tpcr_gen.h"
#include "dist/warehouse.h"
#include "obs/obs.h"
#include "rpc/rpc_executor.h"
#include "rpc/tcp.h"
#include "sql/parser.h"
#include "types/row.h"

namespace skalla {
namespace {

constexpr size_t kSites = 4;

struct QueryCase {
  const char* name;
  const char* text;
};

// The query_suite battery, verbatim.
const QueryCase kQueries[] = {
    {"per_source_totals", R"(
      BASE SELECT DISTINCT SourceAS FROM flow;
      MD USING flow
         COMPUTE COUNT(*) AS flows, SUM(NumBytes) AS bytes,
                 MAX(NumPackets) AS max_pkts
         WHERE r.SourceAS = b.SourceAS;
    )"},
    {"above_average_pairs", R"(
      BASE SELECT DISTINCT SourceAS, DestAS FROM flow;
      MD USING flow
         COMPUTE COUNT(*) AS cnt1, SUM(NumBytes) AS sum1
         WHERE r.SourceAS = b.SourceAS AND r.DestAS = b.DestAS;
      MD USING flow
         COMPUTE COUNT(*) AS cnt2
         WHERE r.SourceAS = b.SourceAS AND r.DestAS = b.DestAS
           AND r.NumBytes >= b.sum1 / b.cnt1;
    )"},
    {"web_vs_total_blocks", R"(
      BASE SELECT DISTINCT SourceAS FROM flow;
      MD USING flow
         COMPUTE COUNT(*) AS web
         WHERE r.SourceAS = b.SourceAS
           AND (r.DestPort = 80 OR r.DestPort = 443)
         COMPUTE COUNT(*) AS total, AVG(NumBytes) AS avg_bytes
         WHERE r.SourceAS = b.SourceAS;
    )"},
    {"filtered_base", R"(
      BASE SELECT DISTINCT DestAS FROM flow WHERE NumPackets > 100;
      MD USING flow
         COMPUTE COUNT(*) AS big_flows, MIN(NumBytes) AS smallest
         WHERE r.DestAS = b.DestAS AND r.NumPackets > 100;
    )"},
    {"three_round_chain", R"(
      BASE SELECT DISTINCT SourceAS FROM flow;
      MD USING flow
         COMPUTE MAX(NumBytes) AS biggest
         WHERE r.SourceAS = b.SourceAS;
      MD USING flow
         COMPUTE COUNT(*) AS at_max
         WHERE r.SourceAS = b.SourceAS AND r.NumBytes = b.biggest;
      MD USING flow
         COMPUTE SUM(NumPackets) AS pkts_at_max
         WHERE r.SourceAS = b.SourceAS AND r.NumBytes = b.biggest;
    )"},
    {"empty_result", R"(
      BASE SELECT DISTINCT SourceAS FROM flow WHERE SourceAS < 0;
      MD USING flow
         COMPUTE COUNT(*) AS c WHERE r.SourceAS = b.SourceAS;
    )"},
    {"non_equi_only", R"(
      BASE SELECT DISTINCT SourcePort FROM flow WHERE SourcePort < 1100;
      MD USING flow
         COMPUTE COUNT(*) AS lower_ports
         WHERE r.SourcePort < b.SourcePort;
    )"},
    {"clerk_low_cardinality", R"(
      BASE SELECT DISTINCT Clerk FROM tpcr;
      MD USING tpcr
         COMPUTE COUNT(*) AS lines, AVG(ExtendedPrice) AS avg_price
         WHERE r.Clerk = b.Clerk;
      MD USING tpcr
         COMPUTE COUNT(*) AS pricey
         WHERE r.Clerk = b.Clerk AND r.ExtendedPrice >= b.avg_price;
    )"},
    {"customer_quantities", R"(
      BASE SELECT DISTINCT CustKey FROM tpcr;
      MD USING tpcr
         COMPUTE COUNT(Quantity) AS big_qty_lines, SUM(Quantity) AS total_qty
         WHERE r.CustKey = b.CustKey AND r.Quantity > 10
         COMPUTE MIN(ShipDate) AS first_ship
         WHERE r.CustKey = b.CustKey;
    )"},
    {"cross_relation_chain", R"(
      BASE SELECT DISTINCT SourceAS FROM flow;
      MD USING flow
         COMPUTE COUNT(*) AS hist_flows, AVG(NumBytes) AS hist_avg
         WHERE r.SourceAS = b.SourceAS;
      MD USING flow_recent
         COMPUTE COUNT(*) AS recent_above
         WHERE r.SourceAS = b.SourceAS AND r.NumBytes >= b.hist_avg;
    )"},
};

bool ExactlyEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (!RowEquals(a.row(r), b.row(r))) return false;
  }
  return true;
}

std::string SiteBinary() {
  const char* env = std::getenv("SKALLA_SITE_BIN");
  if (env != nullptr && env[0] != '\0') return env;
#ifdef SKALLA_SITE_BIN_DEFAULT
  if (std::filesystem::exists(SKALLA_SITE_BIN_DEFAULT)) {
    return SKALLA_SITE_BIN_DEFAULT;
  }
#endif
  return "";
}

/// One spawned skalla-site process, its scraped port, and the pipe that
/// keeps its stdout alive.
struct SiteProcess {
  pid_t pid = -1;
  int port = 0;
  int stdout_fd = -1;
};

/// Spawns `skalla-site --data dir --site index` (plus --drop-request
/// when drop >= 0) and scrapes "LISTENING port=<p>" from its stdout.
SiteProcess SpawnSite(const std::string& binary, const std::string& data_dir,
                      size_t index, int drop = -1) {
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
    if (drop >= 0) {
      std::string drop_arg = std::to_string(drop);
      ::execl(binary.c_str(), binary.c_str(), "--data", data_dir.c_str(),
              "--site", site_arg.c_str(), "--drop-request", drop_arg.c_str(),
              static_cast<char*>(nullptr));
    } else {
      ::execl(binary.c_str(), binary.c_str(), "--data", data_dir.c_str(),
              "--site", site_arg.c_str(), static_cast<char*>(nullptr));
    }
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
  // The child exited (or garbled its announcement) before listening.
  if (out != nullptr) std::fclose(out);
  ::waitpid(pid, nullptr, 0);
  return process;
}

/// Reaps every process, escalating to SIGKILL after a grace period.
void ReapAll(std::vector<SiteProcess>* processes) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(10);
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

class RpcProcessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    binary_ = new std::string(SiteBinary());
    if (binary_->empty()) return;

    char dir_template[] = "/tmp/skalla_rpc_test_XXXXXX";
    char* dir = ::mkdtemp(dir_template);
    ASSERT_NE(dir, nullptr);
    data_dir_ = new std::string(dir);

    // The query_suite data sets, partitioned over four sites.
    FlowConfig flow_config;
    flow_config.num_flows = 4000;
    flow_config.num_routers = 5;
    flow_config.num_as = 30;
    TpcrConfig tpcr_config;
    tpcr_config.num_rows = 6000;
    tpcr_config.num_customers = 500;
    tpcr_config.num_clerks = 40;
    FlowConfig recent_config = flow_config;
    recent_config.seed = 99;
    recent_config.num_flows = 2500;

    warehouse_ = new DistributedWarehouse(kSites);
    warehouse_
        ->AddTablePartitionedBy(
            "flow", GenerateFlows(flow_config), "RouterId",
            {"SourceAS", "DestAS", "DestPort", "SourcePort", "NumBytes",
             "NumPackets"})
        .Check();
    warehouse_
        ->AddTablePartitionedBy(
            "tpcr", GenerateTpcr(tpcr_config), "NationKey",
            {"CustKey", "CustName", "Clerk", "MktSegment", "OrderPriority",
             "Quantity", "ExtendedPrice"})
        .Check();
    warehouse_
        ->AddTablePartitionedBy("flow_recent", GenerateFlows(recent_config),
                                "RouterId", {"SourceAS", "NumBytes"})
        .Check();
    warehouse_->Save(*data_dir_).Check();
  }

  static void TearDownTestSuite() {
    delete warehouse_;
    warehouse_ = nullptr;
    if (data_dir_ != nullptr) {
      std::error_code ec;
      std::filesystem::remove_all(*data_dir_, ec);
    }
    delete data_dir_;
    data_dir_ = nullptr;
    delete binary_;
    binary_ = nullptr;
  }

  // Spawns the whole cluster; empty vector (after reap) means failure.
  static std::vector<SiteProcess> SpawnCluster(
      const std::vector<int>& drops = {}) {
    std::vector<SiteProcess> processes;
    for (size_t i = 0; i < kSites; ++i) {
      int drop = i < drops.size() ? drops[i] : -1;
      SiteProcess process = SpawnSite(*binary_, *data_dir_, i, drop);
      processes.push_back(process);
      if (process.pid < 0) {
        ReapAll(&processes);
        processes.clear();
        break;
      }
    }
    return processes;
  }

  static std::vector<rpc::SiteEndpoint> Endpoints(
      const std::vector<SiteProcess>& processes) {
    std::vector<rpc::SiteEndpoint> endpoints;
    for (const SiteProcess& process : processes) {
      endpoints.push_back({"127.0.0.1", process.port});
    }
    return endpoints;
  }

  static std::string* binary_;
  static std::string* data_dir_;
  static DistributedWarehouse* warehouse_;
};

std::string* RpcProcessTest::binary_ = nullptr;
std::string* RpcProcessTest::data_dir_ = nullptr;
DistributedWarehouse* RpcProcessTest::warehouse_ = nullptr;

TEST_F(RpcProcessTest, FullQuerySuiteIsByteIdenticalAcrossProcesses) {
  if (binary_->empty()) {
    GTEST_SKIP() << "skalla-site binary not found (set SKALLA_SITE_BIN)";
  }
  std::vector<SiteProcess> processes = SpawnCluster();
  ASSERT_EQ(processes.size(), kSites) << "failed to spawn site processes";

  {
    rpc::RpcExecutor executor(
        std::make_unique<rpc::TcpTransport>(Endpoints(processes)),
        ExecutorOptions{});
    for (const QueryCase& q : kQueries) {
      SCOPED_TRACE(q.name);
      GmdjExpr expr = ParseQuery(q.text).ValueOrDie();
      for (const OptimizerOptions& opts :
           {OptimizerOptions::None(), OptimizerOptions::All()}) {
        SCOPED_TRACE(opts.ToString());
        DistributedPlan plan = warehouse_->Plan(expr, opts).ValueOrDie();

        ExecStats star_stats;
        Table expected =
            warehouse_->ExecutePlan(plan, &star_stats).ValueOrDie();

        ExecStats stats;
        auto result = executor.Execute(plan, &stats);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_TRUE(ExactlyEqual(*result, expected))
            << "expected:\n"
            << expected.ToString(30) << "actual:\n"
            << result->ToString(30);

        ASSERT_EQ(stats.rounds.size(), star_stats.rounds.size());
        for (size_t r = 0; r < stats.rounds.size(); ++r) {
          SCOPED_TRACE(star_stats.rounds[r].label);
          EXPECT_EQ(stats.rounds[r].bytes_to_sites,
                    star_stats.rounds[r].bytes_to_sites);
          EXPECT_EQ(stats.rounds[r].bytes_to_coord,
                    star_stats.rounds[r].bytes_to_coord);
          EXPECT_EQ(stats.rounds[r].tuples_to_sites,
                    star_stats.rounds[r].tuples_to_sites);
          EXPECT_EQ(stats.rounds[r].tuples_to_coord,
                    star_stats.rounds[r].tuples_to_coord);
          EXPECT_EQ(stats.rounds[r].sites_skipped,
                    star_stats.rounds[r].sites_skipped);
        }
      }
    }
    EXPECT_TRUE(executor.Shutdown().ok());
  }
  ReapAll(&processes);
}

TEST_F(RpcProcessTest, TraceAndProfilesSpanTheProcessBoundary) {
  // The tentpole end-to-end check: a query against real site processes
  // yields (a) RoundProfiles whose byte/row totals reconcile exactly
  // with the coordinator-observed RoundStats, and (b) — in tracing
  // builds — one merged trace where every site-origin span lives in its
  // own process lane and site.round spans are parented under the
  // coordinator rpc.round spans that issued them.
  if (binary_->empty()) {
    GTEST_SKIP() << "skalla-site binary not found (set SKALLA_SITE_BIN)";
  }
  GmdjExpr expr = ParseQuery(kQueries[1].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::None()).ValueOrDie();

  std::vector<SiteProcess> processes = SpawnCluster();
  ASSERT_EQ(processes.size(), kSites) << "failed to spawn site processes";

  const bool tracing = obs::TracingCompiledIn();
  if (tracing) {
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().set_enabled(true);
  }
  {
    rpc::RpcExecutor executor(
        std::make_unique<rpc::TcpTransport>(Endpoints(processes)),
        ExecutorOptions{});
    ExecStats stats;
    auto result = executor.Execute(plan, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // (a) Profile totals vs RoundStats, byte-for-byte and row-for-row.
    EXPECT_GT(stats.query_id, 0u);
    uint64_t round_wire = 0;
    for (const RoundStats& rs : stats.rounds) {
      SCOPED_TRACE(rs.label);
      round_wire += rs.wire_bytes;
      ASSERT_EQ(rs.site_profiles.size(), kSites);
      uint64_t bytes_in = 0;
      uint64_t bytes_out = 0;
      uint64_t result_rows = 0;
      for (const SiteRoundProfile& p : rs.site_profiles) {
        bytes_in += p.bytes_in;
        bytes_out += p.bytes_out;
        result_rows += p.result_rows;
      }
      EXPECT_EQ(bytes_in, rs.bytes_to_sites);
      if (rs.synchronized) {
        EXPECT_EQ(bytes_out, rs.bytes_to_coord);
        EXPECT_EQ(result_rows, rs.tuples_to_coord);
      }
      EXPECT_GT(rs.wire_bytes, rs.bytes_to_sites + rs.bytes_to_coord);
    }
    // No frame outside the rounds counts: the query's wire total is
    // exactly the sum of its rounds.
    EXPECT_EQ(stats.total_wire_bytes, round_wire);

    // (b) The merged trace crosses the process boundary.
    if (tracing) {
      std::vector<obs::TraceEvent> events = obs::Tracer::Global().Snapshot();
      std::set<uint64_t> local_ids;
      std::set<uint64_t> rpc_round_ids;
      std::set<uint32_t> pids;
      for (const obs::TraceEvent& e : events) {
        if (e.id != 0) local_ids.insert(e.id);
        pids.insert(e.pid);
        if (e.pid == 1 && e.name == "rpc.round") rpc_round_ids.insert(e.id);
      }
      EXPECT_GE(pids.size(), 1 + kSites)
          << "expected a coordinator lane plus one lane per site";
      ASSERT_FALSE(rpc_round_ids.empty());
      size_t site_rounds = 0;
      for (const obs::TraceEvent& e : events) {
        if (e.pid == 1) continue;
        // No unparented remote spans: every import either grafts to the
        // issuing rpc.round or hangs off another imported span.
        ASSERT_NE(e.parent_id, 0u) << e.name;
        EXPECT_TRUE(local_ids.count(e.parent_id) > 0) << e.name;
        if (e.name.rfind("site.round:", 0) == 0) {
          ++site_rounds;
          EXPECT_TRUE(rpc_round_ids.count(e.parent_id) > 0)
              << e.name << " not parented under a coordinator rpc.round";
        }
      }
      // One site.round per site per round (base + two GMDJ stages).
      EXPECT_EQ(site_rounds, kSites * stats.rounds.size());
    }
    EXPECT_TRUE(executor.Shutdown().ok());
  }
  if (tracing) {
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().set_enabled(false);
  }
  ReapAll(&processes);
}

TEST_F(RpcProcessTest, MidRoundDropIsSurvivedAcrossProcesses) {
  if (binary_->empty()) {
    GTEST_SKIP() << "skalla-site binary not found (set SKALLA_SITE_BIN)";
  }
  GmdjExpr expr = ParseQuery(kQueries[1].text).ValueOrDie();
  DistributedPlan plan =
      warehouse_->Plan(expr, OptimizerOptions::None()).ValueOrDie();
  Table expected = warehouse_->ExecutePlan(plan, nullptr).ValueOrDie();

  // Site 2 hangs up instead of answering its 4th request — the first
  // GMDJ round, after catalog probe, begin-plan, and base round.
  std::vector<int> drops(kSites, -1);
  drops[2] = 3;
  std::vector<SiteProcess> processes = SpawnCluster(drops);
  ASSERT_EQ(processes.size(), kSites) << "failed to spawn site processes";

  {
    ExecutorOptions options;
    options.max_site_retries = 2;
    rpc::RpcExecutor executor(
        std::make_unique<rpc::TcpTransport>(Endpoints(processes)), options);
    ExecStats stats;
    auto result = executor.Execute(plan, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(ExactlyEqual(*result, expected));
    size_t total_retries = 0;
    for (const RoundStats& r : stats.rounds) {
      total_retries += r.site_retries;
    }
    EXPECT_EQ(total_retries, 1u);
    EXPECT_TRUE(executor.Shutdown().ok());
  }
  ReapAll(&processes);
}

}  // namespace
}  // namespace skalla

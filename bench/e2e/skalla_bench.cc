// skalla-bench: the end-to-end benchmark. It measures the system the way
// `skalla-coord --endpoints` runs it: four skalla-site processes serve a
// chunked TPC-R warehouse over TCP, and closed-loop clients in this
// process submit Skalla queries through one serve::QuerySession opened
// with skalla-coord's default SessionOptions. Every request takes the
// public path ParseQuery -> session.Plan -> session.SubmitPlan ->
// future.get().
//
//   skalla-bench [--workload=adhoc|dashboard|paged|ingest|all] [--seed=N]
//                [--seconds=S] [--traced] [--smoke] [--work-dir=DIR]
//                [--json-out=F]
//
// Per workload (README.md gives the reasons for each):
//   1. Write the warehouse from --seed through the public storage API
//      (PartitionByValue on NationKey, WriteChunkFile per site,
//      PartitionInfo + WriteChunkedWarehouseMeta): bytes stored per row.
//   2. Set up three times — spawn 4 sites, wait for LISTENING, open the
//      session, run one warm-up query per template — and keep the third
//      cluster: setup_s is the median.
//   3. Run the closed loop for --seconds; with --traced the tracer is
//      switched on for every other half-second slice, giving the per-layer
//      numbers, the trace file, and trace_overhead (untraced / traced qps).
//   4. Check correctness: every execution of a query instance must
//      serialize to the same bytes as its first execution, the first 16
//      instances run must match centralized evaluation on a lazy Load of
//      the same directory, and `ingest` reads its last written warehouse
//      back and byte-compares it with the rows it wrote.
//
// Human-readable tables go to stdout; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics,
// or with --traced the per-layer metrics. Exits 1 when any request failed
// or any check found a wrong result.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/eval_context.h"
#include "data/tpcr_gen.h"
#include "dist/warehouse.h"
#include "net/serde.h"
#include "obs/trace.h"
#include "rpc/rpc_executor.h"
#include "serve/session.h"
#include "sql/parser.h"
#include "storage/chunk_file.h"
#include "storage/data_provider.h"
#include "storage/partition.h"

namespace skalla {
namespace {

constexpr size_t kSites = 4;
constexpr size_t kGateInstances = 16;
const std::vector<std::string> kTracked = {
    "CustKey",       "CustName", "Clerk",         "MktSegment",
    "OrderPriority", "Quantity", "ExtendedPrice", "NationKey"};

// Data sizes. The full scale is sized so one uncached query takes tens of
// milliseconds on a 4-core box; paged_buffer_bytes sits below every
// site's resident partition, so `paged` pages chunks on every scan.
struct Scale {
  int64_t rows;
  int64_t customers;
  int64_t clerks;
  uint64_t paged_buffer_bytes;
  int64_t ingest_rows;  // rows per writer cycle in `ingest`
  int setup_repeats;
};
constexpr Scale kFullScale{120000, 6000, 500, 2ull << 20, 30000, 3};
constexpr Scale kSmokeScale{6000, 300, 40, 64ull << 10, 3000, 1};

enum class Pool { kAdhoc, kDashboard, kPaged };

struct Workload {
  const char* name;
  size_t clients;
  Pool pool;
  bool use_cache;
  bool paged;   // sites run at Scale::paged_buffer_bytes, else unlimited
  bool writer;  // one writer thread rewrites a staging warehouse
};

// paged runs 4 clients: with every site busy its throughput varies about
// a third as much from run to run as with 2 on a shared 4-vCPU host.
const Workload kWorkloads[] = {
    {"adhoc", 1, Pool::kAdhoc, false, false, false},
    {"dashboard", 4, Pool::kDashboard, true, false, false},
    {"paged", 4, Pool::kPaged, false, true, false},
    {"ingest", 2, Pool::kAdhoc, false, false, true},
};

// ---- Query pools -----------------------------------------------------------

enum Template {
  kCorrelated,
  kCoalescable,
  kReport,
  kPrunedReport,
  kScanReport
};

struct Instance {
  std::string text;
  Template kind;
};

const std::vector<std::vector<std::string>> kGroupings = {
    {"Clerk"}, {"CustKey"}, {"CustName"}, {"MktSegment", "OrderPriority"}};

std::string KeyMatch(const std::vector<std::string>& keys) {
  std::vector<std::string> atoms;
  for (const std::string& k : keys) {
    atoms.push_back(StrCat("r.", k, " = b.", k));
  }
  return Join(atoms, " AND ");
}

// One seeded instance of a template over the grouping `keys`.
std::string Render(Template kind, const std::vector<std::string>& keys,
                   const Scale& scale, Random* rng) {
  const std::string base =
      StrCat("BASE SELECT DISTINCT ", Join(keys, ", "), " FROM tpcr;\n");
  const std::string match = KeyMatch(keys);
  switch (kind) {
    case kCorrelated:  // three GMDJs, the second correlated on the first
      return StrCat(
          base,
          "MD USING tpcr COMPUTE COUNT(*) AS cnt1, AVG(Quantity) AS avg1 "
          "WHERE ", match, ";\n",
          "MD USING tpcr COMPUTE COUNT(*) AS cnt2, AVG(ExtendedPrice) AS avg2 "
          "WHERE ", match, " AND r.Quantity >= b.avg1;\n",
          "MD USING tpcr COMPUTE COUNT(*) AS cnt3 WHERE ", match,
          " AND r.Discount <= ",
          StrPrintf("%.2f", static_cast<double>(rng->UniformInt(1, 9)) / 100),
          " AND r.OrderDate >= ", rng->UniformInt(0, 1800), ";\n");
    case kCoalescable: {  // two independent GMDJs: one round once coalesced
      const int64_t from = rng->UniformInt(0, 2100);
      return StrCat(
          base,
          "MD USING tpcr COMPUTE COUNT(*) AS cnt1, SUM(ExtendedPrice) AS rev1 "
          "WHERE ", match, " AND r.OrderDate >= ", from,
          " AND r.OrderDate < ", from + 365, ";\n",
          "MD USING tpcr COMPUTE COUNT(*) AS cnt2, MAX(Quantity) AS maxq "
          "WHERE ", match, " AND r.Quantity >= ", rng->UniformInt(5, 45),
          ";\n");
    }
    case kReport:
      return StrCat(
          base,
          "MD USING tpcr COMPUTE COUNT(*) AS cnt, SUM(ExtendedPrice) AS "
          "revenue, AVG(Discount) AS avgdisc WHERE ", match,
          " AND r.ShipDate >= ", rng->UniformInt(0, 2400), ";\n");
    case kPrunedReport: {  // OrderKey grows with the row: chunk stats prune
      const int64_t orders = scale.rows * 2 / 5;  // ~2.5 lines per order
      const int64_t width = orders / 10;
      const int64_t from = rng->UniformInt(1, orders - width);
      return StrCat(
          base,
          "MD USING tpcr COMPUTE COUNT(*) AS cnt, SUM(ExtendedPrice) AS "
          "revenue WHERE ", match, " AND r.OrderKey >= ", from,
          " AND r.OrderKey < ", from + width, ";\n");
    }
    case kScanReport:
      return StrCat(
          base,
          "MD USING tpcr COMPUTE COUNT(*) AS cnt, AVG(Quantity) AS avgq "
          "WHERE ", match, " AND r.Discount >= ",
          StrPrintf("%.2f", static_cast<double>(rng->UniformInt(0, 8)) / 100),
          ";\n");
  }
  return "";
}

// A workload's query instances and the order requests take them in
// (clients share one cursor, wrapping at the end).
struct Inputs {
  std::vector<Instance> pool;
  std::vector<uint32_t> sequence;
};

// dashboard: 200 popular instances drawn Zipf(s = 1) through a seeded
// permutation, and with probability 1/4 a never-repeated drill-down
// instead. The fresh share keeps the miss share near 25% however long the
// window runs; over a fixed pool it would fall as the cache warms, moving
// the latency tail between the hit and the miss populations.
constexpr size_t kHotInstances = 200;
constexpr double kFreshShare = 0.25;
constexpr size_t kDashboardSequence = 40000;

Inputs MakeInputs(Pool pool, const Scale& scale, uint64_t seed) {
  Random rng(seed * 7919 + static_cast<uint64_t>(pool) + 1);
  Inputs in;
  // Instance i is template i % 3 over grouping (i / 3) % 4, so any 12
  // consecutive instances cover every (template, grouping) pair.
  auto add = [&] {
    const size_t i = in.pool.size();
    Template kind = static_cast<Template>(i % 3);
    in.pool.push_back(
        {Render(kind, kGroupings[(i / 3) % 4], scale, &rng), kind});
    return static_cast<uint32_t>(i);
  };
  switch (pool) {
    case Pool::kPaged:
      for (uint32_t i = 0; i < 16; ++i) {
        Template kind = i % 2 == 0 ? kPrunedReport : kScanReport;
        const auto& keys =
            kind == kPrunedReport ? kGroupings[0] : kGroupings[3];
        in.pool.push_back({Render(kind, keys, scale, &rng), kind});
        in.sequence.push_back(i);
      }
      break;
    case Pool::kAdhoc:
      for (size_t i = 0; i < 36; ++i) in.sequence.push_back(add());
      break;
    case Pool::kDashboard: {
      std::vector<uint32_t> by_rank;
      for (size_t i = 0; i < kHotInstances; ++i) by_rank.push_back(add());
      rng.Shuffle(&by_rank);
      for (size_t i = 0; i < kDashboardSequence; ++i) {
        in.sequence.push_back(rng.Bernoulli(kFreshShare)
                                  ? add()
                                  : by_rank[rng.Zipf(kHotInstances, 1.0)]);
      }
      break;
    }
  }
  return in;
}

// ---- Warehouse writes -------------------------------------------------------

struct WriteCost {
  double write_s = 0;  // partition + chunk files
  double stats_s = 0;  // distribution knowledge + MANIFEST/STATS
  uint64_t bytes = 0;  // everything in the directory afterwards
  std::vector<size_t> site_rows;
};

// Writes `rows` as a 4-site chunked warehouse under `dir`, partitioned by
// NationKey hash exactly like skalla-dataset --chunked.
Result<WriteCost> WriteWarehouse(const Table& rows, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError(StrCat("cannot create ", dir));
  WriteCost cost;
  std::vector<Table> parts;
  {
    obs::Span span =
        obs::Tracer::Global().StartSpan("bench.ingest.write", "bench");
    Stopwatch timer;
    SKALLA_ASSIGN_OR_RETURN(parts, PartitionByValue(rows, "NationKey", kSites));
    for (size_t i = 0; i < kSites; ++i) {
      SKALLA_RETURN_NOT_OK(
          WriteChunkFile(parts[i], PartitionChunkPath(dir, "tpcr", i)));
      cost.site_rows.push_back(parts[i].num_rows());
    }
    cost.write_s = timer.ElapsedSeconds();
  }
  {
    obs::Span span =
        obs::Tracer::Global().StartSpan("bench.ingest.stats", "bench");
    Stopwatch timer;
    SKALLA_ASSIGN_OR_RETURN(
        PartitionInfo info,
        PartitionInfo::ComputeFromPartitions(parts, kTracked));
    SKALLA_RETURN_NOT_OK(WriteChunkedWarehouseMeta(
        dir, kSites, {{"tpcr", kTracked}}, {{"tpcr", std::move(info)}}));
    cost.stats_s = timer.ElapsedSeconds();
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    cost.bytes += entry.file_size();
  }
  return cost;
}

// The storage layer never fsyncs, so this is a read-back check of what
// the writer left in the page cache, not a crash test: every site's
// partition, loaded the way skalla-site loads it, must serialize to the
// same bytes as the rows routed to it.
Result<size_t> ReadBackMismatches(const Table& rows, const std::string& dir) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<Table> parts,
                          PartitionByValue(rows, "NationKey", kSites));
  size_t mismatches = 0;
  for (size_t i = 0; i < kSites; ++i) {
    SKALLA_ASSIGN_OR_RETURN(Catalog catalog, LoadSiteCatalog(dir, i));
    SKALLA_ASSIGN_OR_RETURN(const DataProvider* provider,
                            catalog.GetProvider("tpcr"));
    SKALLA_ASSIGN_OR_RETURN(Table back, MaterializeProvider(*provider));
    std::vector<uint8_t> want, got;
    WriteTable(parts[i], &want);
    WriteTable(back, &got);
    if (want != got) ++mismatches;
  }
  return mismatches;
}

// ---- Site processes ---------------------------------------------------------

struct SiteProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
  int port = 0;
};

// Four skalla-site processes. The destructor kills and reaps any still
// running, so no exit path leaves one behind.
class Cluster {
 public:
  Cluster() = default;
  ~Cluster() { Stop(/*graceful=*/false); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Status Start(const std::string& site_bin, const std::string& data_dir,
               uint64_t buffer_bytes) {
    for (size_t i = 0; i < kSites; ++i) {
      SKALLA_RETURN_NOT_OK(Spawn(site_bin, data_dir, i, buffer_bytes));
    }
    return Status::OK();
  }

  std::vector<rpc::SiteEndpoint> endpoints() const {
    std::vector<rpc::SiteEndpoint> out;
    for (const SiteProcess& s : sites_) out.push_back({"127.0.0.1", s.port});
    return out;
  }

  // Sum of the sites' peak resident set (VmHWM), in bytes.
  uint64_t PeakRssBytes() const {
    uint64_t total = 0;
    for (const SiteProcess& s : sites_) {
      std::ifstream status(StrCat("/proc/", s.pid, "/status"));
      std::string line;
      while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
          total += std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
        }
      }
    }
    return total;
  }

  // Reaps every site; graceful waits up to 10 s for sites already asked
  // to exit (kShutdown) before killing them.
  void Stop(bool graceful) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(graceful ? 10 : 0);
    for (SiteProcess& s : sites_) {
      while (s.pid > 0) {
        pid_t done = ::waitpid(s.pid, nullptr, WNOHANG);
        if (done == s.pid || done < 0) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          ::kill(s.pid, SIGKILL);
          ::waitpid(s.pid, nullptr, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (s.stdout_fd >= 0) ::close(s.stdout_fd);
    }
    sites_.clear();
  }

 private:
  Status Spawn(const std::string& bin, const std::string& data, size_t index,
               uint64_t buffer_bytes) {
    std::vector<std::string> args = {
        bin,    "--data", data, "--site", std::to_string(index), "--port", "0",
        "--buffer-bytes", std::to_string(buffer_bytes)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return Status::IOError("pipe failed");
    const pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status::IOError("fork failed");
    }
    if (pid == 0) {
      // Die with skalla-bench, so a killed benchmark leaves no site behind.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    sites_.push_back({pid, fds[0], 0});
    // Scrape "LISTENING port=<p>", giving up after 60 s.
    std::string line;
    while (true) {
      pollfd pfd{fds[0], POLLIN, 0};
      char c = 0;
      if (::poll(&pfd, 1, 60000) <= 0 || ::read(fds[0], &c, 1) != 1) {
        return Status::IOError(StrCat("site ", index, " did not start"));
      }
      if (c != '\n') {
        line.push_back(c);
        continue;
      }
      if (std::sscanf(line.c_str(), "LISTENING port=%d", &sites_.back().port) ==
          1) {
        return Status::OK();
      }
      line.clear();
    }
  }

  std::vector<SiteProcess> sites_;
};

// A running cluster and the session over it. Shutdown asks the sites to
// exit, closes the session, and reaps the processes.
struct Served {
  Cluster cluster;
  std::optional<serve::QuerySession> session;

  ~Served() { Shutdown(); }

  void Shutdown() {
    const bool asked = session.has_value() &&
                       session->rpc_executor()->Shutdown().ok();
    session.reset();
    cluster.Stop(asked);
  }
};

// Counter or gauge `name` from a MetricsRegistry JSON dump (0 if absent).
double ScrapeMetric(const std::string& json, const std::string& name) {
  const std::string key = StrCat("\"", name, "\": ");
  size_t pos = json.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtod(json.c_str() + pos + key.size(), nullptr);
}

struct SiteCounters {
  double hits = 0, misses = 0, evictions = 0, pruned = 0, resident_bytes = 0;
};

Result<SiteCounters> PullSiteCounters(serve::QuerySession& session) {
  obs::Span span = obs::Tracer::Global().StartSpan("bench.site_stats", "bench");
  SiteCounters total;
  for (size_t i = 0; i < kSites; ++i) {
    SKALLA_ASSIGN_OR_RETURN(rpc::StatsResult stats,
                            session.rpc_executor()->SiteStats(i));
    const std::string& json = stats.metrics_json;
    total.hits += ScrapeMetric(json, "skalla.storage.buffer.hit");
    total.misses += ScrapeMetric(json, "skalla.storage.buffer.miss");
    total.evictions += ScrapeMetric(json, "skalla.storage.buffer.evict");
    total.pruned += ScrapeMetric(json, "skalla.storage.chunks_pruned");
    total.resident_bytes +=
        ScrapeMetric(json, "skalla.storage.buffer.resident_bytes");
  }
  return total;
}

// ---- Requests ---------------------------------------------------------------

// One request's timings and the layer accounting its ExecStats carry.
struct Sample {
  double latency_ms = 0;
  double parse_us = 0;
  double plan_us = 0;
  bool from_cache = false;
  bool traced = false;  // the tracer was on when it completed
  // Executed (not cached) requests only:
  double wait_ms = 0;  // execute time not covered by any round
  double fanout_wait_ms = 0;
  double transport_ms = 0;
  double coord_ms = 0;
  double eval_ms = 0;
  double eval_critical_ms = 0;
  double rounds = 0;
  double bytes_to_coord = 0;
  double bytes_to_sites = 0;
  double wire_bytes = 0;
  double sites_skipped = 0;
  double rows_scanned = 0;
  double rows_matched = 0;
  double site_rounds = 0;
  double columnar_rounds = 0;
};

struct Answer {
  Status status;
  Table table;
  Sample sample;
};

Answer Request(serve::QuerySession& session, const std::string& text,
               bool use_cache, std::vector<double>* skews) {
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::Span request = tracer.StartSpan("bench.request", "bench");
  Answer answer;
  Sample& s = answer.sample;
  Stopwatch total;

  Stopwatch phase;
  obs::Span parse_span = tracer.StartSpan("bench.parse", "bench");
  Result<GmdjExpr> expr = ParseQuery(text);
  parse_span.End();
  s.parse_us = phase.ElapsedSeconds() * 1e6;
  if (!expr.ok()) {
    answer.status = expr.status();
    return answer;
  }

  phase.Reset();
  obs::Span plan_span = tracer.StartSpan("bench.plan", "bench");
  Result<DistributedPlan> plan = session.Plan(*expr);
  plan_span.End();
  s.plan_us = phase.ElapsedSeconds() * 1e6;
  if (!plan.ok()) {
    answer.status = plan.status();
    return answer;
  }

  phase.Reset();
  obs::Span execute_span = tracer.StartSpan("bench.execute", "bench");
  serve::QueryOptions options;
  options.use_cache = use_cache;
  Result<serve::QueryResult> result =
      session.SubmitPlan(std::move(*plan), options).result.get();
  execute_span.End();
  const double execute_ms = phase.ElapsedSeconds() * 1e3;
  s.latency_ms = total.ElapsedSeconds() * 1e3;
  s.traced = tracer.enabled();
  if (!result.ok()) {
    answer.status = result.status();
    return answer;
  }

  const ExecStats& stats = result->stats;
  s.from_cache = stats.from_cache;
  double round_wall_ms = 0, site_time_ms = 0, profile_wall_ms = 0;
  for (const RoundStats& r : stats.rounds) {
    round_wall_ms += r.wall_time * 1e3;
    site_time_ms += r.site_time_sum * 1e3;
    s.fanout_wait_ms += (r.site_time_sum - r.site_time_max) * 1e3;
    s.coord_ms += r.coord_time * 1e3;
    s.bytes_to_coord += static_cast<double>(r.bytes_to_coord);
    s.bytes_to_sites += static_cast<double>(r.bytes_to_sites);
    s.sites_skipped += static_cast<double>(r.sites_skipped);
    double eval_sum = 0, eval_max = 0;
    for (const SiteRoundProfile& p : r.site_profiles) {
      const double eval = static_cast<double>(p.eval_us) / 1e3;
      profile_wall_ms += static_cast<double>(p.wall_us) / 1e3;
      eval_sum += eval;
      eval_max = std::max(eval_max, eval);
      s.rows_scanned += static_cast<double>(p.rows_scanned);
      s.rows_matched += static_cast<double>(p.rows_matched);
      s.site_rounds += 1;
      if (p.engines_used & kEngineBitColumnar) s.columnar_rounds += 1;
    }
    s.eval_ms += eval_sum;
    s.eval_critical_ms += eval_max;
    if (eval_sum > 0) {
      skews->push_back(eval_max * static_cast<double>(r.site_profiles.size()) /
                       eval_sum);
    }
  }
  s.rounds = static_cast<double>(stats.rounds.size());
  s.wait_ms = execute_ms - round_wall_ms;
  s.transport_ms = site_time_ms - profile_wall_ms;
  s.wire_bytes = static_cast<double>(stats.total_wire_bytes);
  answer.table = std::move(result->table);
  return answer;
}

// Per-instance reference results: the serialized-bytes hash of each
// instance's first execution, and the first tables of the instances the
// centralized gate re-checks.
class References {
 public:
  References(size_t pool_size, std::vector<uint32_t> gate)
      : hashes_(pool_size), gate_(std::move(gate)) {}

  // False when `table` differs from the instance's first execution.
  bool Check(uint32_t instance, const Table& table) {
    std::vector<uint8_t> bytes;
    WriteTable(table, &bytes);
    const uint64_t hash = HashBytes(bytes.data(), bytes.size());
    std::lock_guard<std::mutex> lock(mu_);
    if (hashes_[instance].has_value()) return *hashes_[instance] == hash;
    hashes_[instance] = hash;
    if (std::find(gate_.begin(), gate_.end(), instance) != gate_.end()) {
      gate_tables_.emplace(instance, table);
    }
    return true;
  }

  const std::map<uint32_t, Table>& gate_tables() const { return gate_tables_; }

 private:
  std::mutex mu_;
  std::vector<std::optional<uint64_t>> hashes_;
  const std::vector<uint32_t> gate_;
  std::map<uint32_t, Table> gate_tables_;
};

// What one client (or the warm-up) observed.
struct ClientLog {
  std::vector<Sample> samples;
  std::vector<double> skews;
  size_t attempted = 0;
  size_t errors = 0;
  size_t wrong = 0;
};

void RunInstance(serve::QuerySession& session,
                 const std::vector<Instance>& pool, uint32_t instance,
                 bool use_cache, References* refs, ClientLog* log) {
  ++log->attempted;
  Answer answer = Request(session, pool[instance].text, use_cache, &log->skews);
  if (!answer.status.ok()) {
    ++log->errors;
    std::fprintf(stderr, "request failed: %s\n",
                 answer.status.ToString().c_str());
    return;
  }
  if (!refs->Check(instance, answer.table)) ++log->wrong;
  log->samples.push_back(answer.sample);
}

struct WriterLog {
  size_t cycles = 0;
  size_t errors = 0;
  double rows = 0;
  double write_s = 0;
  double stats_s = 0;
  double wall_s = 0;
};

// ---- Statistics -------------------------------------------------------------

// Nearest-rank percentile of `values` (q in (0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Shortest decimal that reads back as exactly `value`.
std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;
  return std::string(buf, end);
}

// ---- One workload -----------------------------------------------------------

struct Options {
  uint64_t seed = 42;
  double seconds = 0;
  bool traced = false;
  Scale scale = kFullScale;
  std::string work_dir;
  std::string site_bin;
};

struct WorkloadResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
};

Status RunWorkload(const Options& opt, const Workload& w, WorkloadResult* out) {
  const Scale& scale = opt.scale;
  const std::string dir = StrCat(opt.work_dir, "/", w.name);
  const std::string data_dir = dir + "/warehouse";
  const std::string staging_dir = dir + "/staging";
  std::filesystem::remove_all(dir);

  // 1. The served warehouse.
  TpcrConfig config;
  config.seed = opt.seed;
  config.num_rows = scale.rows;
  config.num_customers = scale.customers;
  config.num_clerks = scale.clerks;
  SKALLA_ASSIGN_OR_RETURN(const WriteCost written,
                          WriteWarehouse(GenerateTpcr(config), data_dir));

  const Inputs inputs = MakeInputs(w.pool, scale, opt.seed);
  const std::vector<Instance>& pool = inputs.pool;
  const std::vector<uint32_t>& sequence = inputs.sequence;
  std::vector<uint32_t> gate;
  for (size_t i = 0; i < sequence.size() && gate.size() < kGateInstances; ++i) {
    if (std::find(gate.begin(), gate.end(), sequence[i]) == gate.end()) {
      gate.push_back(sequence[i]);
    }
  }
  std::vector<uint32_t> warmup;  // the first instance of each template
  for (uint32_t i = 0; i < pool.size(); ++i) {
    bool seen = false;
    for (uint32_t j : warmup) seen = seen || pool[j].kind == pool[i].kind;
    if (!seen) warmup.push_back(i);
  }
  References refs(pool.size(), gate);
  ClientLog warm_log;

  // 2. Set up repeatedly; the last cluster serves the timed window.
  const uint64_t buffer_bytes = w.paged ? scale.paged_buffer_bytes : 0;
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < scale.setup_repeats; ++rep) {
    served.reset();
    served = std::make_unique<Served>();
    Stopwatch timer;
    SKALLA_RETURN_NOT_OK(
        served->cluster.Start(opt.site_bin, data_dir, buffer_bytes));
    SKALLA_ASSIGN_OR_RETURN(
        serve::QuerySession session,
        serve::QuerySession::Open(served->cluster.endpoints(),
                                  serve::SessionOptions{}));
    served->session.emplace(std::move(session));
    for (uint32_t i : warmup) {
      RunInstance(*served->session, pool, i, /*use_cache=*/false, &refs,
                  &warm_log);
    }
    setup_s.push_back(timer.ElapsedSeconds());
  }
  if (warm_log.errors + warm_log.wrong > 0) {
    return Status::Internal(StrCat(w.name, ": warm-up queries failed"));
  }
  serve::QuerySession& session = *served->session;

  // 3. The timed window.
  Table ingest_rows;
  if (w.writer) {
    TpcrConfig ingest_config = config;
    ingest_config.seed = opt.seed + 1;
    ingest_config.num_rows = scale.ingest_rows;
    ingest_rows = GenerateTpcr(ingest_config);
  }
  const serve::CacheStats cache_before = session.scheduler().cache().stats();
  SKALLA_ASSIGN_OR_RETURN(SiteCounters sites_before, PullSiteCounters(session));
  std::atomic<bool> stop{false};
  std::atomic<size_t> next{0};
  std::vector<ClientLog> logs(w.clients);
  WriterLog writer_log;
  Stopwatch window;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      while (!stop.load()) {
        const size_t i = next.fetch_add(1);
        RunInstance(session, pool, sequence[i % sequence.size()], w.use_cache,
                    &refs, &logs[c]);
      }
    });
  }
  if (w.writer) {
    threads.emplace_back([&] {
      Stopwatch wall;
      while (!stop.load()) {
        Result<WriteCost> cost = WriteWarehouse(ingest_rows, staging_dir);
        if (!cost.ok()) {
          ++writer_log.errors;
          std::fprintf(stderr, "ingest write failed: %s\n",
                       cost.status().ToString().c_str());
          break;
        }
        ++writer_log.cycles;
        writer_log.rows += static_cast<double>(ingest_rows.num_rows());
        writer_log.write_s += cost->write_s;
        writer_log.stats_s += cost->stats_s;
      }
      writer_log.wall_s = wall.ElapsedSeconds();
    });
  }
  // Traced runs alternate half-second slices with the tracer off and on;
  // the two phases' throughputs give the tracing overhead.
  double phase_s[2] = {0, 0};
  const double slice = opt.traced ? 0.5 : opt.seconds;
  for (bool on = false; window.ElapsedSeconds() < opt.seconds; on = !on) {
    const double begin = window.ElapsedSeconds();
    obs::Tracer::Global().set_enabled(opt.traced && on);
    const double end = std::min(opt.seconds, begin + slice);
    std::this_thread::sleep_for(std::chrono::duration<double>(end - begin));
    phase_s[opt.traced && on] += window.ElapsedSeconds() - begin;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double window_s = window.ElapsedSeconds();
  obs::Tracer::Global().set_enabled(opt.traced);
  SKALLA_ASSIGN_OR_RETURN(SiteCounters sites_after, PullSiteCounters(session));
  obs::Tracer::Global().set_enabled(false);
  const serve::CacheStats cache_after = session.scheduler().cache().stats();
  const double site_rss_mb =
      static_cast<double>(served->cluster.PeakRssBytes()) / 1e6;
  served.reset();

  // 4. Correctness: the centralized gate and the ingest read-back.
  size_t attempted = 0, failed = 0;
  std::vector<Sample> samples;
  std::vector<double> skews;
  for (const ClientLog& log : logs) {
    attempted += log.attempted;
    failed += log.errors + log.wrong;
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
    skews.insert(skews.end(), log.skews.begin(), log.skews.end());
  }
  {
    SKALLA_ASSIGN_OR_RETURN(DistributedWarehouse central,
                            DistributedWarehouse::Load(data_dir));
    for (const auto& [instance, table] : refs.gate_tables()) {
      ++attempted;
      Result<GmdjExpr> expr = ParseQuery(pool[instance].text);
      Result<Table> expected = expr.ok() ? central.ExecuteCentralized(*expr)
                                         : Result<Table>(expr.status());
      // Distributed AVG/SUM over doubles adds in another order than the
      // centralized pass; 1e-9 relative covers exactly that.
      if (!expected.ok() || !table.ApproxSameRows(*expected, 1e-9)) {
        ++failed;
        std::fprintf(stderr, "%s: instance %u differs from centralized\n",
                     w.name, instance);
      }
    }
  }
  if (w.writer) {
    attempted += kSites;
    failed += writer_log.errors;
    if (writer_log.cycles > 0) {
      SKALLA_ASSIGN_OR_RETURN(size_t bad,
                              ReadBackMismatches(ingest_rows, staging_dir));
      failed += bad;
    } else {
      failed += kSites;
    }
  }

  // Metrics.
  std::vector<double> latency, parse_us, plan_us, hit_ms, wait_ms;
  size_t done[2] = {0, 0};
  Sample sum;  // executed (uncached) requests
  double executed = 0;
  for (const Sample& s : samples) {
    latency.push_back(s.latency_ms);
    parse_us.push_back(s.parse_us);
    plan_us.push_back(s.plan_us);
    ++done[s.traced];
    if (s.from_cache) {
      hit_ms.push_back(s.latency_ms);
      continue;
    }
    executed += 1;
    wait_ms.push_back(s.wait_ms);
    sum.fanout_wait_ms += s.fanout_wait_ms;
    sum.transport_ms += s.transport_ms;
    sum.coord_ms += s.coord_ms;
    sum.eval_ms += s.eval_ms;
    sum.eval_critical_ms += s.eval_critical_ms;
    sum.rounds += s.rounds;
    sum.bytes_to_coord += s.bytes_to_coord;
    sum.bytes_to_sites += s.bytes_to_sites;
    sum.wire_bytes += s.wire_bytes;
    sum.sites_skipped += s.sites_skipped;
    sum.rows_scanned += s.rows_scanned;
    sum.rows_matched += s.rows_matched;
    sum.site_rounds += s.site_rounds;
    sum.columnar_rounds += s.columnar_rounds;
  }
  auto per = [](double x, double n) { return n > 0 ? x / n : 0.0; };
  const double lookups = static_cast<double>(
      (cache_after.hits + cache_after.misses) -
      (cache_before.hits + cache_before.misses));
  const double buffer_hits = sites_after.hits - sites_before.hits;
  const double buffer_misses = sites_after.misses - sites_before.misses;

  out->attempted = attempted;
  out->failed = failed;
  if (!opt.traced) {
    out->metrics = {
        {"qps", static_cast<double>(samples.size()) / window_s, "1/s"},
        {"latency_p50_ms", Percentile(latency, 0.50), "ms"},
        {"latency_p90_ms", Percentile(latency, 0.90), "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"site_rss_mb", site_rss_mb, "MB"},
        {"stored_bytes_per_row",
         static_cast<double>(written.bytes) / static_cast<double>(scale.rows),
         "B/row"},
    };
  } else {
    out->metrics = {
        {"sql.parse_us_p50", Median(parse_us), "us"},
        {"opt.plan_us_p50", Median(plan_us), "us"},
        {"serve.cache_hit_ratio",
         per(static_cast<double>(cache_after.hits - cache_before.hits),
             lookups),
         "ratio"},
        {"serve.cache_evictions",
         static_cast<double>(cache_after.evictions - cache_before.evictions),
         "count"},
        {"serve.hit_ms_p50", Median(hit_ms), "ms"},
        {"serve.wait_ms_p50", Median(wait_ms), "ms"},
        {"rpc.fanout_wait_ms_per_query", per(sum.fanout_wait_ms, executed),
         "ms"},
        {"rpc.transport_ms_per_query", per(sum.transport_ms, executed), "ms"},
        {"rpc.wire_bytes_per_query", per(sum.wire_bytes, executed), "B"},
        {"dist.coord_ms_per_query", per(sum.coord_ms, executed), "ms"},
        {"dist.rounds_per_query", per(sum.rounds, executed), "count"},
        {"dist.bytes_to_coord_per_query", per(sum.bytes_to_coord, executed),
         "B"},
        {"dist.bytes_to_sites_per_query", per(sum.bytes_to_sites, executed),
         "B"},
        {"dist.sites_skipped_per_query", per(sum.sites_skipped, executed),
         "count"},
        {"core.eval_ms_per_query", per(sum.eval_ms, executed), "ms"},
        {"core.eval_critical_ms_per_query", per(sum.eval_critical_ms, executed),
         "ms"},
        {"core.site_skew", Median(skews), "ratio"},
        {"core.match_ratio", per(sum.rows_matched, sum.rows_scanned), "ratio"},
        {"core.columnar_share", per(sum.columnar_rounds, sum.site_rounds),
         "ratio"},
        {"storage.buffer_hit_ratio",
         per(buffer_hits, buffer_hits + buffer_misses), "ratio"},
        {"storage.misses_per_query", per(buffer_misses, executed), "count"},
        {"storage.evictions_per_query",
         per(sites_after.evictions - sites_before.evictions, executed),
         "count"},
        {"storage.chunks_pruned_per_query",
         per(sites_after.pruned - sites_before.pruned, executed), "count"},
        {"storage.resident_mb", sites_after.resident_bytes / 1e6, "MB"},
        {"storage.write_ms_per_cycle",
         per(writer_log.write_s * 1e3, static_cast<double>(writer_log.cycles)),
         "ms"},
        {"storage.stats_ms_per_cycle",
         per(writer_log.stats_s * 1e3, static_cast<double>(writer_log.cycles)),
         "ms"},
        {"storage.write_rows_per_s", per(writer_log.rows, writer_log.wall_s),
         "rows/s"},
        {"trace_overhead",
         per(per(static_cast<double>(done[0]), phase_s[0]),
             per(static_cast<double>(done[1]), phase_s[1])),
         "ratio"},
    };
  }

  std::printf("\n== %s: %zu client(s), cache %s, site buffer %s%s ==\n",
              w.name, w.clients, w.use_cache ? "on" : "off",
              buffer_bytes == 0 ? "unlimited"
                                : StrCat(buffer_bytes, " B").c_str(),
              w.writer ? ", 1 writer" : "");
  std::vector<std::string> site_rows;
  for (size_t n : written.site_rows) site_rows.push_back(std::to_string(n));
  std::printf("   tpcr rows per site (NationKey hash): %s\n",
              Join(site_rows, " / ").c_str());
  std::printf("   %zu requests in %.2f s (%zu latency samples%s), "
              "%zu checks, %zu failed\n",
              samples.size(), window_s, latency.size(),
              latency.size() < 100 ? "; fewer than 10 beyond p90" : "",
              attempted - samples.size(), failed);
  for (const Metric& m : out->metrics) {
    std::printf("   %-34s %16.4f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (opt.traced) {
    const std::string trace_path =
        StrCat(opt.work_dir, "/trace_", w.name, ".json");
    if (!obs::Tracer::Global().WriteChromeJson(trace_path)) {
      return Status::IOError(StrCat("cannot write ", trace_path));
    }
    std::printf("   trace: %s (%zu events)\n", trace_path.c_str(),
                obs::Tracer::Global().NumEvents());
    obs::Tracer::Global().Clear();
  }
  std::filesystem::remove_all(dir);
  return Status::OK();
}

// The directory holding this executable.
std::string ExeDir() {
  std::error_code ec;
  std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? "." : exe.parent_path().string();
}

}  // namespace
}  // namespace skalla

int main(int argc, char** argv) {
  using namespace skalla;
  Options opt;
  std::string workload = "all";
  std::string json_out;
  bool smoke = false;
  opt.work_dir = ExeDir() + "/work";
  opt.site_bin = ExeDir() + "/tools/skalla-site";

  FlagSet flags;
  flags.String("--workload", &workload, "adhoc|dashboard|paged|ingest|all");
  flags.Uint64("--seed", &opt.seed, "seed for data, query literals, and mix");
  flags.Double("--seconds", &opt.seconds,
               "timed window per workload (default 20, smoke 1)");
  flags.Bool("--traced", &opt.traced,
             "per-layer run: tracer on every other slice, trace files");
  flags.Bool("--smoke", &smoke, "tiny data and 1 s windows (a quick check)");
  flags.String("--work-dir", &opt.work_dir, "datasets and trace files");
  flags.String("--json-out", &json_out, "also write the result object here");
  Status parsed = flags.Parse(&argc, argv);
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (!parsed.ok() || selected.empty()) {
    std::fprintf(stderr, "%s\n%s", parsed.ok() ? "unknown --workload"
                                               : parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (smoke) opt.scale = kSmokeScale;
  if (opt.seconds <= 0) opt.seconds = smoke ? 1 : 20;
  // A client writing to a site that just exited must see EPIPE, not die.
  ::signal(SIGPIPE, SIG_IGN);

  std::printf("skalla-bench: seed %llu, %lld tpcr rows over %zu sites, "
              "%.0f s per workload%s\n",
              static_cast<unsigned long long>(opt.seed),
              static_cast<long long>(opt.scale.rows), kSites, opt.seconds,
              opt.traced ? ", traced" : "");
  size_t attempted = 0, failed = 0;
  std::string metrics;
  for (const Workload* w : selected) {
    WorkloadResult result;
    Status status = RunWorkload(opt, *w, &result);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", w->name, status.ToString().c_str());
      return 1;
    }
    attempted += result.attempted;
    failed += result.failed;
    for (const Metric& m : result.metrics) {
      const std::string name =
          selected.size() == 1 ? m.name : StrCat(w->name, "/", m.name);
      metrics += StrCat(metrics.empty() ? "" : ", ", "\"", name,
                        "\": {\"value\": ", Num(m.value), ", \"unit\": \"",
                        m.unit, "\"}");
    }
  }
  const std::string line =
      StrCat("{\"correct\": ", failed == 0 ? "true" : "false",
             ", \"attempted\": ", attempted, ", \"failed\": ", failed,
             ", \"metrics\": {", metrics, "}}");
  if (!json_out.empty()) {
    std::ofstream file(json_out);
    file << StrCat("{\"workload\": \"", workload, "\", \"seed\": ", opt.seed,
                   ", \"traced\": ", opt.traced ? "true" : "false",
                   ", \"result\": ", line, "}\n");
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", line.c_str());
  return failed == 0 ? 0 : 1;
}

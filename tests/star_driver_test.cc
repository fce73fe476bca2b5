// The shared star driver's fan-out: the default concurrent fan-out (and a
// pool narrower than the sites) must be byte-identical to the sequential
// run (fanout_threads = 1) — results row for row, and every RoundStats
// byte and tuple count — whatever order the sites finish in, because
// fragments merge in site order as soon as their predecessors have
// arrived. Also: site errors raised while other site tasks are still
// running return promptly and cleanly; the rpc engine over loopback TCP
// honors fanout_threads with identical results, accounting, and per-site
// profiles, across a replica failover too; and a served query over TCP
// with default options waits for its slowest site, not the sum of them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "dist/fault.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "rpc/rpc_executor.h"
#include "rpc/server.h"
#include "rpc/site_service.h"
#include "rpc/tcp.h"
#include "rpc/transport.h"
#include "serve/session.h"
#include "storage/partition.h"
#include "types/row.h"

namespace skalla {
namespace {

Table MakeFlow(uint64_t seed, size_t rows) {
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"SAS", ValueType::kInt64},
                                   {"DAS", ValueType::kInt64},
                                   {"NB", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked({Value(rng.UniformInt(0, 15)),
                       Value(rng.UniformInt(0, 5)),
                       Value(rng.UniformInt(1, 400))});
  }
  return t;
}

GmdjExpr Example1() {
  GmdjExpr expr;
  expr.base = BaseQuery{"flow", {"SAS", "DAS"}, true, nullptr};
  ExprPtr group = And(Eq(RCol("SAS"), BCol("SAS")),
                      Eq(RCol("DAS"), BCol("DAS")));
  GmdjOp md1;
  md1.detail_table = "flow";
  md1.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt1"}, {AggKind::kSum, "NB", "sum1"}},
      group});
  GmdjOp md2;
  md2.detail_table = "flow";
  md2.blocks.push_back(
      GmdjBlock{{{AggKind::kCountStar, "", "cnt2"}},
                And(group, Ge(RCol("NB"), Div(BCol("sum1"), BCol("cnt1"))))});
  expr.ops = {md1, md2};
  return expr;
}

Catalog FlowCatalog(const Table& part) {
  Catalog catalog;
  catalog.Register("flow", part);
  return catalog;
}

std::vector<Site> MakeSites(const std::vector<Table>& parts) {
  std::vector<Site> sites;
  for (size_t i = 0; i < parts.size(); ++i) {
    sites.emplace_back(static_cast<int>(i), FlowCatalog(parts[i]));
  }
  return sites;
}

bool ExactlyEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (!RowEquals(a.row(r), b.row(r))) return false;
  }
  return true;
}

// One site after another, in site order, on the calling thread.
ExecutorOptions Sequential(ExecutorOptions options = {}) {
  options.fanout_threads = 1;
  return options;
}

// Every deterministic accounting field, round by round and site by site:
// only timings may differ between a sequential and a concurrent run (and
// round wire bytes, whose varint-encoded site profiles carry timings).
void ExpectSameAccounting(const ExecStats& a, const ExecStats& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t r = 0; r < a.rounds.size(); ++r) {
    const RoundStats& x = a.rounds[r];
    const RoundStats& y = b.rounds[r];
    SCOPED_TRACE(x.label);
    EXPECT_EQ(x.label, y.label);
    EXPECT_EQ(x.synchronized, y.synchronized);
    EXPECT_EQ(x.bytes_to_sites, y.bytes_to_sites);
    EXPECT_EQ(x.bytes_to_coord, y.bytes_to_coord);
    EXPECT_EQ(x.tuples_to_sites, y.tuples_to_sites);
    EXPECT_EQ(x.tuples_to_coord, y.tuples_to_coord);
    EXPECT_EQ(x.sites_skipped, y.sites_skipped);
    EXPECT_EQ(x.site_retries, y.site_retries);
    EXPECT_EQ(x.site_failovers, y.site_failovers);
    EXPECT_EQ(x.sites_lost, y.sites_lost);
    ASSERT_EQ(x.site_profiles.size(), y.site_profiles.size());
    for (size_t i = 0; i < x.site_profiles.size(); ++i) {
      const SiteRoundProfile& p = x.site_profiles[i];
      const SiteRoundProfile& q = y.site_profiles[i];
      SCOPED_TRACE(p.site_id);
      EXPECT_EQ(p.site_id, q.site_id);
      EXPECT_EQ(p.bytes_in, q.bytes_in);
      EXPECT_EQ(p.bytes_out, q.bytes_out);
      EXPECT_EQ(p.result_rows, q.result_rows);
      EXPECT_EQ(p.rows_scanned, q.rows_scanned);
      EXPECT_EQ(p.rows_matched, q.rows_matched);
      EXPECT_EQ(p.index_hits, q.index_hits);
      EXPECT_EQ(p.engines_used, q.engines_used);
    }
  }
  EXPECT_EQ(a.lost_sites, b.lost_sites);
  EXPECT_EQ(a.engines_used, b.engines_used);
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalenceTest, MatchesSequentialExactly) {
  int mask = GetParam();
  OptimizerOptions opts;
  opts.coalescing = mask & 1;
  opts.indep_group_reduction = mask & 2;
  opts.aware_group_reduction = mask & 4;
  opts.sync_reduction = mask & 8;

  const size_t kSites = 6;
  Table flow = MakeFlow(71, 800);
  DistributedWarehouse dw(kSites);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  DistributedPlan plan = dw.Plan(Example1(), opts).ValueOrDie();
  std::vector<Table> parts =
      PartitionByValue(flow, "SAS", kSites).ValueOrDie();

  rpc::RpcExecutor sequential(
      std::make_unique<rpc::InProcessTransport>(MakeSites(parts)),
      Sequential());
  ExecStats seq_stats;
  Table seq_result = sequential.Execute(plan, &seq_stats).ValueOrDie();

  rpc::RpcExecutor parallel(
      std::make_unique<rpc::InProcessTransport>(MakeSites(parts)), {});
  ExecStats par_stats;
  Table par_result = parallel.Execute(plan, &par_stats).ValueOrDie();

  EXPECT_TRUE(ExactlyEqual(par_result, seq_result)) << "mask " << mask;
  ExpectSameAccounting(par_stats, seq_stats);
  // Both runs report real wall time per round.
  for (const ExecStats* stats : {&seq_stats, &par_stats}) {
    for (const RoundStats& r : stats->rounds) EXPECT_GT(r.wall_time, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(OptMasks, ParallelEquivalenceTest,
                         ::testing::Values(0, 1, 2, 4, 8, 15));

// Records the round label of every site-round attempt the driver makes.
class RoundRecorder : public FaultInjector {
 public:
  Status BeforeSiteRound(int, const std::string& round) override {
    std::lock_guard<std::mutex> lock(mu_);
    rounds_.insert(round);
    return Status::OK();
  }
  std::set<std::string> rounds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rounds_;
  }

 private:
  mutable std::mutex mu_;
  std::set<std::string> rounds_;
};

// In-process sites behind a transport that counts the requests it
// carries, by endpoint and message type.
class CountingTransport : public rpc::Transport {
 public:
  explicit CountingTransport(std::vector<Site> sites)
      : inner_(std::move(sites)),
        counts_(new std::atomic<int>[inner_.num_sites() * kTypes]()) {}

  size_t num_sites() const override { return inner_.num_sites(); }

  Result<std::unique_ptr<rpc::Connection>> Connect(size_t site) override {
    SKALLA_ASSIGN_OR_RETURN(std::unique_ptr<rpc::Connection> inner,
                            inner_.Connect(site));
    return std::unique_ptr<rpc::Connection>(
        new Counted(std::move(inner), &counts_[site * kTypes]));
  }

  // Requests of `type` to every endpoint.
  int requests(rpc::MessageType type) const {
    int total = 0;
    for (size_t e = 0; e < num_sites(); ++e) total += requests(e, type);
    return total;
  }

  // Requests of `type` to endpoint `endpoint`.
  int requests(size_t endpoint, rpc::MessageType type) const {
    return counts_[endpoint * kTypes + static_cast<uint8_t>(type)].load();
  }

  // Requests of any type to endpoint `endpoint`.
  int requests(size_t endpoint) const {
    int total = 0;
    for (size_t t = 0; t < kTypes; ++t) {
      total += counts_[endpoint * kTypes + t].load();
    }
    return total;
  }

  rpc::SiteService* service(size_t endpoint) {
    return inner_.service(endpoint);
  }

 private:
  static constexpr size_t kTypes = 256;

  class Counted : public rpc::Connection {
   public:
    Counted(std::unique_ptr<rpc::Connection> inner, std::atomic<int>* counts)
        : inner_(std::move(inner)), counts_(counts) {}
    Result<rpc::Frame> Call(rpc::MessageType type,
                            const std::vector<uint8_t>& payload) override {
      counts_[static_cast<uint8_t>(type)].fetch_add(1);
      return inner_->Call(type, payload);
    }
    uint64_t wire_bytes() const override { return inner_->wire_bytes(); }

   private:
    std::unique_ptr<rpc::Connection> inner_;
    std::atomic<int>* counts_;  // this endpoint's row, kTypes wide
  };

  rpc::InProcessTransport inner_;
  std::unique_ptr<std::atomic<int>[]> counts_;
};

// No site holds round state for a query once its Execute has returned.
void ExpectNoOpenPlans(CountingTransport* transport) {
  for (size_t e = 0; e < transport->num_sites(); ++e) {
    EXPECT_EQ(transport->service(e)->open_plans(), 0u) << "endpoint " << e;
  }
}

TEST(StarDriverTest, Prop2PlanSendsNoBaseRound) {
  // A plan that skips the base synchronization (Prop. 2) computes each
  // site's base inside md1: no base round reaches the driver or the
  // wire, one round per stage, and the first round fused at every site.
  // A plan that synchronizes its base still runs one base round per
  // site, sent as a kGmdjRound; no site sees the retired type 6.
  const size_t kSites = 4;
  Table flow = MakeFlow(79, 700);
  DistributedWarehouse dw(kSites);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  std::vector<Table> parts =
      PartitionByValue(flow, "SAS", kSites).ValueOrDie();
  Table expected = dw.ExecuteCentralized(Example1()).ValueOrDie();
  OptimizerOptions prop2 = OptimizerOptions::None();
  prop2.sync_reduction = true;
  for (const OptimizerOptions& opts : {OptimizerOptions::None(), prop2}) {
    DistributedPlan plan = dw.Plan(Example1(), opts).ValueOrDie();
    SCOPED_TRACE(plan.sync_base ? "sync base" : "Prop. 2");
    const size_t rounds = plan.stages.size() + (plan.sync_base ? 1 : 0);

    RoundRecorder recorder;
    ExecutorOptions options;
    options.fault_injector = &recorder;
    auto transport = std::make_unique<CountingTransport>(MakeSites(parts));
    CountingTransport* counting = transport.get();
    rpc::RpcExecutor rpc(std::move(transport), options);
    ExecStats stats;
    Table result = rpc.Execute(plan, &stats).ValueOrDie();
    EXPECT_TRUE(result.SameRows(expected));
    EXPECT_EQ(recorder.rounds().count("base"), plan.sync_base ? 1u : 0u);
    EXPECT_EQ(recorder.rounds().size(), rounds);
    EXPECT_EQ(counting->requests(static_cast<rpc::MessageType>(6)), 0);
    EXPECT_EQ(counting->requests(rpc::MessageType::kGmdjRound),
              static_cast<int>(kSites * rounds));

    ASSERT_EQ(stats.rounds.size(), rounds);
    EXPECT_EQ(stats.NumSyncRounds(), plan.NumSyncRounds());
    const RoundStats& first = stats.rounds[0];
    EXPECT_EQ(first.label, plan.sync_base ? "base" : "md1");
    EXPECT_EQ(first.fused_base, !plan.sync_base);
    ASSERT_EQ(first.site_profiles.size(), kSites);
    for (const SiteRoundProfile& p : first.site_profiles) {
      EXPECT_EQ(p.fused, !plan.sync_base) << "site " << p.site_id;
    }
    ExpectNoOpenPlans(counting);
  }
}

TEST(StarDriverTest, SyncBasePlanMustKeyOnTheBaseColumns) {
  // The base round's distinct union groups on the plan's key columns, so
  // a synchronized base keyed on anything but its own columns (a subset,
  // or the same columns reordered) would dedup on the wrong key: the
  // executor rejects the plan before any site sees a round. A Prop. 2 plan
  // has no base round and keeps its keys.
  const size_t kSites = 4;
  Table flow = MakeFlow(89, 300);
  DistributedWarehouse dw(kSites);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  std::vector<Table> parts =
      PartitionByValue(flow, "SAS", kSites).ValueOrDie();
  DistributedPlan plan =
      dw.Plan(Example1(), OptimizerOptions::None()).ValueOrDie();
  ASSERT_TRUE(plan.sync_base);
  for (const std::vector<std::string>& keys :
       {std::vector<std::string>{"SAS"},
        std::vector<std::string>{"DAS", "SAS"}}) {
    DistributedPlan bad = plan;
    bad.key_columns = keys;
    auto transport = std::make_unique<CountingTransport>(MakeSites(parts));
    CountingTransport* counting = transport.get();
    rpc::RpcExecutor rpc(std::move(transport), {});
    auto result = rpc.Execute(bad, nullptr);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << result.status().ToString();
    EXPECT_EQ(counting->requests(rpc::MessageType::kGmdjRound), 0);
  }
  rpc::RpcExecutor rpc(
      std::make_unique<rpc::InProcessTransport>(MakeSites(parts)), {});
  EXPECT_TRUE(rpc.Execute(plan, nullptr).ok());
}

TEST(StarDriverTest, Prop2PlanSendsOnlyItsRound) {
  // A one-operator Prop. 2 plan is one self-contained synchronized
  // round: each site gets exactly one kGmdjRound and no other frame —
  // no per-query setup before it, no kEndPlan after it — and keeps no
  // state for the query.
  const size_t kSites = 4;
  Table flow = MakeFlow(83, 600);
  DistributedWarehouse dw(kSites);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  std::vector<Table> parts =
      PartitionByValue(flow, "SAS", kSites).ValueOrDie();
  GmdjExpr query = Example1();
  query.ops.resize(1);
  OptimizerOptions prop2 = OptimizerOptions::None();
  prop2.sync_reduction = true;
  DistributedPlan plan = dw.Plan(query, prop2).ValueOrDie();
  ASSERT_FALSE(plan.sync_base);
  ASSERT_EQ(plan.stages.size(), 1u);
  ASSERT_TRUE(plan.stages[0].sync_after);

  auto transport = std::make_unique<CountingTransport>(MakeSites(parts));
  CountingTransport* counting = transport.get();
  rpc::RpcExecutor rpc(std::move(transport), {});
  ASSERT_TRUE(rpc.Connect().ok());
  std::vector<int> before(kSites);
  for (size_t e = 0; e < kSites; ++e) before[e] = counting->requests(e);
  Table result = rpc.Execute(plan, nullptr).ValueOrDie();
  EXPECT_TRUE(result.SameRows(dw.ExecuteCentralized(query).ValueOrDie()));
  for (size_t e = 0; e < kSites; ++e) {
    EXPECT_EQ(counting->requests(e) - before[e], 1) << "site " << e;
    EXPECT_EQ(counting->requests(e, rpc::MessageType::kGmdjRound), 1)
        << "site " << e;
  }
  ExpectNoOpenPlans(counting);
}

TEST(StarDriverTest, EndPlanGoesOnlyToPrimariesThatRanACarriedRound) {
  // Partitioned on SAS, a grouping on (SAS, DAS) lets Example1's md1
  // stay at the sites (Theorem 5): md1 leaves its output there and md2
  // reads it. Both rounds are pinned to the primaries, so each primary
  // gets exactly one kEndPlan and the replicas get no frame at all
  // beyond the catalog probe. No site keeps state afterwards.
  const size_t kSites = 4;
  Table flow = MakeFlow(89, 600);
  DistributedWarehouse dw(kSites);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"DAS", "NB"}).Check();
  std::vector<Table> parts =
      PartitionByValue(flow, "SAS", kSites).ValueOrDie();
  OptimizerOptions prop2 = OptimizerOptions::None();
  prop2.sync_reduction = true;
  DistributedPlan plan = dw.Plan(Example1(), prop2).ValueOrDie();
  ASSERT_EQ(plan.stages.size(), 2u);
  ASSERT_FALSE(plan.stages[0].sync_after);

  std::vector<Table> endpoint_parts = parts;
  endpoint_parts.insert(endpoint_parts.end(), parts.begin(), parts.end());
  auto transport =
      std::make_unique<CountingTransport>(MakeSites(endpoint_parts));
  CountingTransport* counting = transport.get();
  rpc::RpcExecutor rpc(std::move(transport), {});
  for (size_t i = 0; i < kSites; ++i) rpc.AddReplica(i, kSites + i);
  ASSERT_TRUE(rpc.Connect().ok());
  std::vector<int> before(2 * kSites);
  for (size_t e = 0; e < 2 * kSites; ++e) before[e] = counting->requests(e);
  for (int run = 1; run <= 2; ++run) {
    SCOPED_TRACE(run);
    Table result = rpc.Execute(plan, nullptr).ValueOrDie();
    EXPECT_TRUE(
        result.SameRows(dw.ExecuteCentralized(Example1()).ValueOrDie()));
    for (size_t e = 0; e < kSites; ++e) {
      EXPECT_EQ(counting->requests(e, rpc::MessageType::kEndPlan), run)
          << "primary " << e;
      EXPECT_EQ(counting->requests(e, rpc::MessageType::kGmdjRound), 2 * run)
          << "primary " << e;
    }
    for (size_t e = kSites; e < 2 * kSites; ++e) {
      EXPECT_EQ(counting->requests(e), before[e]) << "replica " << e;
    }
    ExpectNoOpenPlans(counting);
  }
}

TEST(StarDriverTest, RepeatedParallelRunsAreByteIdentical) {
  // Completion order varies across runs; merged results must not.
  const size_t kSites = 5;
  Table flow = MakeFlow(73, 600);
  std::vector<Table> parts = PartitionRoundRobin(flow, kSites).ValueOrDie();
  DistributedWarehouse dw(kSites);
  dw.AddPartitionedTable("flow", parts, {"SAS", "DAS", "NB"}).Check();
  DistributedPlan plan =
      dw.Plan(Example1(), OptimizerOptions::None()).ValueOrDie();

  rpc::RpcExecutor sequential(
      std::make_unique<rpc::InProcessTransport>(MakeSites(parts)),
      Sequential());
  Table expected = sequential.Execute(plan, nullptr).ValueOrDie();
  for (int run = 0; run < 5; ++run) {
    rpc::RpcExecutor parallel(
        std::make_unique<rpc::InProcessTransport>(MakeSites(parts)), {});
    Table result = parallel.Execute(plan, nullptr).ValueOrDie();
    EXPECT_TRUE(ExactlyEqual(result, expected)) << "run " << run;
  }
}

TEST(StarDriverTest, ParallelSiteErrorsPropagate) {
  // Site 1's catalog is missing the detail relation: the error must
  // surface, not hang or crash.
  Table flow = MakeFlow(79, 100);
  std::vector<Table> parts = PartitionRoundRobin(flow, 3).ValueOrDie();
  std::vector<Site> sites;
  for (size_t i = 0; i < 3; ++i) {
    sites.emplace_back(static_cast<int>(i),
                       i == 1 ? Catalog() : FlowCatalog(parts[i]));
  }
  DistributedWarehouse dw(3);
  dw.AddPartitionedTable("flow", parts, {}).Check();
  DistributedPlan plan =
      dw.Plan(Example1(), OptimizerOptions::None()).ValueOrDie();

  rpc::RpcExecutor parallel(
      std::make_unique<rpc::InProcessTransport>(std::move(sites)), {});
  auto result = parallel.Execute(plan, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
}

TEST(StarDriverTest, NarrowPoolStillExact) {
  // Two workers over four sites: sites queue for a worker, and fragments
  // still merge in site order.
  Table flow = MakeFlow(83, 300);
  std::vector<Table> parts = PartitionByValue(flow, "SAS", 4).ValueOrDie();
  DistributedWarehouse dw(4);
  dw.AddPartitionedTable("flow", parts, {"SAS", "DAS", "NB"}).Check();
  DistributedPlan plan =
      dw.Plan(Example1(), OptimizerOptions::All()).ValueOrDie();

  rpc::RpcExecutor sequential(
      std::make_unique<rpc::InProcessTransport>(MakeSites(parts)),
      Sequential());
  ExecStats seq_stats;
  Table expected = sequential.Execute(plan, &seq_stats).ValueOrDie();

  ExecutorOptions options;
  options.fanout_threads = 2;
  rpc::RpcExecutor narrow(
      std::make_unique<rpc::InProcessTransport>(MakeSites(parts)), options);
  ExecStats stats;
  Table result = narrow.Execute(plan, &stats).ValueOrDie();
  EXPECT_TRUE(ExactlyEqual(result, expected));
  ExpectSameAccounting(stats, seq_stats);
}

// Holds site 0 back at the start of every round, so under a concurrent
// fan-out the later sites finish first; records the order attempts
// complete in.
class SlowFirstSite : public FaultInjector {
 public:
  explicit SlowFirstSite(int ms) : ms_(ms) {}

  Status BeforeSiteRound(int site, const std::string&) override {
    if (site == 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    return Status::OK();
  }
  Status AfterSiteRound(int site, const std::string& round,
                        const Status&) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (round == "md1") md1_order_.push_back(site);
    return Status::OK();
  }
  std::vector<int> md1_order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return md1_order_;
  }

 private:
  int ms_;
  mutable std::mutex mu_;
  std::vector<int> md1_order_;
};

TEST(StarDriverTest, ReverseCompletionStillMergesInSiteOrder) {
  const size_t kSites = 4;
  Table flow = MakeFlow(89, 800);
  std::vector<Table> parts =
      PartitionByValue(flow, "SAS", kSites).ValueOrDie();
  DistributedWarehouse dw(kSites);
  dw.AddPartitionedTable("flow", parts, {"SAS", "DAS", "NB"}).Check();

  for (const OptimizerOptions& opts :
       {OptimizerOptions::None(), OptimizerOptions::All()}) {
    SCOPED_TRACE(opts.ToString());
    DistributedPlan plan = dw.Plan(Example1(), opts).ValueOrDie();
    rpc::RpcExecutor sequential(
        std::make_unique<rpc::InProcessTransport>(MakeSites(parts)),
        Sequential());
    ExecStats seq_stats;
    Table expected = sequential.Execute(plan, &seq_stats).ValueOrDie();

    // Two workers over four sites: one holds site 0 while the other
    // runs sites 1..3.
    SlowFirstSite injector(/*ms=*/40);
    ExecutorOptions options;
    options.fanout_threads = 2;
    options.fault_injector = &injector;
    rpc::RpcExecutor parallel(
        std::make_unique<rpc::InProcessTransport>(MakeSites(parts)), options);
    ExecStats stats;
    Table result = parallel.Execute(plan, &stats).ValueOrDie();

    EXPECT_TRUE(ExactlyEqual(result, expected));
    ExpectSameAccounting(stats, seq_stats);
    // The scenario really ran: site 0 finished md1 after the others.
    std::vector<int> order = injector.md1_order();
    ASSERT_EQ(order.size(), kSites);
    EXPECT_EQ(order.back(), 0);
  }
}

TEST(StarDriverTest, DefaultOptionsFanOutConcurrently) {
  // Nothing but the injector set: sites 1..3 must not wait for site 0.
  const size_t kSites = 4;
  Table flow = MakeFlow(91, 400);
  std::vector<Table> parts =
      PartitionByValue(flow, "SAS", kSites).ValueOrDie();
  DistributedWarehouse dw(kSites);
  dw.AddPartitionedTable("flow", parts, {"SAS", "DAS", "NB"}).Check();
  DistributedPlan plan =
      dw.Plan(Example1(), OptimizerOptions::None()).ValueOrDie();

  SlowFirstSite injector(/*ms=*/40);
  ExecutorOptions options;
  options.fault_injector = &injector;
  rpc::RpcExecutor executor(
      std::make_unique<rpc::InProcessTransport>(MakeSites(parts)), options);
  ASSERT_TRUE(executor.Execute(plan, nullptr).ok());
  std::vector<int> order = injector.md1_order();
  ASSERT_EQ(order.size(), kSites);
  EXPECT_EQ(order.back(), 0);
}

// Fails every attempt at one site and holds site 0 back, so the failure
// lands while site 0's task is still running.
class FailWhileSlow : public SlowFirstSite {
 public:
  FailWhileSlow(int ms, int failing) : SlowFirstSite(ms), failing_(failing) {}
  Status BeforeSiteRound(int site, const std::string& round) override {
    if (site == failing_) {
      return Status::IOError(StrCat("injected: site ", site, " is down"));
    }
    return SlowFirstSite::BeforeSiteRound(site, round);
  }

 private:
  int failing_;
};

TEST(StarDriverTest, ErrorWhileOtherSitesRunReturnsThatError) {
  const size_t kSites = 4;
  Table flow = MakeFlow(97, 400);
  std::vector<Table> parts =
      PartitionByValue(flow, "SAS", kSites).ValueOrDie();
  DistributedWarehouse dw(kSites);
  dw.AddPartitionedTable("flow", parts, {"SAS", "DAS", "NB"}).Check();
  DistributedPlan plan =
      dw.Plan(Example1(), OptimizerOptions::None()).ValueOrDie();

  FailWhileSlow injector(/*ms=*/100, /*failing=*/2);
  ExecutorOptions options;
  options.fault_injector = &injector;
  rpc::RpcExecutor parallel(
      std::make_unique<rpc::InProcessTransport>(MakeSites(parts)), options);
  ExecStats stats;
  auto result = parallel.Execute(plan, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("site 2"), std::string::npos)
      << result.status().ToString();
  // The executor is reusable afterwards: no task outlived the call.
  rpc::RpcExecutor again(
      std::make_unique<rpc::InProcessTransport>(MakeSites(parts)), {});
  EXPECT_TRUE(again.Execute(plan, nullptr).ok());
}

// ---- The rpc engine over loopback TCP ------------------------------------

/// Site servers on loopback sockets, one thread each.
class LoopbackCluster {
 public:
  explicit LoopbackCluster(std::vector<Site> sites,
                           rpc::SiteServerOptions options = {}) {
    options.accept_timeout_s = 0.05;
    options.io_timeout_s = 5.0;
    for (Site& site : sites) {
      services_.push_back(std::make_unique<rpc::SiteService>(std::move(site)));
      servers_.push_back(
          std::make_unique<rpc::SiteServer>(services_.back().get(), options));
      servers_.back()->Start().Check();
    }
    for (auto& server : servers_) {
      threads_.emplace_back([s = server.get()] { (void)s->Serve(); });
    }
  }

  ~LoopbackCluster() {
    for (auto& server : servers_) server->Stop();
    for (std::thread& t : threads_) t.join();
  }

  std::vector<rpc::SiteEndpoint> endpoints() const {
    std::vector<rpc::SiteEndpoint> endpoints;
    for (const auto& server : servers_) {
      endpoints.push_back({"127.0.0.1", server->port()});
    }
    return endpoints;
  }

  std::unique_ptr<rpc::Transport> Dial() const {
    rpc::TcpOptions tcp;
    tcp.io_timeout_s = 5.0;
    tcp.backoff_initial_s = 0.005;
    return std::make_unique<rpc::TcpTransport>(endpoints(), tcp);
  }

 private:
  std::vector<std::unique_ptr<rpc::SiteService>> services_;
  std::vector<std::unique_ptr<rpc::SiteServer>> servers_;
  std::vector<std::thread> threads_;
};

TEST(StarDriverTest, RpcConcurrentFanOutMatchesSequentialOverTcp) {
  const size_t kSites = 4;
  Table flow = MakeFlow(101, 900);
  std::vector<Table> parts =
      PartitionByValue(flow, "SAS", kSites).ValueOrDie();
  DistributedWarehouse dw(kSites);
  dw.AddPartitionedTable("flow", parts, {"SAS", "DAS", "NB"}).Check();

  // Endpoint 4 is a replica process for partition 2; site 2 is dead, so
  // every round fails over to it. None(): every round is self-contained,
  // so rpc failover stays legal in all of them.
  std::vector<Site> sites = MakeSites(parts);
  sites.emplace_back(static_cast<int>(kSites), FlowCatalog(parts[2]));
  LoopbackCluster cluster(std::move(sites));

  for (bool failover : {false, true}) {
    SCOPED_TRACE(failover ? "failover" : "healthy");
    DistributedPlan plan =
        dw.Plan(Example1(), failover ? OptimizerOptions::None()
                                     : OptimizerOptions::All())
            .ValueOrDie();
    PermanentSiteFailure dead(/*site=*/2);
    ExecutorOptions base_options;
    if (failover) {
      base_options.fault_injector = &dead;
      base_options.max_site_retries = 1;
    }
    auto run = [&](const ExecutorOptions& options, ExecStats* stats) {
      rpc::RpcExecutor executor(cluster.Dial(), options);
      executor.AddReplica(2, kSites);
      return executor.Execute(plan, stats).ValueOrDie();
    };
    ExecStats seq_stats;
    Table expected = run(Sequential(base_options), &seq_stats);
    ExecStats par_stats;
    Table result = run(base_options, &par_stats);

    EXPECT_TRUE(ExactlyEqual(result, expected));
    EXPECT_EQ(par_stats.TotalBytesToSites(), seq_stats.TotalBytesToSites());
    EXPECT_EQ(par_stats.TotalBytesToCoord(), seq_stats.TotalBytesToCoord());
    ExpectSameAccounting(par_stats, seq_stats);
    EXPECT_EQ(par_stats.TotalSiteFailovers(), failover ? 3u : 0u);
  }
}

TEST(StarDriverTest, ServedRoundWaitsForSlowestSiteNotTheSum) {
  // Every site answers each round request after a fixed delay. With the
  // session's default options the four requests of a round are in flight
  // together, so a round costs about one delay; one site after another
  // would cost four.
  constexpr uint64_t kDelayMs = 150;
  const size_t kSites = 4;
  Table flow = MakeFlow(103, 400);
  std::vector<Table> parts =
      PartitionByValue(flow, "SAS", kSites).ValueOrDie();
  rpc::SiteServerOptions server_options;
  server_options.chaos.seed = 1;
  server_options.chaos.delay_prob = 1.0;
  server_options.chaos.delay_ms = kDelayMs;
  LoopbackCluster cluster(MakeSites(parts), server_options);

  auto session =
      serve::QuerySession::Open(cluster.endpoints(), serve::SessionOptions{})
          .ValueOrDie();
  auto submission = session.Submit(Example1()).ValueOrDie();
  Result<serve::QueryResult> answer = submission.result.get();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const ExecStats& stats = answer->stats;
  ASSERT_FALSE(stats.rounds.empty());
  for (const RoundStats& r : stats.rounds) {
    SCOPED_TRACE(r.label);
    EXPECT_GE(r.wall_time, kDelayMs / 1e3);
    EXPECT_LT(r.wall_time, 2 * kDelayMs / 1e3);
    EXPECT_GT(r.fanout_wait, 0.0);
    EXPECT_LE(r.fanout_wait, r.wall_time);
  }
}

}  // namespace
}  // namespace skalla

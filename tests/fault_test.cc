// Fault injection and recovery over in-process site services, with
// sites one after another and with the default concurrent fan-out: site
// retries, replica failover, degraded execution (OnSiteLoss::kDegrade),
// and query/round deadlines and cancellation, which share one policy via
// ExecutorOptions.

#include "dist/fault.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/cancellation.h"
#include "core/local_eval.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "rpc/rpc_executor.h"
#include "rpc/transport.h"
#include "storage/partition.h"
#include "types/row.h"

namespace skalla {
namespace {

Table MakeFlow(size_t rows) {
  Random rng(61);
  SchemaPtr schema = Schema::Make({{"SAS", ValueType::kInt64},
                                   {"NB", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked(
        {Value(rng.UniformInt(0, 11)), Value(rng.UniformInt(1, 300))});
  }
  return t;
}

GmdjExpr SimpleQuery() {
  GmdjExpr expr;
  expr.base = BaseQuery{"flow", {"SAS"}, true, nullptr};
  GmdjOp md1;
  md1.detail_table = "flow";
  md1.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}, {AggKind::kAvg, "NB", "a"}},
      Eq(RCol("SAS"), BCol("SAS"))});
  GmdjOp md2;
  md2.detail_table = "flow";
  md2.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c2"}},
      And(Eq(RCol("SAS"), BCol("SAS")), Ge(RCol("NB"), BCol("a")))});
  expr.ops = {md1, md2};
  return expr;
}

// Row-for-row equality including order: the concurrent fan-out is pinned
// to the sequential one exactly, not just as a row set.
bool ExactlyEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (!RowEquals(a.row(r), b.row(r))) return false;
  }
  return true;
}

Result<Table> RunWithFaults(const Table& flow, FaultInjector* injector,
                            size_t retries, ExecStats* stats,
                            const OptimizerOptions& opts) {
  ExecutorOptions exec_options;
  exec_options.fanout_threads = 1;  // the sequential ladder
  exec_options.fault_injector = injector;
  exec_options.max_site_retries = retries;
  DistributedWarehouse dw(4, NetworkConfig{}, exec_options);
  Status s = dw.AddTablePartitionedBy("flow", flow, "SAS", {"NB"});
  if (!s.ok()) return s;
  return dw.Execute(SimpleQuery(), opts, stats);
}

TEST(FaultTest, TransientFailuresRecoverWithRetry) {
  Table flow = MakeFlow(600);
  DistributedWarehouse reference_dw(4);
  reference_dw.AddTablePartitionedBy("flow", flow, "SAS", {"NB"}).Check();
  Table expected =
      reference_dw.ExecuteCentralized(SimpleQuery()).ValueOrDie();

  TransientFaultInjector injector(/*failures=*/1);
  ExecStats stats;
  Table result = RunWithFaults(flow, &injector, /*retries=*/2, &stats,
                               OptimizerOptions::None())
                     .ValueOrDie();
  EXPECT_TRUE(result.SameRows(expected));
  EXPECT_GT(injector.injected(), 0);
  size_t total_retries = 0;
  for (const RoundStats& r : stats.rounds) total_retries += r.site_retries;
  // Every (site, round) pair failed once: 4 sites x 3 rounds.
  EXPECT_EQ(total_retries, 12u);
}

TEST(FaultTest, ExhaustedRetriesSurfaceTheFailure) {
  Table flow = MakeFlow(200);
  TransientFaultInjector injector(/*failures=*/3);
  ExecStats stats;
  auto result = RunWithFaults(flow, &injector, /*retries=*/1, &stats,
                              OptimizerOptions::None());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(FaultTest, PermanentSiteFailureAborts) {
  Table flow = MakeFlow(200);
  PermanentSiteFailure injector(/*site=*/2);
  auto result = RunWithFaults(flow, &injector, /*retries=*/5, nullptr,
                              OptimizerOptions::None());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("site 2"), std::string::npos);
}

TEST(FaultTest, RecoveryWorksUnderAllOptimizations) {
  Table flow = MakeFlow(600);
  DistributedWarehouse reference_dw(4);
  reference_dw.AddTablePartitionedBy("flow", flow, "SAS", {"NB"}).Check();
  Table expected =
      reference_dw.ExecuteCentralized(SimpleQuery()).ValueOrDie();

  TransientFaultInjector injector(/*failures=*/1);
  Table result = RunWithFaults(flow, &injector, /*retries=*/1, nullptr,
                               OptimizerOptions::All())
                     .ValueOrDie();
  EXPECT_TRUE(result.SameRows(expected));
}

// Same scenario with the default concurrent fan-out: plans built by the
// warehouse, sites constructed directly so the options are explicit.
Result<Table> RunParallelWithFaults(const Table& flow, FaultInjector* injector,
                                    size_t retries, ExecStats* stats,
                                    const OptimizerOptions& opts) {
  const size_t kSites = 4;
  DistributedWarehouse dw(kSites);
  Status s = dw.AddTablePartitionedBy("flow", flow, "SAS", {"NB"});
  if (!s.ok()) return s;
  SKALLA_ASSIGN_OR_RETURN(DistributedPlan plan, dw.Plan(SimpleQuery(), opts));
  SKALLA_ASSIGN_OR_RETURN(std::vector<Table> parts,
                          PartitionByValue(flow, "SAS", kSites));
  std::vector<Site> sites;
  for (size_t i = 0; i < kSites; ++i) {
    Catalog catalog;
    catalog.Register("flow", parts[i]);
    sites.emplace_back(static_cast<int>(i), std::move(catalog));
  }
  ExecutorOptions exec_options;
  exec_options.fault_injector = injector;
  exec_options.max_site_retries = retries;
  rpc::RpcExecutor executor(
      std::make_unique<rpc::InProcessTransport>(std::move(sites)),
      exec_options);
  return executor.Execute(plan, stats);
}

TEST(FaultTest, ParallelTransientFailuresRecoverWithRetry) {
  Table flow = MakeFlow(600);
  DistributedWarehouse reference_dw(4);
  reference_dw.AddTablePartitionedBy("flow", flow, "SAS", {"NB"}).Check();
  TransientFaultInjector seq_injector(/*failures=*/1);
  Table expected = RunWithFaults(flow, &seq_injector, /*retries=*/2, nullptr,
                                 OptimizerOptions::None())
                       .ValueOrDie();

  TransientFaultInjector injector(/*failures=*/1);
  ExecStats stats;
  Table result = RunParallelWithFaults(flow, &injector, /*retries=*/2,
                                       &stats, OptimizerOptions::None())
                     .ValueOrDie();
  EXPECT_TRUE(ExactlyEqual(result, expected));
  EXPECT_TRUE(result.SameRows(
      reference_dw.ExecuteCentralized(SimpleQuery()).ValueOrDie()));
  EXPECT_GT(injector.injected(), 0);
  size_t total_retries = 0;
  for (const RoundStats& r : stats.rounds) total_retries += r.site_retries;
  // Every (site, round) pair failed once: 4 sites x 3 rounds.
  EXPECT_EQ(total_retries, 12u);
}

TEST(FaultTest, ParallelExhaustedRetriesSurfaceTheFailure) {
  Table flow = MakeFlow(200);
  TransientFaultInjector injector(/*failures=*/3);
  auto result = RunParallelWithFaults(flow, &injector, /*retries=*/1, nullptr,
                                      OptimizerOptions::None());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(FaultTest, ParallelPermanentSiteFailureAborts) {
  Table flow = MakeFlow(200);
  PermanentSiteFailure injector(/*site=*/2);
  auto result = RunParallelWithFaults(flow, &injector, /*retries=*/5, nullptr,
                                      OptimizerOptions::None());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("site 2"), std::string::npos);
}

TEST(FaultTest, RetryAccountingMatchesAcrossFanOutWidths) {
  // The same transient-fault schedule must produce the same per-round
  // site_retries whether sites run one after another or concurrently:
  // the retry loop is shared, and the round labels the injector keys on
  // are part of the executor contract.
  Table flow = MakeFlow(600);

  TransientFaultInjector dist_injector(/*failures=*/1);
  ExecStats dist_stats;
  RunWithFaults(flow, &dist_injector, /*retries=*/2, &dist_stats,
                OptimizerOptions::None())
      .ValueOrDie();

  TransientFaultInjector parallel_injector(/*failures=*/1);
  ExecStats parallel_stats;
  RunParallelWithFaults(flow, &parallel_injector, /*retries=*/2,
                        &parallel_stats, OptimizerOptions::None())
      .ValueOrDie();

  ASSERT_EQ(dist_stats.rounds.size(), parallel_stats.rounds.size());
  for (size_t r = 0; r < dist_stats.rounds.size(); ++r) {
    SCOPED_TRACE(dist_stats.rounds[r].label);
    EXPECT_EQ(parallel_stats.rounds[r].label, dist_stats.rounds[r].label);
    EXPECT_EQ(parallel_stats.rounds[r].site_retries,
              dist_stats.rounds[r].site_retries);
  }
  EXPECT_EQ(dist_injector.injected(), parallel_injector.injected());
}

TEST(FaultTest, NoInjectorMeansNoRetries) {
  Table flow = MakeFlow(200);
  ExecStats stats;
  Table result = RunWithFaults(flow, nullptr, /*retries=*/3, &stats,
                               OptimizerOptions::None())
                     .ValueOrDie();
  for (const RoundStats& r : stats.rounds) {
    EXPECT_EQ(r.site_retries, 0u);
  }
  EXPECT_GT(result.num_rows(), 0u);
}

// ---- Replica failover ----------------------------------------------------

// Shared scaffolding: partitions of `flow` as directly-constructed
// sites, so replica registration can be exercised.
struct TestFleet {
  DistributedPlan plan;
  std::vector<Site> sites;
  std::vector<Table> parts;
  Table expected;
};

Result<TestFleet> MakeFleet(const Table& flow, const OptimizerOptions& opts,
                            const GmdjExpr& expr = SimpleQuery()) {
  const size_t kSites = 4;
  TestFleet fleet;
  DistributedWarehouse dw(kSites);
  SKALLA_RETURN_NOT_OK(dw.AddTablePartitionedBy("flow", flow, "SAS", {"NB"}));
  SKALLA_ASSIGN_OR_RETURN(fleet.plan, dw.Plan(expr, opts));
  SKALLA_ASSIGN_OR_RETURN(fleet.parts,
                          PartitionByValue(flow, "SAS", kSites));
  for (size_t i = 0; i < kSites; ++i) {
    Catalog catalog;
    catalog.Register("flow", fleet.parts[i]);
    fleet.sites.emplace_back(static_cast<int>(i), std::move(catalog));
  }
  SKALLA_ASSIGN_OR_RETURN(fleet.expected, dw.ExecuteCentralized(expr));
  return fleet;
}

// The sync reduction alone: SimpleQuery plans as Prop. 2 (no base round)
// with md1's output carried into md2 at the sites (Theorem 5).
OptimizerOptions SyncReductionOnly() {
  OptimizerOptions options = OptimizerOptions::None();
  options.sync_reduction = true;
  return options;
}

// An executor over the fleet's sites.
std::unique_ptr<rpc::RpcExecutor> InProcessExecutor(TestFleet* fleet,
                                                    ExecutorOptions options) {
  return std::make_unique<rpc::RpcExecutor>(
      std::make_unique<rpc::InProcessTransport>(std::move(fleet->sites)),
      options);
}

// Same, plus endpoint 4: a second service hosting partition
// `replica_of`'s data, registered as its replica.
std::unique_ptr<rpc::RpcExecutor> WithReplica(TestFleet* fleet,
                                              size_t replica_of,
                                              ExecutorOptions options) {
  constexpr size_t kReplicaEndpoint = 4;
  Catalog replica_catalog;
  replica_catalog.Register("flow", fleet->parts[replica_of]);
  fleet->sites.emplace_back(static_cast<int>(kReplicaEndpoint),
                            std::move(replica_catalog));
  std::unique_ptr<rpc::RpcExecutor> executor =
      InProcessExecutor(fleet, options);
  executor->AddReplica(replica_of, kReplicaEndpoint);
  return executor;
}

// Sequential fan-out; the Parallel* tests switch to the concurrent
// default with ConcurrentFanOut.
ExecutorOptions FaultOptions(FaultInjector* injector, size_t retries) {
  ExecutorOptions options;
  options.fanout_threads = 1;
  options.fault_injector = injector;
  options.max_site_retries = retries;
  return options;
}

ExecutorOptions ConcurrentFanOut(ExecutorOptions options) {
  options.fanout_threads = 0;
  return options;
}

// Expected result when partition `lost` never contributes: centralized
// evaluation over the union of the surviving partitions.
Table DegradedExpected(const TestFleet& fleet, size_t lost) {
  Table survivors(fleet.parts[0].schema());
  for (size_t i = 0; i < fleet.parts.size(); ++i) {
    if (i == lost) continue;
    for (size_t r = 0; r < fleet.parts[i].num_rows(); ++r) {
      survivors.AppendUnchecked(fleet.parts[i].row(r));
    }
  }
  Catalog catalog;
  catalog.Register("flow", survivors);
  return EvalCentralized(SimpleQuery(), catalog).ValueOrDie();
}

TEST(FailoverTest, FailsOverToReplicaOnPermanentLoss) {
  Table flow = MakeFlow(600);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  PermanentSiteFailure injector(/*site=*/2);
  std::unique_ptr<rpc::RpcExecutor> executor =
      WithReplica(&fleet, 2, FaultOptions(&injector, /*retries=*/1));
  EXPECT_EQ(executor->num_sites(), 4u);
  ExecStats stats;
  Table result = executor->Execute(fleet.plan, &stats).ValueOrDie();
  EXPECT_TRUE(result.SameRows(fleet.expected));
  // The primary is consulted (and exhausted) every round; each of the 3
  // rounds fails over to the replica exactly once.
  EXPECT_EQ(stats.TotalSiteFailovers(), 3u);
  EXPECT_TRUE(stats.complete());
  EXPECT_TRUE(stats.lost_sites.empty());
}

TEST(FailoverTest, ParallelFailsOverToReplicaOnPermanentLoss) {
  Table flow = MakeFlow(600);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  PermanentSiteFailure injector(/*site=*/2);
  TestFleet sequential_fleet = fleet;
  Table expected =
      WithReplica(&sequential_fleet, 2, FaultOptions(&injector, /*retries=*/1))
          ->Execute(fleet.plan, nullptr)
          .ValueOrDie();

  std::unique_ptr<rpc::RpcExecutor> executor = WithReplica(
      &fleet, 2, ConcurrentFanOut(FaultOptions(&injector, /*retries=*/1)));
  ExecStats stats;
  Table result = executor->Execute(fleet.plan, &stats).ValueOrDie();
  EXPECT_TRUE(ExactlyEqual(result, expected));
  EXPECT_EQ(stats.TotalSiteFailovers(), 3u);
  EXPECT_TRUE(stats.complete());
}

TEST(FailoverTest, RpcProp2RoundFailsOverToReplicaEndpoint) {
  // A Prop. 2 plan's first round carries the base query, so it needs no
  // structure a replica lacks: with the primary of partition 2 gone, the
  // round fails over and the query completes exactly.
  GmdjExpr one_round = SimpleQuery();
  one_round.ops.resize(1);
  Table flow = MakeFlow(600);
  TestFleet fleet =
      MakeFleet(flow, SyncReductionOnly(), one_round).ValueOrDie();
  ASSERT_FALSE(fleet.plan.sync_base);
  ASSERT_EQ(fleet.plan.stages.size(), 1u);
  for (size_t fanout : {size_t{1}, size_t{0}}) {
    SCOPED_TRACE(fanout);
    TestFleet run = MakeFleet(flow, SyncReductionOnly(), one_round)
                        .ValueOrDie();
    PermanentSiteFailure injector(/*site=*/2);
    ExecutorOptions options = FaultOptions(&injector, /*retries=*/1);
    options.fanout_threads = fanout;
    std::unique_ptr<rpc::RpcExecutor> executor =
        WithReplica(&run, 2, options);
    ExecStats stats;
    Table result = executor->Execute(run.plan, &stats).ValueOrDie();
    EXPECT_TRUE(result.SameRows(fleet.expected));
    ASSERT_EQ(stats.rounds.size(), 1u);
    EXPECT_TRUE(stats.rounds[0].fused_base);
    EXPECT_EQ(stats.TotalSiteFailovers(), 1u);
    EXPECT_TRUE(stats.complete());
  }
}

TEST(FailoverTest, RpcUnsynchronizedRoundNeverLeavesItsPrimary) {
  // md1 of the sync-reduced SimpleQuery leaves its output at the sites
  // for md2, so over rpc it runs only where md2 will find that output:
  // the primary. A dead primary then fails the query, or under kDegrade
  // loses the partition — it never crashes a site and never returns
  // rows from a half-built structure. Transient faults on every round,
  // the carried md2 included, retry at the primary and stay exact.
  Table flow = MakeFlow(600);
  TestFleet reference = MakeFleet(flow, SyncReductionOnly()).ValueOrDie();
  ASSERT_FALSE(reference.plan.sync_base);
  ASSERT_FALSE(reference.plan.stages[0].sync_after);
  Table degraded = DegradedExpected(reference, 2);

  for (size_t fanout : {size_t{1}, size_t{0}}) {
    for (OnSiteLoss loss : {OnSiteLoss::kFail, OnSiteLoss::kDegrade}) {
      SCOPED_TRACE(StrCat("fanout ", fanout, ", degrade ",
                          loss == OnSiteLoss::kDegrade));
      TestFleet fleet = MakeFleet(flow, SyncReductionOnly()).ValueOrDie();
      PermanentSiteFailure injector(/*site=*/2);
      ExecutorOptions options = FaultOptions(&injector, /*retries=*/1);
      options.fanout_threads = fanout;
      options.on_site_loss = loss;
      std::unique_ptr<rpc::RpcExecutor> executor =
          WithReplica(&fleet, 2, options);
      ExecStats stats;
      Result<Table> result = executor->Execute(fleet.plan, &stats);
      if (loss == OnSiteLoss::kFail) {
        ASSERT_FALSE(result.ok());
        EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
        EXPECT_NE(result.status().message().find("md1"), std::string::npos)
            << result.status().ToString();
      } else {
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_TRUE(result->SameRows(degraded));
        EXPECT_EQ(stats.lost_sites, std::vector<int>{2});
      }
    }
    TestFleet fleet = MakeFleet(flow, SyncReductionOnly()).ValueOrDie();
    TransientFaultInjector transient(/*failures=*/1);
    ExecutorOptions options = FaultOptions(&transient, /*retries=*/2);
    options.fanout_threads = fanout;
    std::unique_ptr<rpc::RpcExecutor> executor =
        WithReplica(&fleet, 2, options);
    ExecStats stats;
    Table result = executor->Execute(fleet.plan, &stats).ValueOrDie();
    EXPECT_TRUE(result.SameRows(reference.expected));
    EXPECT_EQ(stats.TotalSiteFailovers(), 0u);
    EXPECT_GT(stats.TotalSiteRetries(), 0u);
  }
}

TEST(FailoverTest, WarehouseReplicationSurvivesPermanentLoss) {
  // SetReplication(k) registers k-1 extra copies of every partition
  // under fresh site ids, so any single primary can die.
  Table flow = MakeFlow(600);
  PermanentSiteFailure injector(/*site=*/2);
  ExecutorOptions options = FaultOptions(&injector, /*retries=*/1);
  DistributedWarehouse dw(4, NetworkConfig{}, options);
  dw.AddTablePartitionedBy("flow", flow, "SAS", {"NB"}).Check();
  dw.SetReplication(2);
  Table expected = dw.ExecuteCentralized(SimpleQuery()).ValueOrDie();
  ExecStats stats;
  Table result =
      dw.Execute(SimpleQuery(), OptimizerOptions::None(), &stats)
          .ValueOrDie();
  EXPECT_TRUE(result.SameRows(expected));
  EXPECT_GT(stats.TotalSiteFailovers(), 0u);
}

TEST(FailoverTest, FailoverCountsSurfaceInRoundStats) {
  Table flow = MakeFlow(400);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  PermanentSiteFailure injector(/*site=*/1);
  ExecStats stats;
  WithReplica(&fleet, 1, FaultOptions(&injector, /*retries=*/2))
      ->Execute(fleet.plan, &stats)
      .ValueOrDie();
  for (const RoundStats& r : stats.rounds) {
    SCOPED_TRACE(r.label);
    EXPECT_EQ(r.site_failovers, 1u);
    // The primary burned its full retry budget before failing over.
    EXPECT_GE(r.site_retries, 2u);
  }
}

// ---- Degraded execution (OnSiteLoss::kDegrade) ---------------------------

TEST(DegradeTest, UnreplicatedPermanentLossCompletesAndReportsTheSite) {
  Table flow = MakeFlow(600);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  Table expected = DegradedExpected(fleet, 2);
  PermanentSiteFailure injector(/*site=*/2);
  ExecutorOptions options = FaultOptions(&injector, /*retries=*/1);
  options.on_site_loss = OnSiteLoss::kDegrade;
  ExecStats stats;
  Table result = InProcessExecutor(&fleet, options)
                     ->Execute(fleet.plan, &stats)
                     .ValueOrDie();
  EXPECT_TRUE(result.SameRows(expected));
  EXPECT_FALSE(stats.complete());
  ASSERT_EQ(stats.lost_sites.size(), 1u);
  EXPECT_EQ(stats.lost_sites[0], 2);
  // Per-round completeness: the site is lost from the first round on.
  for (const RoundStats& r : stats.rounds) {
    SCOPED_TRACE(r.label);
    EXPECT_EQ(r.sites_lost, 1u);
  }
}

TEST(DegradeTest, DegradePrefersReplicaWhenOneExists) {
  Table flow = MakeFlow(600);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  PermanentSiteFailure injector(/*site=*/2);
  ExecutorOptions options = FaultOptions(&injector, /*retries=*/1);
  options.on_site_loss = OnSiteLoss::kDegrade;
  ExecStats stats;
  Table result = WithReplica(&fleet, 2, options)
                     ->Execute(fleet.plan, &stats)
                     .ValueOrDie();
  // With a live replica nothing is lost: kDegrade only covers the case
  // where the whole replica chain is gone.
  EXPECT_TRUE(result.SameRows(fleet.expected));
  EXPECT_TRUE(stats.complete());
  EXPECT_EQ(stats.TotalSiteFailovers(), 3u);
}

TEST(DegradeTest, ParallelDegradeCompletesOverSurvivors) {
  Table flow = MakeFlow(600);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  PermanentSiteFailure injector(/*site=*/2);
  ExecutorOptions options = FaultOptions(&injector, /*retries=*/1);
  options.on_site_loss = OnSiteLoss::kDegrade;
  TestFleet sequential_fleet = fleet;
  ExecStats seq_stats;
  Table expected = InProcessExecutor(&sequential_fleet, options)
                       ->Execute(fleet.plan, &seq_stats)
                       .ValueOrDie();

  ExecStats stats;
  Table result = InProcessExecutor(&fleet, ConcurrentFanOut(options))
                     ->Execute(fleet.plan, &stats)
                     .ValueOrDie();
  EXPECT_TRUE(ExactlyEqual(result, expected));
  ASSERT_EQ(stats.lost_sites.size(), 1u);
  EXPECT_EQ(stats.lost_sites[0], 2);
  ASSERT_EQ(stats.rounds.size(), seq_stats.rounds.size());
  for (size_t r = 0; r < stats.rounds.size(); ++r) {
    EXPECT_EQ(stats.rounds[r].sites_lost, seq_stats.rounds[r].sites_lost);
  }
}

// ---- Deadlines -----------------------------------------------------------

// Injector that makes every site round take at least `ms` milliseconds,
// so millisecond-scale deadlines fire deterministically.
class DelayInjector : public FaultInjector {
 public:
  explicit DelayInjector(uint64_t ms) : ms_(ms) {}
  Status BeforeSiteRound(int site, const std::string& round) override {
    (void)site;
    (void)round;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    return Status::OK();
  }

 private:
  uint64_t ms_;
};

TEST(DeadlineTest, QueryDeadlineSurfacesTyped) {
  Table flow = MakeFlow(400);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  DelayInjector injector(/*ms=*/5);
  ExecutorOptions options = FaultOptions(&injector, /*retries=*/3);
  options.query_deadline_ms = 1;
  rpc::RpcExecutor executor(
      std::make_unique<rpc::InProcessTransport>(std::move(fleet.sites)),
      options);
  auto result = executor.Execute(fleet.plan, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST(DeadlineTest, ParallelQueryDeadlineSurfacesTyped) {
  Table flow = MakeFlow(400);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  DelayInjector injector(/*ms=*/5);
  ExecutorOptions options = FaultOptions(&injector, /*retries=*/3);
  options.query_deadline_ms = 1;
  rpc::RpcExecutor executor(
      std::make_unique<rpc::InProcessTransport>(std::move(fleet.sites)),
      ConcurrentFanOut(options));
  auto result = executor.Execute(fleet.plan, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST(DeadlineTest, DeadlineFailuresDoNotRetryOrFailOver) {
  // A fired deadline is not a transient fault: retrying or failing over
  // would only burn more of a budget that is already gone.
  Table flow = MakeFlow(400);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  DelayInjector injector(/*ms=*/5);
  ExecutorOptions options = FaultOptions(&injector, /*retries=*/5);
  options.query_deadline_ms = 1;
  ExecStats stats;
  auto result = WithReplica(&fleet, 2, options)->Execute(fleet.plan, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  EXPECT_EQ(stats.TotalSiteFailovers(), 0u);
}

TEST(DeadlineTest, GenerousDeadlineDoesNotFire) {
  Table flow = MakeFlow(400);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  ExecutorOptions options;
  options.query_deadline_ms = 60'000;
  options.round_deadline_ms = 30'000;
  rpc::RpcExecutor executor(
      std::make_unique<rpc::InProcessTransport>(std::move(fleet.sites)),
      options);
  Table result = executor.Execute(fleet.plan, nullptr).ValueOrDie();
  EXPECT_TRUE(result.SameRows(fleet.expected));
}

TEST(DeadlineTest, CancellationStopsKernelEvaluation) {
  // A pre-cancelled token must stop EvalGmdjRound before (or between)
  // morsels and surface the latched status — the mechanism a fired
  // round deadline uses to stop in-flight site work.
  Table flow = MakeFlow(400);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  Table base = fleet.plan.base.Execute(fleet.sites[0].catalog()).ValueOrDie();
  CancellationToken token;
  token.Cancel(Status::DeadlineExceeded("test: cancelled before eval"));
  EvalContext context;
  context.cancellation = &token;
  auto result = fleet.sites[0].EvalGmdjRound(
      base, fleet.plan.stages[0].op, context);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
}

// ---- Cancellation --------------------------------------------------------

// Injector that cancels the query's QueryRun token — what
// QuerySession::Cancel does — when site 0 starts round `round`, and
// counts every attempt of that round per site id.
class CancelAtRoundInjector : public FaultInjector {
 public:
  CancelAtRoundInjector(CancellationToken* query, std::string round)
      : query_(query), round_(std::move(round)) {}

  Status BeforeSiteRound(int site, const std::string& round) override {
    if (round != round_) return Status::OK();
    std::lock_guard<std::mutex> lock(mu_);
    ++attempts_[site];
    if (site == 0) query_->Cancel(Status::Cancelled("test: query cancelled"));
    return Status::OK();
  }

  std::map<int, int> attempts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempts_;
  }

 private:
  CancellationToken* query_;
  std::string round_;
  mutable std::mutex mu_;
  std::map<int, int> attempts_;
};

// A cancelled query is not a lost site: under kDegrade the ladder must
// not retry, fail over or degrade the cancelled partitions away — the
// query surfaces Status::Cancelled.
void ExpectCancellationIsNotDegraded(bool concurrent) {
  Table flow = MakeFlow(600);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  CancellationToken query;
  CancelAtRoundInjector injector(
      &query, "md" + std::to_string(fleet.plan.stages.size()));
  ExecutorOptions options = FaultOptions(&injector, /*retries=*/2);
  options.on_site_loss = OnSiteLoss::kDegrade;
  if (concurrent) options = ConcurrentFanOut(options);
  std::unique_ptr<rpc::RpcExecutor> executor = WithReplica(&fleet, 1, options);
  QueryRun run;
  run.cancellation = &query;
  ExecStats stats;
  auto result = executor->Execute(fleet.plan, run, &stats);
  ASSERT_FALSE(result.ok()) << "lost sites: " << stats.lost_sites.size();
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_TRUE(stats.lost_sites.empty());
  EXPECT_EQ(stats.TotalSiteRetries(), 0u);
  EXPECT_EQ(stats.TotalSiteFailovers(), 0u);
  // No site attempted the cancelled round twice, and the replica
  // (endpoint 4) did not take it over.
  for (const auto& [site, attempts] : injector.attempts()) {
    EXPECT_EQ(attempts, 1) << "site " << site;
    EXPECT_LT(site, 4) << "failed over to replica " << site;
  }
}

TEST(CancelTest, DegradeDoesNotSwallowCancellation) {
  ExpectCancellationIsNotDegraded(/*concurrent=*/false);
}

TEST(CancelTest, ParallelDegradeDoesNotSwallowCancellation) {
  ExpectCancellationIsNotDegraded(/*concurrent=*/true);
}

// ---- Injector satellites -------------------------------------------------

TEST(FaultInjectorTest, TransientInjectorClearsTrackingOnSuccess) {
  // Regression: attempts_ grew one entry per (site, round) forever; a
  // long-lived injector across many queries leaked. Entries must be
  // erased once the pair is past its failure budget.
  Table flow = MakeFlow(200);
  TransientFaultInjector injector(/*failures=*/1);
  RunWithFaults(flow, &injector, /*retries=*/2, nullptr,
                OptimizerOptions::None())
      .ValueOrDie();
  EXPECT_EQ(injector.tracked_entries(), 0u);
  // And the schedule is reusable: the same injector fails each pair
  // once more on the next query.
  ExecStats stats;
  RunWithFaults(flow, &injector, /*retries=*/2, &stats,
                OptimizerOptions::None())
      .ValueOrDie();
  size_t total_retries = 0;
  for (const RoundStats& r : stats.rounds) total_retries += r.site_retries;
  EXPECT_EQ(total_retries, 12u);
  EXPECT_EQ(injector.tracked_entries(), 0u);
}

// Injector that corrupts a round *after* the site evaluated it — the
// response-lost case, distinct from BeforeSiteRound's request-lost.
class AfterRoundInjector : public FaultInjector {
 public:
  AfterRoundInjector(int site, std::string round)
      : site_(site), round_(std::move(round)) {}
  Status BeforeSiteRound(int site, const std::string& round) override {
    (void)site;
    (void)round;
    return Status::OK();
  }
  Status AfterSiteRound(int site, const std::string& round,
                        const Status& status) override {
    ++calls_;
    if (!status.ok()) statuses_seen_not_ok_ = true;
    if (site == site_ && round == round_ && !fired_) {
      fired_ = true;
      return Status::IOError("injected: response lost after evaluation");
    }
    return Status::OK();
  }
  int calls() const { return calls_; }
  bool fired() const { return fired_; }
  bool saw_non_ok() const { return statuses_seen_not_ok_; }

 private:
  int site_;
  std::string round_;
  int calls_ = 0;
  bool fired_ = false;
  bool statuses_seen_not_ok_ = false;
};

TEST(FaultInjectorTest, AfterSiteRoundFaultRecoversWithRetry) {
  Table flow = MakeFlow(600);
  TestFleet fleet = MakeFleet(flow, OptimizerOptions::None()).ValueOrDie();
  AfterRoundInjector injector(/*site=*/1, "md1");
  rpc::RpcExecutor executor(
      std::make_unique<rpc::InProcessTransport>(std::move(fleet.sites)),
      FaultOptions(&injector, /*retries=*/2));
  ExecStats stats;
  Table result = executor.Execute(fleet.plan, &stats).ValueOrDie();
  EXPECT_TRUE(result.SameRows(fleet.expected));
  EXPECT_TRUE(injector.fired());
  EXPECT_GT(injector.calls(), 0);
  EXPECT_EQ(stats.TotalSiteRetries(), 1u);
}

}  // namespace
}  // namespace skalla

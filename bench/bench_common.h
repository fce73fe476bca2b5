// Shared setup for the figure-reproduction benches: scaled TPC-R data,
// the paper's query shapes, and table-style output helpers.
//
// All benches print deterministic byte/tuple counts (exact, from real
// serialization) alongside wall-clock-derived timings (compute measured,
// communication modeled by the network cost model in net/network.h).

#ifndef SKALLA_BENCH_BENCH_COMMON_H_
#define SKALLA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "data/tpcr_gen.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "obs/obs.h"
#include "obs/session.h"
#include "opt/options.h"
#include "serve/session.h"
#include "storage/partition.h"

namespace skalla {
namespace bench {

// --- Observability harness -------------------------------------------------

// The --trace-out= / --metrics-out= command-line plumbing now lives in
// obs/session.h so the RPC tools share it; the benches keep the old name.
using ObsSession = obs::ObsSession;

// Columns the optimizer is given distribution knowledge about.
inline std::vector<std::string> TrackedColumns() {
  return {"NationKey", "CustKey", "CustName", "Clerk",
          "Quantity", "ExtendedPrice"};
}

// Generates TPCR and splits it 8 ways on NationKey (the paper's layout;
// CustKey and CustName become partition attributes too).
inline std::vector<Table> MakeTpcrPartitions(int64_t total_rows,
                                             int64_t num_customers,
                                             size_t num_partitions = 8,
                                             uint64_t seed = 42) {
  TpcrConfig config;
  config.seed = seed;
  config.num_rows = total_rows;
  config.num_customers = num_customers;
  Table tpcr = GenerateTpcr(config);
  return PartitionByModulo(tpcr, "NationKey", num_partitions).ValueOrDie();
}

// Builds a warehouse over the first `n` of the given partitions — the
// paper's speed-up methodology (fix the 8-way partitioned data set, vary
// the number of participating sites).
// The fig benches model a round as comm + slowest site + coordinator, so
// they evaluate sites one after another: concurrent sites on a machine
// with fewer cores than sites would inflate the slowest site's time.
inline ExecutorOptions SequentialFanOut() {
  ExecutorOptions options;
  options.fanout_threads = 1;
  return options;
}

inline DistributedWarehouse MakeWarehouse(
    const std::vector<Table>& partitions, size_t n, NetworkConfig net = {},
    ExecutorOptions exec_options = SequentialFanOut()) {
  DistributedWarehouse dw(n, net, exec_options);
  std::vector<Table> subset(partitions.begin(),
                            partitions.begin() + static_cast<int64_t>(n));
  dw.AddPartitionedTable("tpcr", std::move(subset), TrackedColumns())
      .Check();
  return dw;
}

inline ExprPtr GroupEq(const std::string& column) {
  return Eq(RCol(column), BCol(column));
}

// --- The serving path ------------------------------------------------------

// Runs `query` against `dw` through a one-off QuerySession — the public
// submit/future path every tool uses, so the benches measure the same
// code users run. A fresh session per call means an empty sub-aggregate
// cache: timings measure evaluation, never a cache hit.
inline Table Execute(const DistributedWarehouse& dw, const GmdjExpr& query,
                     const OptimizerOptions& opt,
                     ExecStats* stats = nullptr) {
  serve::SessionOptions session_options;
  session_options.exec = dw.exec_options();
  session_options.net = dw.net_config();
  session_options.optimize = opt;
  session_options.scheduler.max_concurrent_queries = 1;
  auto session = serve::QuerySession::Open(&dw, session_options).ValueOrDie();
  serve::QueryResult answer =
      session.Submit(query).ValueOrDie().result.get().ValueOrDie();
  if (stats != nullptr) *stats = std::move(answer.stats);
  return std::move(answer.table);
}

// Same, for an already-built plan on a caller-built executor: wraps it
// in a session and submits through it.
inline Table ExecutePlan(std::unique_ptr<rpc::RpcExecutor> executor,
                         const DistributedPlan& plan,
                         ExecStats* stats = nullptr) {
  serve::SessionOptions session_options;
  session_options.scheduler.max_concurrent_queries = 1;
  serve::QuerySession session =
      serve::QuerySession::Wrap(std::move(executor), session_options);
  serve::QueryResult answer =
      session.SubmitPlan(plan).result.get().ValueOrDie();
  if (stats != nullptr) *stats = std::move(answer.stats);
  return std::move(answer.table);
}

// --- The paper's query shapes -------------------------------------------

// "Group reduction query" (Fig. 2) and "synchronization reduction query"
// (Fig. 4): two chained GMDJs; the second references the first's
// aggregates (so it can NOT be coalesced). COUNT and AVG per operator,
// as in Sect. 5.1.
inline GmdjExpr CorrelatedQuery(const std::string& group_col) {
  GmdjExpr expr;
  expr.base = BaseQuery{"tpcr", {group_col}, true, nullptr};
  GmdjOp md1;
  md1.detail_table = "tpcr";
  md1.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt1"}, {AggKind::kAvg, "Quantity", "avg1"}},
      GroupEq(group_col)});
  GmdjOp md2;
  md2.detail_table = "tpcr";
  md2.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt2"},
       {AggKind::kAvg, "ExtendedPrice", "avg2"}},
      And(GroupEq(group_col), Ge(RCol("Quantity"), BCol("avg1")))});
  expr.ops = {md1, md2};
  return expr;
}

// "Coalescing query" (Fig. 3): two GMDJs whose conditions are mutually
// independent, so they coalesce into a single operator.
inline GmdjExpr CoalescingQuery(const std::string& group_col) {
  GmdjExpr expr;
  expr.base = BaseQuery{"tpcr", {group_col}, true, nullptr};
  GmdjOp md1;
  md1.detail_table = "tpcr";
  md1.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt1"}, {AggKind::kAvg, "Quantity", "avg1"}},
      GroupEq(group_col)});
  GmdjOp md2;
  md2.detail_table = "tpcr";
  md2.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt2"},
       {AggKind::kAvg, "ExtendedPrice", "avg2"}},
      And(GroupEq(group_col), Ge(RCol("Quantity"), Lit(Value(25))))});
  expr.ops = {md1, md2};
  return expr;
}

// "Combined reductions query" (Fig. 5): three GMDJs — a correlated pair
// plus a third coalescable operator, so coalescing, both group reductions
// and synchronization reduction all contribute.
inline GmdjExpr CombinedQuery(const std::string& group_col) {
  GmdjExpr expr = CorrelatedQuery(group_col);
  GmdjOp md3;
  md3.detail_table = "tpcr";
  md3.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt3"}},
      And(GroupEq(group_col), Le(RCol("Discount"), Lit(Value(0.05))))});
  expr.ops.push_back(md3);
  return expr;
}

// --- Output helpers -------------------------------------------------------

inline void PrintRule() {
  std::printf(
      "------------------------------------------------------------------"
      "----------\n");
}

inline void PrintSeriesHeader(const char* key = "sites") {
  std::printf("%5s  %-22s %12s %14s %12s %8s\n", key, "variant",
              "time_ms", "bytes", "tuples", "rounds");
  PrintRule();
}

inline void PrintSeriesRow(size_t sites, const std::string& variant,
                           const ExecStats& stats) {
  std::printf("%5zu  %-22s %12.2f %14llu %12llu %8zu\n", sites,
              variant.c_str(), stats.ResponseTime() * 1e3,
              static_cast<unsigned long long>(stats.TotalBytes()),
              static_cast<unsigned long long>(stats.TotalTuplesTransferred()),
              stats.NumSyncRounds());
}

}  // namespace bench
}  // namespace skalla

#endif  // SKALLA_BENCH_BENCH_COMMON_H_

// QuerySession: THE public entry point for running Skalla queries. One
// session = one shared pool of sites (in-process partitions or remote
// skalla-site processes) plus the scheduler that admits, runs, caches,
// and cancels many queries against it concurrently.
//
//   // In-process, against a warehouse:
//   SKALLA_ASSIGN_OR_RETURN(auto session,
//                           serve::QuerySession::Open(&warehouse, {}));
//   auto q = session.Submit(expr);        // returns immediately
//   auto r = q->result.get();             // Result<QueryResult>
//
//   // Remote, against running skalla-site processes:
//   SKALLA_ASSIGN_OR_RETURN(auto session,
//                           serve::QuerySession::Open(endpoints, opts));
//
// Everything below the session — RpcExecutor::Execute, the round
// driver, the scheduler — is library internals: tools, shells, and
// benches should submit through a session. The classic synchronous call
// is one line: Submit(...)->result.get().

#ifndef SKALLA_SERVE_SESSION_H_
#define SKALLA_SERVE_SESSION_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/gmdj.h"
#include "dist/warehouse.h"
#include "net/network.h"
#include "opt/optimizer.h"
#include "rpc/rpc_executor.h"
#include "rpc/tcp.h"
#include "serve/scheduler.h"

namespace skalla {
namespace serve {

struct SessionOptions {
  /// Engine configuration for the session's executor. For the warehouse
  /// path these replace the warehouse's own executor options (a session
  /// is a serving configuration of its own).
  ExecutorOptions exec;

  /// Network cost model for the in-process path (ignored over TCP —
  /// the network is real there).
  NetworkConfig net;

  /// Admission width and cache capacity. The default query deadline is
  /// exec.query_deadline_ms (counted from Submit).
  SchedulerOptions scheduler;

  /// How Submit(GmdjExpr) plans. Distribution-aware reductions apply
  /// only when the planner has partition statistics (the warehouse
  /// path); over rpc the distribution-independent subset applies.
  OptimizerOptions optimize = OptimizerOptions::All();

  /// Rpc path only: replica endpoints, as (partition, endpoint) pairs —
  /// endpoint indexes the endpoint list, partition the primaries.
  std::vector<std::pair<size_t, size_t>> replicas;
};

class QuerySession {
 public:
  /// How Submit(GmdjExpr) turns a query into a plan.
  using Planner = std::function<Result<DistributedPlan>(const GmdjExpr&)>;

  /// Opens a session over a warehouse's partitions: builds one
  /// persistent executor over in-process sites (shared by every query
  /// this session admits) and plans with the warehouse's distribution
  /// knowledge.
  /// `warehouse` is borrowed and must outlive the session.
  static Result<QuerySession> Open(const DistributedWarehouse* warehouse,
                                   SessionOptions options = {});

  /// Opens a session over running skalla-site processes: dials every
  /// endpoint now (errors surface here, not at the first query) and
  /// multiplexes all submitted queries over the shared connections.
  static Result<QuerySession> Open(std::vector<rpc::SiteEndpoint> endpoints,
                                   SessionOptions options = {});

  /// Wraps a caller-built executor (in-process or TCP transport) in a
  /// session. Plans with generic (distribution-free) optimization.
  static QuerySession Wrap(std::unique_ptr<rpc::RpcExecutor> executor,
                           SessionOptions options = {});

  /// Plans `query` and submits the plan; returns immediately. The
  /// returned Submission's future resolves to the answer (table +
  /// ExecStats) or the query's error.
  Result<QueryScheduler::Submission> Submit(const GmdjExpr& query,
                                            QueryOptions options = {});

  /// Submits an already-built plan (bypasses the session planner).
  QueryScheduler::Submission SubmitPlan(DistributedPlan plan,
                                        QueryOptions options = {});

  /// The session planner by itself, for EXPLAIN-style callers that want
  /// the plan before (or without) running it.
  Result<DistributedPlan> Plan(const GmdjExpr& query) const;

  /// Cancels an in-flight query by the id Submit returned. Queued
  /// queries resolve Cancelled without running; running ones stop at
  /// the next morsel/round boundary. False when unknown or finished.
  bool Cancel(uint64_t query_id) { return scheduler_->Cancel(query_id); }

  /// Tells the session (and its sub-aggregate cache) that partition
  /// data changed: cached results of the old epoch are dropped.
  void InvalidateCachedResults() { scheduler_->BumpPartitionEpoch(); }

  QueryScheduler& scheduler() { return *scheduler_; }
  size_t num_sites() const { return executor_->num_sites(); }

  /// The session's executor (for site stats / site shutdown). Never
  /// null: in-process sessions run the same RpcExecutor over an
  /// in-process transport.
  rpc::RpcExecutor* rpc_executor() { return executor_.get(); }

 private:
  QuerySession() = default;

  std::unique_ptr<rpc::RpcExecutor> executor_;
  std::unique_ptr<QueryScheduler> scheduler_;
  Planner planner_;
};

}  // namespace serve
}  // namespace skalla

#endif  // SKALLA_SERVE_SESSION_H_

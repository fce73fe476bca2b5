#include "serve/session.h"

#include "common/macros.h"
#include "rpc/tcp.h"

namespace skalla {
namespace serve {

namespace {

// Distribution-free planning: what a coordinator without partition
// statistics can do (the rpc and Wrap paths). The optimizer applies the
// distribution-independent subset of `options`.
QuerySession::Planner GenericPlanner(OptimizerOptions options,
                                     size_t num_sites) {
  return [options, num_sites](
             const GmdjExpr& expr) -> Result<DistributedPlan> {
    Egil optimizer(options, num_sites);
    return optimizer.Optimize(expr);
  };
}

}  // namespace

Result<QuerySession> QuerySession::Open(const DistributedWarehouse* warehouse,
                                        SessionOptions options) {
  if (warehouse == nullptr) {
    return Status::InvalidArgument("QuerySession::Open: null warehouse");
  }
  QuerySession session;
  session.executor_ = warehouse->MakeExecutor(options.net, options.exec);
  // Fold the warehouse's data epoch into the cache epoch: a ReloadTable
  // (or table replacement) invalidates this session's cached results
  // without any explicit InvalidateCachedResults call. The handle is a
  // shared_ptr, so the wiring survives the warehouse being moved.
  if (!options.scheduler.partition_epoch_source) {
    auto epoch = warehouse->data_epoch_handle();
    options.scheduler.partition_epoch_source = [epoch] {
      return epoch->load(std::memory_order_relaxed);
    };
  }
  session.scheduler_ = std::make_unique<QueryScheduler>(
      session.executor_.get(), options.scheduler);
  const OptimizerOptions optimize = options.optimize;
  session.planner_ = [warehouse, optimize](const GmdjExpr& expr) {
    return warehouse->Plan(expr, optimize);
  };
  return session;
}

Result<QuerySession> QuerySession::Open(
    std::vector<rpc::SiteEndpoint> endpoints, SessionOptions options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("QuerySession::Open: no endpoints");
  }
  auto transport =
      std::make_unique<rpc::TcpTransport>(std::move(endpoints));
  auto executor = std::make_unique<rpc::RpcExecutor>(std::move(transport),
                                                     options.exec);
  for (const auto& [partition, endpoint] : options.replicas) {
    executor->AddReplica(partition, endpoint);
  }
  SKALLA_RETURN_NOT_OK(executor->Connect());

  QuerySession session;
  session.executor_ = std::move(executor);
  session.scheduler_ = std::make_unique<QueryScheduler>(
      session.executor_.get(), options.scheduler);
  session.planner_ =
      GenericPlanner(options.optimize, session.executor_->num_sites());
  return session;
}

QuerySession QuerySession::Wrap(std::unique_ptr<rpc::RpcExecutor> executor,
                                SessionOptions options) {
  QuerySession session;
  session.executor_ = std::move(executor);
  session.scheduler_ = std::make_unique<QueryScheduler>(
      session.executor_.get(), options.scheduler);
  session.planner_ =
      GenericPlanner(options.optimize, session.executor_->num_sites());
  return session;
}

Result<QueryScheduler::Submission> QuerySession::Submit(
    const GmdjExpr& query, QueryOptions options) {
  SKALLA_ASSIGN_OR_RETURN(DistributedPlan plan, planner_(query));
  return SubmitPlan(std::move(plan), options);
}

QueryScheduler::Submission QuerySession::SubmitPlan(DistributedPlan plan,
                                                    QueryOptions options) {
  return scheduler_->Submit(std::move(plan), options);
}

Result<DistributedPlan> QuerySession::Plan(const GmdjExpr& query) const {
  return planner_(query);
}

}  // namespace serve
}  // namespace skalla

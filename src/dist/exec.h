// DistributedExecutor: Alg. GMDJDistribEval over in-process Skalla sites
// and a simulated network, producing the query result plus detailed
// per-round cost accounting (bytes, tuples, site/coordinator compute
// time, modeled communication time). The round protocol itself is the
// shared star driver (dist/star_driver.h); this engine supplies the
// in-process link. Implements the unified skalla::Executor interface
// (dist/executor.h).

#ifndef SKALLA_DIST_EXEC_H_
#define SKALLA_DIST_EXEC_H_

#include <map>
#include <vector>

#include "common/result.h"
#include "dist/executor.h"
#include "dist/plan.h"
#include "dist/site.h"
#include "dist/star_driver.h"
#include "net/network.h"

namespace skalla {

/// The in-process engine's sites: partition i's primary plus the replicas
/// registered for it.
struct SiteFleet {
  std::vector<Site> sites;
  std::map<size_t, std::vector<Site>> replicas;

  /// Site ids of partition i's chain: primary, then replicas in
  /// registration order.
  std::vector<int> ReplicaIds(size_t i) const;
  /// Replica r of partition i (r == 0 is the primary).
  Site& Replica(size_t i, size_t r);
  /// Validates the replica registrations.
  Status Validate() const;
};

/// Star executor. Owns the sites and the simulated network. A round's
/// sites run concurrently by default, with fragments merging in site
/// order as they arrive; options.fanout_threads = 1 runs them one after
/// another (results stay byte-identical either way).
class DistributedExecutor : public Executor {
 public:
  explicit DistributedExecutor(std::vector<Site> sites,
                               NetworkConfig net_config = {},
                               ExecutorOptions options = {});

  using Executor::Execute;
  Result<Table> Execute(const DistributedPlan& plan, const QueryRun& run,
                        ExecStats* stats) override;

  /// Registers `replica` as another host of partition `partition`'s data
  /// (same catalog contents, its own site id). When the primary exhausts
  /// its retries, rounds fail over to replicas in registration order.
  void AddReplica(size_t partition, Site replica);

  const char* name() const override { return "star"; }
  size_t num_sites() const override { return fleet_.sites.size(); }
  const std::vector<Site>& sites() const { return fleet_.sites; }
  SimulatedNetwork& network() { return network_; }

 private:
  SiteFleet fleet_;
  SimulatedNetwork network_;
  ExecutorOptions options_;
};

}  // namespace skalla

#endif  // SKALLA_DIST_EXEC_H_

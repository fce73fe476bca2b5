// Multi-tier coordinator architecture — the first of the paper's "future
// research topics" (Sect. 6): instead of every site talking to one
// coordinator (a star), sites hang off a tree of coordinators. Because
// super-aggregation is associative (Theorem 1 merges compose), each
// internal coordinator merges its children's partial base-result
// structures and forwards one merged partial upward; the root finalizes.
// Downward, the global structure is relayed level by level, with
// distribution-aware group reduction pushed down the tree: a fragment
// travels into a subtree only if some descendant site's ¬ψ_i accepts it.
//
// The payoff is at the root: with n sites and fanout f, the root link
// carries f partials per round instead of n — the star topology's
// quadratic coordinator traffic becomes logarithmic in depth.

#ifndef SKALLA_DIST_TREE_H_
#define SKALLA_DIST_TREE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dist/executor.h"
#include "dist/plan.h"
#include "dist/site.h"
#include "dist/star_driver.h"
#include "net/network.h"

namespace skalla {

/// A tree of coordinators over the sites. Node 0 is the root; every site
/// is attached to exactly one node.
struct CoordinatorTree {
  struct Node {
    int parent = -1;                // -1 for the root.
    std::vector<int> child_nodes;   // Indices into `nodes`.
    std::vector<int> child_sites;   // Site indices (leaves).
    size_t depth = 0;
  };

  std::vector<Node> nodes;

  /// Builds a balanced tree with the given fanout: sites are grouped
  /// `fanout` per leaf coordinator, leaf coordinators are grouped
  /// `fanout` per parent, and so on up to a single root. fanout >= n
  /// degenerates to the flat star topology.
  static CoordinatorTree Balanced(size_t num_sites, size_t fanout);

  size_t depth() const;
  std::string ToString() const;

  /// All site indices in the subtree rooted at `node`.
  std::vector<int> SitesUnder(int node) const;
};

/// Executes DistributedPlans over a coordinator tree. Results are
/// bit-identical to DistributedExecutor's; only the traffic pattern and
/// cost change. Implements the unified skalla::Executor interface.
///
/// Accounting: ExecStats byte/tuple fields split by direction — shipments
/// down the tree (toward the sites) count as *_to_sites, shipments up
/// (toward the root) as *_to_coord, over every link. RoundStats.root_bytes
/// isolates the root's own links (the star topology's bottleneck).
/// coord_time and comm_time fold per-node costs as the sum over levels of
/// the per-level maximum (levels are sequential, nodes within a level work
/// in parallel).
///
/// With coordinator_shards > 1, every tier's coordinator shards its merge
/// structure; one merge pool is shared across all tiers. Sites evaluate
/// sequentially (parallel_sites is ignored; the cost model already
/// charges the per-level maximum); ship_block_rows does not apply.
class TreeExecutor : public Executor {
 public:
  TreeExecutor(std::vector<Site> sites, CoordinatorTree tree,
               NetworkConfig net_config = {}, ExecutorOptions options = {});

  using Executor::Execute;
  Result<Table> Execute(const DistributedPlan& plan, const QueryRun& run,
                        ExecStats* stats) override;

  /// Registers `replica` as another host of partition `partition`'s data
  /// (same catalog contents, its own site id); rounds fail over to
  /// replicas in registration order when the primary exhausts retries.
  void AddReplica(size_t partition, Site replica);

  const char* name() const override { return "tree"; }
  size_t num_sites() const override { return fleet_.sites.size(); }
  const CoordinatorTree& tree() const { return tree_; }

 private:
  SiteFleet fleet_;
  CoordinatorTree tree_;
  SimulatedNetwork network_;
  ExecutorOptions options_;
};

}  // namespace skalla

#endif  // SKALLA_DIST_TREE_H_

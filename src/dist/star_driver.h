// The star round protocol — Alg. GMDJDistribEval — written once.
// RunStarPlan drives a DistributedPlan: a base round,
// then per GMDJ round it distributes the base-result structure X (with
// distribution-aware reduction and the S_MD ⊂ S_B site skip), evaluates
// sub-aggregates at the sites through the retry -> failover -> degrade
// ladder, and synchronizes the fragments at the coordinator. It owns all
// per-round accounting (RoundStats, site profiles, lost sites).
//
// How a site is reached — request encoding, per-query teardown,
// connection locking — sits behind a small per-Execute SiteLink,
// implemented by RpcExecutor (rpc/rpc_executor.cc) over any Transport.
//
// Fan-out: by default a round's sites run concurrently, one worker per
// site, so a round costs its slowest site rather than the sum of them;
// options.fanout_threads = 1 runs them one after another on the calling
// thread, k > 1 on a pool of k workers. Either way the coordinator merges
// fragment i as soon as fragments 0..i have arrived, so a concurrent run
// overlaps merging with slower sites (Sect. 3.2's incremental
// synchronization) and still produces output byte-identical to the
// sequential merge. RoundStats::fanout_wait reports how long the
// coordinator waited on the sites.

#ifndef SKALLA_DIST_STAR_DRIVER_H_
#define SKALLA_DIST_STAR_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "core/eval_context.h"
#include "dist/executor.h"
#include "dist/plan.h"
#include "storage/table.h"
#include "types/schema.h"

namespace skalla {

/// One GMDJDistribEval round as the driver hands it to a SiteLink. The
/// base round is synchronized whenever it runs: a plan that skips the
/// base synchronization (Prop. 2) sends no base round at all.
struct SiteRound {
  /// "base", "md1", ...: the fault injector's round key.
  std::string label;
  /// The base query, when the round evaluates it: the synchronized base
  /// round (no `stage`), or a Prop. 2 plan's first GMDJ round, where each
  /// site computes its B_i and evaluates `stage` over it in one request.
  const BaseQuery* base = nullptr;
  /// The GMDJ round's stage; nullptr for the base round.
  const PlanStage* stage = nullptr;
  /// Fragments return to the coordinator; otherwise outputs stay at the
  /// sites as the next round's carried-over structures.
  bool synchronized = false;
  /// The round needs no carried-over site state (it evaluates the base
  /// query, or X ships with it).
  bool self_contained = true;
  /// Site evaluation context: cancellation (the armed round token),
  /// query id, the round span as trace parent, and for GMDJ rounds the
  /// StageEvalContext settings.
  EvalContext eval;
  /// The armed round budget in milliseconds, 0 = unbounded.
  uint64_t deadline_ms = 0;
};

/// Transfer accounting for one site in one round, summed over every
/// attempt. Written only by that site's task.
struct SiteTraffic {
  uint64_t bytes_to_sites = 0;   // accounted X payload bytes
  uint64_t tuples_to_sites = 0;
  double comm_time = 0;          // modeled time of the X shipment
  uint64_t wire_bytes = 0;       // framed round traffic, retries included
};

/// What one site-round attempt reported besides its fragment. Only the
/// successful attempt's report is accounted.
struct SiteAttempt {
  SiteRoundProfile profile;
  uint64_t bytes_to_coord = 0;  // accounted fragment payload bytes
  double comm_time = 0;         // modeled time of the fragment shipment
};

/// How the driver reaches the sites of one execution. Calls for site i
/// come from one task at a time (a pool thread under a concurrent
/// fan-out), so per-site link state needs no locking.
class SiteLink {
 public:
  virtual ~SiteLink() = default;

  /// Number of partitions (primary sites).
  virtual size_t num_sites() const = 0;

  /// Schema of a site-resident relation.
  virtual Result<SchemaPtr> TableSchema(const std::string& table) = 0;

  /// Site ids of partition i's evaluation chain for `round` (primary
  /// first). A link whose sites hold the carried-over structures
  /// restricts rounds that read or leave one to the primary.
  virtual std::vector<int> ReplicaChain(size_t i, const SiteRound& round) = 0;

  /// Ships `x` (X, already reduction-filtered for site i) to site i.
  virtual Status ShipBase(size_t i, const Table& x, SiteTraffic* traffic) = 0;

  /// One attempt of `round` at replica r of partition i. Returns the
  /// fragment (empty when the round is not synchronized) and fills
  /// *attempt.
  virtual Result<Table> Attempt(size_t i, size_t r, const SiteRound& round,
                                SiteAttempt* attempt,
                                SiteTraffic* traffic) = 0;
};

/// Runs `plan` over `link` under the per-submission parameters in `run`;
/// returns the final base-result structure. `stats` (may be nullptr)
/// receives per-round accounting.
Result<Table> RunStarPlan(const DistributedPlan& plan, const QueryRun& run,
                          const ExecutorOptions& options, SiteLink& link,
                          ExecStats* stats);

/// Rejects plans no engine can run over `num_sites` sites: no sites, an
/// unsynchronized final stage (or base-only plan), and per-site filter
/// lists of the wrong length.
Status ValidatePlan(const DistributedPlan& plan, size_t num_sites);

/// Rejects replicas registered for a partition that does not exist.
/// `replicas` maps partition -> replicas (any mapped type).
template <typename ReplicaMap>
Status ValidateReplicaPartitions(const ReplicaMap& replicas,
                                 size_t num_sites) {
  for (const auto& entry : replicas) {
    if (entry.first >= num_sites) {
      return Status::InvalidArgument(
          StrCat("replica registered for partition ", entry.first,
                 " but only ", num_sites, " partitions exist"));
    }
  }
  return Status::OK();
}

}  // namespace skalla

#endif  // SKALLA_DIST_STAR_DRIVER_H_

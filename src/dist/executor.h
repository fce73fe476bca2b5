// The executor vocabulary: ExecutorOptions, QueryRun, ExecStats and the
// retry ladder. One executor class uses it, rpc::RpcExecutor
// (rpc/rpc_executor.h), which runs the one round driver
// (rpc/star_driver.cc) over a Transport — in-process SiteServices (what
// DistributedWarehouse runs on) or skalla-site processes over TCP. It is
// configured through ExecutorOptions and reports per-round accounting
// into ExecStats. Results are bit-identical across transports — same
// rows in the same order, since the driver merges fragments in site
// order — and so are the accounted payload bytes and tuples.
//
// See docs/EXECUTORS.md for the option-by-option semantics.

#ifndef SKALLA_DIST_EXECUTOR_H_
#define SKALLA_DIST_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "core/cancellation.h"
#include "core/eval_context.h"
#include "dist/fault.h"
#include "dist/plan.h"
#include "storage/chunk.h"
#include "storage/table.h"

namespace skalla {

/// What an engine does when every replica of a partition is lost (all
/// retries and failovers exhausted).
enum class OnSiteLoss {
  /// Surface the error; the query fails (default).
  kFail,
  /// Complete the query over the surviving sites. The answer is partial:
  /// the lost partition's rows never contribute. RoundStats::sites_lost
  /// and ExecStats::lost_sites report exactly what is missing so callers
  /// can tell exact answers from degraded ones.
  kDegrade,
};

/// Executor options. Every field is honored over every transport
/// (docs/EXECUTORS.md); none of the knobs changes query results or
/// transfer byte counts.
struct ExecutorOptions {
  /// How a round fans out to its sites: 0 (default) = concurrently, one
  /// worker per site; 1 = one site after another, in site order, on the
  /// calling thread; k = a pool of k workers. The coordinator merges
  /// fragment i as soon as fragments 0..i have arrived, so a round costs
  /// its slowest site, and results, byte counts and per-site profiles are
  /// identical for every value. 1 gives stable per-site compute timings
  /// (the in-process fig benches' modeled time). For rpc, requests fan
  /// out over the per-site connections.
  size_t fanout_threads = 0;

  /// Fault hook (dist/fault.h); nullptr = no injection. Not owned.
  FaultInjector* fault_injector = nullptr;

  /// How many times a failed site round is re-attempted before the
  /// failure escalates (to a replica when one exists, else to the
  /// failure surfacing / degrading). Recovery re-runs the round against
  /// the site's durable local partition.
  size_t max_site_retries = 0;

  /// Escalation policy once a partition is lost (every replica
  /// exhausted its retries).
  OnSiteLoss on_site_loss = OnSiteLoss::kFail;

  /// Deadline for one round / the whole query, in milliseconds; 0 =
  /// unbounded. A fired deadline cancels in-flight site evaluation via
  /// the CancellationToken in EvalContext (morsel-granular, so the grace
  /// period is bounded) and surfaces as Status::DeadlineExceeded. The
  /// rpc executor additionally ships the remaining budget to site
  /// servers with each round request. Under a QueryScheduler the query
  /// deadline is the default for every submission and counts from
  /// Submit, queue wait included.
  uint64_t round_deadline_ms = 0;
  uint64_t query_deadline_ms = 0;
};

/// Per-submission parameters, distinct from the per-engine
/// ExecutorOptions an executor is constructed around: ExecutorOptions
/// describe the engine (fan-out, fault policy, deadlines), a QueryRun
/// describes one query flowing through it. The scheduler submits many
/// QueryRuns against one executor concurrently; each carries its own
/// identity, cancellation hook, and budget carve-outs. Every field's
/// zero value means "inherit from ExecutorOptions / assign for me", so
/// `Execute(plan, {}, &stats)` behaves exactly like the classic
/// two-argument call.
struct QueryRun {
  /// Query id tagging spans/metrics and (rpc) every round frame.
  /// 0 = allocate a fresh id via obs::NextQueryId().
  uint64_t query_id = 0;

  /// External cancellation hook (not owned, may be nullptr): the engines
  /// chain every round token under it, so cancelling this token —
  /// QuerySession::Cancel does — stops in-flight evaluation at the next
  /// morsel boundary and surfaces as Status::Cancelled. Must outlive the
  /// Execute call.
  CancellationToken* cancellation = nullptr;

  /// Per-query deadline override in milliseconds; 0 = inherit
  /// options.query_deadline_ms. The scheduler carves per-query budgets
  /// out of a global limit here (queue wait included).
  uint64_t query_deadline_ms = 0;
};

/// The query id this run executes under: the run's own id when set, a
/// freshly allocated obs::NextQueryId() otherwise.
uint64_t ResolveQueryId(const QueryRun& run);

/// The EvalContext a site evaluates `stage` with: sub-aggregate mode when
/// the stage synchronizes, and the __rng indicator when it additionally
/// runs the distribution-independent group reduction (Prop. 1). The
/// kernel and its worker count are each site's own (Site::engine,
/// EvalContext's one-worker default), not the coordinator's.
EvalContext StageEvalContext(const PlanStage& stage);

/// What one site measured evaluating one round, as reported back to the
/// coordinator: filled from the RoundProfile each kRoundResult carries.
struct SiteRoundProfile {
  int site_id = 0;
  uint64_t wall_us = 0;
  uint64_t eval_us = 0;
  uint64_t morsel_us = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t index_hits = 0;
  uint64_t bytes_in = 0;   // table payload bytes shipped to the site
  uint64_t bytes_out = 0;  // table payload bytes shipped back
  uint64_t result_rows = 0;
  uint64_t duplicate_rounds = 0;  // idempotency-cache replays (rpc only)
  uint64_t chaos_faults = 0;      // transport faults injected (rpc only)
  uint64_t chunks_pruned = 0;     // chunks skipped unpinned by stat pruning
  uint64_t pages_loaded = 0;      // column pages the round's pins loaded
  uint64_t bytes_loaded = 0;      // their estimated resident bytes
  /// Engines the site's evaluation actually used this round
  /// (kEngineBitRow / kEngineBitColumnar OR-ed; see
  /// EvalProfile::engines_used). Base rounds always report
  /// kEngineBitColumnar: the base-query scan is columnar at any engine.
  uint8_t engines_used = 0;
  /// A fused_base round's site evaluated B_i and the GMDJ operator in one
  /// pass; false where it ran the base scan and then the GMDJ kernel
  /// (shapes the fused pass does not cover, or the row oracle).
  bool fused = false;
};

/// Cost accounting for one round (base stage or one GMDJ stage).
struct RoundStats {
  std::string label;
  bool synchronized = false;
  /// The round computed each site's base B_i itself: a Prop. 2 plan's
  /// first GMDJ round, which carries the base query (no base round ran
  /// before it).
  bool fused_base = false;

  uint64_t bytes_to_sites = 0;
  uint64_t bytes_to_coord = 0;
  uint64_t tuples_to_sites = 0;
  uint64_t tuples_to_coord = 0;

  /// Sites that sat this round out: distribution-aware analysis proved
  /// they hold no group that could match (the paper's S_MD ⊂ S_B case).
  size_t sites_skipped = 0;

  /// Site-round attempts that failed and were retried.
  size_t site_retries = 0;

  /// Rounds that exhausted their retries at one replica and moved to the
  /// next (each primary->replica or replica->replica hop counts once).
  size_t site_failovers = 0;

  /// Partitions whose data is missing from this round's answer
  /// (cumulative over the query so far; only ever non-zero under
  /// OnSiteLoss::kDegrade). Zero means the round is complete.
  size_t sites_lost = 0;

  /// Site compute: max over sites (parallel response time) and total work.
  double site_time_max = 0;
  double site_time_sum = 0;
  /// Coordinator compute: reduction filtering, merging, finalizing.
  double coord_time = 0;
  /// Modeled communication time of the round's accounted shipments
  /// (Transport::TransferTime: the net/network.h model in-process; zero
  /// over real sockets, whose cost is in site_time_* and wall_time).
  double comm_time = 0;
  /// Real elapsed duration of the round; under a concurrent fan-out it
  /// reflects the site/merge overlap.
  double wall_time = 0;
  /// Time the coordinator thread spent in the fan-out waiting for the
  /// next in-order fragment, its own merge time excluded: the sum of the
  /// sites with fanout_threads = 1, about the slowest site when they run
  /// concurrently. Always <= wall_time.
  double fanout_wait = 0;

  /// Per-site profiles for this round, in partition order; sites skipped
  /// or lost this round have none.
  std::vector<SiteRoundProfile> site_profiles;

  /// Framed wire bytes this round moved (headers + payloads + CRCs);
  /// always >= bytes_to_sites + bytes_to_coord, since the
  /// byte-accounting fields count table payload bytes only.
  uint64_t wire_bytes = 0;

  /// Contribution of this round to plan response time.
  double ResponseTime() const {
    return comm_time + site_time_max + coord_time;
  }
};

/// Cost accounting for a whole plan execution.
struct ExecStats {
  std::vector<RoundStats> rounds;

  /// Primary site ids of partitions that were lost and (under
  /// OnSiteLoss::kDegrade) excluded from the answer, sorted by id.
  /// Empty means the answer is exact.
  std::vector<int> lost_sites;

  /// Coordinator-assigned query id: every span and metric the execution
  /// recorded is tagged with it (obs::QueryIdScope). 0 = untagged.
  uint64_t query_id = 0;

  /// The answer was served from the coordinator's SubAggregateCache
  /// (serve/cache.h): no evaluation rounds ran, `rounds` is empty, and
  /// no bytes moved. Only the serving layer ever sets this.
  bool from_cache = false;

  /// GMDJ kernels used across the execution's GMDJ rounds
  /// (kEngineBitRow / kEngineBitColumnar OR-ed over their
  /// SiteRoundProfile::engines_used; EngineSetToString renders it). The
  /// base round is left out: its scan is columnar whatever kernel the
  /// sites run (Site::engine). EXPLAIN ANALYZE prints it per site and in
  /// the totals line.
  uint8_t engines_used = 0;

  /// Framed wire bytes this execution's rounds moved: the sum of
  /// RoundStats::wire_bytes. The once-per-session hello/catalog traffic
  /// and the best-effort kEndPlan after the query are not counted.
  uint64_t total_wire_bytes = 0;

  /// Replica failovers performed across all rounds.
  uint64_t TotalSiteFailovers() const;
  /// Site-round retry attempts across all rounds.
  uint64_t TotalSiteRetries() const;
  /// True when no partition's data is missing from the answer.
  bool complete() const { return lost_sites.empty(); }

  uint64_t TotalBytes() const;
  uint64_t TotalBytesToSites() const;
  uint64_t TotalBytesToCoord() const;
  uint64_t TotalTuplesTransferred() const;
  double TotalSiteTimeMax() const;
  double TotalSiteTimeSum() const;
  double TotalCoordTime() const;
  double TotalCommTime() const;

  /// Modeled end-to-end response time: per round, communication plus the
  /// slowest site plus coordinator work.
  double ResponseTime() const;

  /// Number of synchronization rounds performed.
  size_t NumSyncRounds() const;

  std::string ToString() const;
};

/// Per-site-round retry/failover accounting, filled by
/// ExecuteSiteRoundReplicated (single-writer; the caller folds it into
/// RoundStats under its own locking discipline).
struct SiteRoundCounts {
  size_t retries = 0;
  size_t failovers = 0;
};

/// The full escalation ladder for one partition's round: run the retry
/// policy at the primary (replica 0); when it exhausts its budget, fail
/// over to the next replica and repeat. `replica_site_ids[r]` is the
/// site id of replica r (index 0 = primary) — each replica is consulted
/// in the fault injector under its *own* id, so a primary's permanent
/// failure does not condemn its replicas. `attempt(r)` evaluates the
/// round at replica r; because every replica holds the same partition
/// and the round runs under the same EvalContext, a failed-over round's
/// result is byte-identical to the primary's. Deadline and cancellation
/// failures do not fail over (the budget, or the caller, is gone
/// everywhere), nor does anything once `cancel` is cancelled. Returns the
/// last replica's error when all are exhausted.
Result<ChunkPtr> ExecuteSiteRoundReplicated(
    const ExecutorOptions& options, const std::vector<int>& replica_site_ids,
    const std::string& round,
    const std::function<Result<ChunkPtr>(size_t)>& attempt,
    SiteRoundCounts* counts, CancellationToken* cancel = nullptr);

/// The degrade rung of the ladder: whether a partition whose replica
/// chain failed with `loss` drops out of the answer (OnSiteLoss::kDegrade)
/// instead of failing the query. A fired deadline or a cancelled query is
/// never degraded away — the budget, or the caller, is gone for every
/// partition alike.
bool DegradesOnLoss(const ExecutorOptions& options, const Status& loss);

/// Per-query deadline bookkeeping: one instance
/// per Execute() call; ArmRound arms a round's CancellationToken with
/// the tighter of round_deadline_ms and the remaining query budget, or
/// returns DeadlineExceeded outright when the query budget is already
/// spent. With neither deadline configured the token stays unarmed
/// (Check() is always OK), so the plumbing costs nothing.
class QueryDeadline {
 public:
  /// The run's query_deadline_ms overrides the engine default when
  /// non-zero, and the run's external cancellation token (when present)
  /// is chained under every round token ArmRound arms — so
  /// QuerySession::Cancel propagates into morsel loops through the same
  /// polling the deadlines use.
  QueryDeadline(const ExecutorOptions& options, const QueryRun& run)
      : round_ms_(options.round_deadline_ms),
        query_ms_(run.query_deadline_ms > 0 ? run.query_deadline_ms
                                            : options.query_deadline_ms),
        external_(run.cancellation) {}

  /// `budget_ms` (may be nullptr) receives the armed budget, 0 = none —
  /// what the rpc engine ships to its sites with each round request.
  Status ArmRound(const std::string& round, CancellationToken* token,
                  uint64_t* budget_ms = nullptr) const;

  /// Milliseconds of query budget left: 0 = spent, negative = unbounded.
  int64_t RemainingQueryMs() const;

 private:
  uint64_t round_ms_;
  uint64_t query_ms_;
  CancellationToken* external_ = nullptr;  // not owned, may be nullptr
  Stopwatch timer_;
};

/// Rows of `table` satisfying `predicate`, a base-side expression (the
/// coordinator's distribution-aware reduction filter, Theorem 4).
Result<Table> FilterBaseRows(const Table& table, const ExprPtr& predicate);

/// Drops rows whose `__rng` indicator is 0 and projects the indicator
/// column away (Prop. 1 site-side group reduction), at the site service
/// before the fragment ships.
Result<Table> ApplyRngFilter(const Table& h);

}  // namespace skalla

#endif  // SKALLA_DIST_EXECUTOR_H_

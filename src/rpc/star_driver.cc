// The star round protocol — Alg. GMDJDistribEval — written once, as
// RpcExecutor::RunStarPlan. It drives a DistributedPlan: a base round,
// then per GMDJ round it distributes the base-result structure X (with
// distribution-aware reduction and the S_MD ⊂ S_B site skip), evaluates
// sub-aggregates at the sites through the retry -> failover -> degrade
// ladder, and synchronizes the fragments at the coordinator. It owns all
// per-round accounting (RoundStats, site profiles, lost sites).
//
// How a site is reached — request encoding, per-query teardown,
// connection locking — sits in RpcExecutor::Link, one per Execute, over
// the executor's Transport.
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

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dist/coordinator.h"
#include "net/serde.h"
#include "obs/obs.h"
#include "rpc/plan_serde.h"
#include "rpc/rpc_executor.h"

namespace skalla {
namespace rpc {

namespace {

// One GMDJDistribEval round as the driver hands it to the Link. The base
// round is synchronized whenever it runs: a plan that skips the base
// synchronization (Prop. 2) sends no base round at all.
struct SiteRound {
  // "base", "md1", ...: the fault injector's round key.
  std::string label;
  // The base query, when the round evaluates it: the synchronized base
  // round (no `stage`), or a Prop. 2 plan's first GMDJ round, where each
  // site computes its B_i and evaluates `stage` over it in one request.
  const BaseQuery* base = nullptr;
  // The GMDJ round's stage; nullptr for the base round.
  const PlanStage* stage = nullptr;
  // Fragments return to the coordinator; otherwise outputs stay at the
  // sites as the next round's carried-over structures.
  bool synchronized = false;
  // The round needs no carried-over site state (it evaluates the base
  // query, or X ships with it).
  bool self_contained = true;
  // Site evaluation context: cancellation (the armed round token), query
  // id, the round span as trace parent, and for GMDJ rounds the
  // StageEvalContext settings.
  EvalContext eval;
  // The armed round budget in milliseconds, 0 = unbounded.
  uint64_t deadline_ms = 0;
};

// Transfer accounting for one site in one round, summed over every
// attempt. Written only by that site's task.
struct SiteTraffic {
  uint64_t bytes_to_sites = 0;   // accounted X payload bytes
  uint64_t tuples_to_sites = 0;
  double comm_time = 0;          // modeled time of the X shipment
  uint64_t wire_bytes = 0;       // framed round traffic, retries included
};

// What one site-round attempt reported besides its fragment. Only the
// successful attempt's report is accounted.
struct SiteAttempt {
  SiteRoundProfile profile;
  uint64_t bytes_to_coord = 0;  // accounted fragment payload bytes
  double comm_time = 0;         // modeled time of the fragment shipment
};

// One site's share of one round: written by that site's task, read by
// the coordinator thread once the task is done, and folded into the
// RoundStats in site order after the fan-out — so accounting never races
// and its sums do not depend on completion order.
struct SiteSlot {
  int site_id = 0;  // the partition's primary id (reported when lost)
  bool skipped = false;
  bool lost = false;
  double filter_time = 0;
  double site_time = 0;
  SiteRoundCounts counts;
  SiteTraffic traffic;
  SiteAttempt attempt;
  ChunkPtr fragment;  // typed, as decoded; null when nothing shipped
  uint64_t fragment_rows = 0;
};

// Runs site(i) for every i, and merge(i) on the calling thread in index
// order, each as soon as sites 0..i are done. Inline, in site order, when
// `pool` is null. On the first error, cancels `cancel` so in-flight site
// work stops early, waits for every task (they reference the caller's
// frame), and returns that error.
Status FanOut(size_t n, ThreadPool* pool, CancellationToken* cancel,
              const std::function<Status(size_t)>& site,
              const std::function<Status(size_t)>& merge) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      SKALLA_RETURN_NOT_OK(site(i));
      SKALLA_RETURN_NOT_OK(merge(i));
    }
    return Status::OK();
  }
  std::mutex mu;
  std::condition_variable arrived;
  std::vector<uint8_t> done(n, 0);
  Status first_error;
  for (size_t i = 0; i < n; ++i) {
    pool->Submit([&, i] {
      Status s = site(i);
      std::lock_guard<std::mutex> lock(mu);
      if (!s.ok() && first_error.ok()) first_error = std::move(s);
      done[i] = 1;
      arrived.notify_one();
    });
  }
  Status status;
  for (size_t next = 0; next < n && status.ok(); ++next) {
    {
      std::unique_lock<std::mutex> lock(mu);
      arrived.wait(lock, [&] { return done[next] || !first_error.ok(); });
      status = first_error;
    }
    if (status.ok()) status = merge(next);
  }
  if (!status.ok()) cancel->Cancel(status);
  pool->Wait();
  return status;
}

// Rejects plans the driver cannot run over `num_sites` sites: no sites,
// an unsynchronized final stage (or base-only plan), and per-site filter
// lists of the wrong length.
Status ValidatePlan(const DistributedPlan& plan, size_t num_sites) {
  if (num_sites == 0) {
    return Status::InvalidArgument("executor has no sites");
  }
  if (!plan.stages.empty() && !plan.stages.back().sync_after) {
    return Status::InvalidArgument(
        "the final plan stage must synchronize at the coordinator");
  }
  if (plan.stages.empty() && !plan.sync_base) {
    return Status::InvalidArgument(
        "a plan without GMDJ stages must synchronize its base query");
  }
  for (const PlanStage& stage : plan.stages) {
    if (!stage.site_base_filters.empty() &&
        stage.site_base_filters.size() != num_sites) {
      return Status::InvalidArgument(
          StrCat("stage has ", stage.site_base_filters.size(),
                 " site filters for ", num_sites, " sites"));
    }
  }
  return Status::OK();
}

}  // namespace

// How the driver reaches the sites of one execution: separate processes
// reached through the transport. X (or, in a Prop. 2 plan's first round,
// the base query) travels inside the round request; a round that
// continues a site's carried-over structure, or leaves one, stays on the
// primary, and only such rounds create per-query state at a site. Calls
// for partition i come from one task at a time (a pool thread under a
// concurrent fan-out), and per-endpoint state is touched only by the
// task of the partition owning the endpoint (ValidateReplicas rejects an
// endpoint registered twice), so it needs no lock.
class RpcExecutor::Link {
 public:
  Link(RpcExecutor* executor, uint64_t query_id)
      : executor_(executor),
        query_id_(query_id),
        base_bytes_(executor->num_sites()),
        holds_state_(executor->num_sites(), 0) {}

  // Best-effort release of the per-query state at the endpoints that
  // were sent a carried round (sites also cap and evict, so a lost
  // coordinator leaks nothing). Runs after the stats are final, so it
  // stays out of the query's wire accounting.
  ~Link() {
    const std::vector<uint8_t> payload = EncodeEndPlanRequest(query_id_);
    for (size_t e = 0; e < holds_state_.size(); ++e) {
      if (!holds_state_[e]) continue;
      (void)executor_->CallLocked(e, MessageType::kEndPlan, payload, nullptr);
    }
  }

  // Site ids of partition i's evaluation chain for `round` (primary
  // first).
  std::vector<int> ReplicaChain(size_t i, const SiteRound& round) const {
    std::vector<int> ids;
    for (size_t endpoint : Endpoints(i, round)) {
      ids.push_back(static_cast<int>(endpoint));
    }
    return ids;
  }

  // Serializes `x` (X, already reduction-filtered for site i) for site
  // i's round requests.
  void ShipBase(size_t i, const Table& x, SiteTraffic* traffic) {
    base_bytes_[i].clear();
    WriteTable(x, &base_bytes_[i]);
    traffic->bytes_to_sites += base_bytes_[i].size();
    traffic->tuples_to_sites += x.num_rows();
    traffic->comm_time +=
        executor_->transport_->TransferTime(base_bytes_[i].size());
  }

  // One attempt of `round` at replica r of partition i. Returns the
  // fragment (null when the round is not synchronized) and fills
  // *attempt.
  Result<ChunkPtr> Attempt(size_t i, size_t r, const SiteRound& round,
                           SiteAttempt* attempt, SiteTraffic* traffic) {
    const size_t endpoint = Endpoints(i, round)[r];
    // The site keeps state for this query from this round on, even if
    // the attempt fails after the request reached it.
    if (!round.self_contained || !round.synchronized) {
      holds_state_[endpoint] = 1;
    }
    TraceContext trace;
    trace.query_id = round.eval.query_id;
    if (round.eval.trace_parent_span != 0) {
      trace.trace_id = round.eval.query_id;
      trace.parent_span_id = round.eval.trace_parent_span;
    }
    MessageType type;
    std::vector<uint8_t> payload;
    if (round.stage == nullptr) {
      BaseRoundRequest request;
      request.query = *round.base;
      request.deadline_ms = round.deadline_ms;
      request.trace = trace;
      type = MessageType::kBaseRound;
      payload = EncodeBaseRoundRequest(request);
    } else {
      GmdjRoundRequest request;
      request.op = round.stage->op;
      request.label = round.label;
      request.sub_aggregates = round.eval.sub_aggregates;
      request.apply_rng = round.eval.compute_rng;
      request.ship_result = round.synchronized;
      request.has_base_query = round.base != nullptr;
      if (request.has_base_query) request.base_query = *round.base;
      request.has_base = round.self_contained && !request.has_base_query;
      request.deadline_ms = round.deadline_ms;
      request.trace = trace;
      type = MessageType::kGmdjRound;
      payload = EncodeGmdjRoundRequest(
          request, request.has_base ? base_bytes_[i] : std::vector<uint8_t>{});
    }
    RoundCallStats call;
    Result<ChunkPtr> fragment = executor_->CallRound(
        endpoint, type, payload, &call, round.eval.trace_parent_span);
    traffic->wire_bytes += call.wire_bytes;
    attempt->bytes_to_coord = call.table_bytes;
    attempt->profile = call.profile;
    if (fragment.ok() && round.synchronized) {
      attempt->comm_time =
          executor_->transport_->TransferTime(call.table_bytes);
    }
    return fragment;
  }

 private:
  // A replica process holds no structure it did not build: a round that
  // reads a carried structure, or leaves its output at the site for the
  // next one, stays on the primary.
  std::vector<size_t> Endpoints(size_t i, const SiteRound& round) const {
    return round.self_contained && round.synchronized
               ? executor_->ReplicaEndpoints(i)
               : std::vector<size_t>{i};
  }

  RpcExecutor* executor_;
  const uint64_t query_id_;
  // Serialized X per site for the current round's requests.
  std::vector<std::vector<uint8_t>> base_bytes_;
  // Primaries that were sent a carried round: they get kEndPlan.
  std::vector<uint8_t> holds_state_;
};

Result<Table> RpcExecutor::Execute(const DistributedPlan& plan,
                                   const QueryRun& run, ExecStats* stats) {
  SKALLA_RETURN_NOT_OK(ValidateReplicas());
  SKALLA_RETURN_NOT_OK(Connect());
  QueryRun resolved = run;
  resolved.query_id = ResolveQueryId(run);
  Link link(this, resolved.query_id);
  return RunStarPlan(plan, resolved, link, stats);
}

Result<Table> RpcExecutor::RunStarPlan(const DistributedPlan& plan,
                                       const QueryRun& run, Link& link,
                                       ExecStats* stats) {
  const size_t n = num_sites();
  SKALLA_RETURN_NOT_OK(ValidatePlan(plan, n));

  ExecStats local_stats;
  ExecStats& st = stats == nullptr ? local_stats : *stats;
  st.rounds.clear();
  st.lost_sites.clear();
  st.engines_used = 0;

  // Tag every span and metric this execution records with the run's
  // query id (site tasks re-establish the scope on their threads).
  const uint64_t query_id = run.query_id;
  obs::QueryIdScope query_scope(query_id);
  st.query_id = query_id;

  SKALLA_TRACE_SPAN(exec_span, "exec.plan", "executor");
  SKALLA_SPAN_ATTR(exec_span, "sites", static_cast<uint64_t>(n));
  SKALLA_SPAN_ATTR(exec_span, "stages",
                   static_cast<uint64_t>(plan.stages.size()));
  SKALLA_COUNTER_ADD("skalla.exec.plans", 1);

  Coordinator coordinator(plan.key_columns);
  const QueryDeadline deadline(options_, run);
  // fanout_threads: 0 = one worker per site, 1 = inline on this thread.
  const size_t width = std::min(
      n, options_.fanout_threads == 0 ? n : options_.fanout_threads);
  std::unique_ptr<ThreadPool> pool;
  if (width > 1) pool = std::make_unique<ThreadPool>(width);
  // Partitions whose every replica is gone; only DegradesOnLoss sets
  // these — the query completes over the survivors and the loss is
  // reported in st.lost_sites / RoundStats::sites_lost.
  std::vector<uint8_t> lost(n, 0);
  bool have_global = false;

  // Schema inference chain: upstream schema entering each stage.
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr base_schema, TableSchema(plan.base.table));
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr upstream,
                          plan.base.OutputSchema(*base_schema));

  // Round 0 is the base round; round k evaluates plan.stages[k - 1]. A
  // Prop. 2 plan (sync_base = false) has no base round: its first GMDJ
  // round carries the base query, and each site computes its B_i inside
  // that round (fused_base).
  for (size_t k = plan.sync_base ? 0 : 1; k <= plan.stages.size(); ++k) {
    const PlanStage* stage = k == 0 ? nullptr : &plan.stages[k - 1];
    RoundStats rs;
    rs.label = k == 0 ? "base" : StrCat("md", k);
    rs.synchronized = stage == nullptr || stage->sync_after;
    rs.fused_base = k == 1 && !plan.sync_base;
    SKALLA_TRACE_SPAN(round_span, StrCat("round:", rs.label), "executor");
    SKALLA_SPAN_ATTR(round_span, "sync", rs.synchronized ? "true" : "false");
    Stopwatch wall;

    // X ships with every GMDJ round that follows a synchronization.
    const bool distribute = stage != nullptr && have_global;
    CancellationToken round_cancel;
    SiteRound round;
    round.label = rs.label;
    round.base = stage == nullptr || rs.fused_base ? &plan.base : nullptr;
    round.stage = stage;
    round.synchronized = rs.synchronized;
    round.self_contained = round.base != nullptr || distribute;
    SKALLA_RETURN_NOT_OK(
        deadline.ArmRound(rs.label, &round_cancel, &round.deadline_ms));
    if (stage != nullptr) round.eval = StageEvalContext(*stage);
    round.eval.cancellation = &round_cancel;
    round.eval.query_id = query_id;
    SKALLA_OBS_ONLY(if (round_span.armed()) {
      round.eval.trace_parent_span = round_span.id();
    });

    SchemaPtr detail_schema;
    if (stage != nullptr) {
      SKALLA_ASSIGN_OR_RETURN(detail_schema,
                              TableSchema(stage->op.detail_table));
    }
    // Synchronization starts before the sites do, so each fragment can
    // merge as soon as it is next in line.
    if (rs.synchronized) {
      Stopwatch begin_timer;
      SKALLA_RETURN_NOT_OK(
          stage == nullptr
              ? coordinator.InitBase(upstream)
              : coordinator.BeginRound(stage->op, *upstream, *detail_schema,
                                       /*from_scratch=*/!have_global));
      rs.coord_time += begin_timer.ElapsedSeconds();
    }

    std::vector<SiteSlot> slots(n);
    auto run_site = [&](size_t i) -> Status {
      if (lost[i]) return Status::OK();
      SiteSlot& slot = slots[i];
      obs::QueryIdScope site_scope(query_id);
      if (distribute) {
        // Distribution-aware group reduction: site i receives only the
        // rows of X some of its tuples can match.
        const Table& x = coordinator.result();
        const ExprPtr& filter = stage->site_base_filters.empty()
                                    ? nullptr
                                    : stage->site_base_filters[i];
        Table reduced;
        if (filter != nullptr) {
          Stopwatch filter_timer;
          SKALLA_ASSIGN_OR_RETURN(reduced, FilterBaseRows(x, filter));
          slot.filter_time = filter_timer.ElapsedSeconds();
          // An empty reduced structure means the site holds no group that
          // could match: it sits the round out entirely (S_MD_k ⊂ S_B,
          // Sect. 3.2). Only synchronized stages may drop a site — a
          // continuation still needs the (empty, but schema-typed)
          // structure to evaluate the next operator against.
          if (reduced.empty() && stage->sync_after) {
            slot.skipped = true;
            return Status::OK();
          }
        }
        link.ShipBase(i, filter != nullptr ? reduced : x, &slot.traffic);
      }
      const std::vector<int> chain = link.ReplicaChain(i, round);
      slot.site_id = chain.front();
      Stopwatch timer;
      Result<ChunkPtr> fragment = ExecuteSiteRoundReplicated(
          options_, chain, rs.label,
          [&](size_t r) {
            slot.attempt = SiteAttempt();
            return link.Attempt(i, r, round, &slot.attempt, &slot.traffic);
          },
          &slot.counts, &round_cancel);
      slot.site_time = timer.ElapsedSeconds();
      if (!fragment.ok()) {
        // Every replica is exhausted: degrade or fail the query.
        if (!DegradesOnLoss(options_, fragment.status())) {
          return fragment.status();
        }
        slot.lost = true;
        return Status::OK();
      }
      slot.fragment = std::move(*fragment);
      if (slot.fragment != nullptr) {
        slot.fragment_rows = slot.fragment->num_rows();
      }
      return Status::OK();
    };
    double merge_time = 0;
    auto merge = [&](size_t i) -> Status {
      SiteSlot& slot = slots[i];
      if (!rs.synchronized || lost[i] || slot.skipped || slot.lost) {
        return Status::OK();
      }
      if (slot.fragment == nullptr) {
        return Status::InvalidArgument(
            StrCat("site ", slot.site_id, " shipped no fragment for round ",
                   rs.label));
      }
      Stopwatch merge_timer;
      SKALLA_RETURN_NOT_OK(
          stage == nullptr
              ? coordinator.MergeBaseFragment(*slot.fragment)
              : coordinator.MergeFragment(std::move(slot.fragment)));
      merge_time += merge_timer.ElapsedSeconds();
      slot.fragment = nullptr;
      return Status::OK();
    };
    Stopwatch fanout_timer;
    SKALLA_RETURN_NOT_OK(FanOut(n, pool.get(), &round_cancel, run_site, merge));
    rs.fanout_wait = std::max(0.0, fanout_timer.ElapsedSeconds() - merge_time);
    rs.coord_time += merge_time;
    if (rs.synchronized) {
      Stopwatch finalize_timer;
      SKALLA_RETURN_NOT_OK(stage == nullptr ? coordinator.FinalizeBase()
                                            : coordinator.FinalizeRound());
      rs.coord_time += finalize_timer.ElapsedSeconds();
    }
    have_global = rs.synchronized;

    for (size_t i = 0; i < n; ++i) {
      if (lost[i]) continue;  // lost in an earlier round; never ran
      const SiteSlot& slot = slots[i];
      rs.coord_time += slot.filter_time;
      rs.bytes_to_sites += slot.traffic.bytes_to_sites;
      rs.tuples_to_sites += slot.traffic.tuples_to_sites;
      rs.comm_time += slot.traffic.comm_time;
      rs.wire_bytes += slot.traffic.wire_bytes;
      rs.site_retries += slot.counts.retries;
      rs.site_failovers += slot.counts.failovers;
      if (slot.skipped) {
        ++rs.sites_skipped;
        continue;
      }
      if (slot.lost) {
        lost[i] = 1;
        st.lost_sites.push_back(slot.site_id);
        continue;
      }
      rs.site_time_max = std::max(rs.site_time_max, slot.site_time);
      rs.site_time_sum += slot.site_time;
      rs.comm_time += slot.attempt.comm_time;
      if (rs.synchronized) {
        rs.bytes_to_coord += slot.attempt.bytes_to_coord;
        rs.tuples_to_coord += slot.fragment_rows;
      }
      // The totals name the GMDJ kernel; base rounds scan columnar
      // under every engine.
      if (stage != nullptr) {
        st.engines_used |= slot.attempt.profile.engines_used;
      }
      rs.site_profiles.push_back(slot.attempt.profile);
    }
    for (uint8_t l : lost) rs.sites_lost += l;
    if (stage != nullptr) {
      SKALLA_ASSIGN_OR_RETURN(
          upstream, stage->op.OutputSchema(*upstream, *detail_schema));
    }
    rs.wall_time = wall.ElapsedSeconds();
    SKALLA_COUNTER_ADD("skalla.round.bytes_to_sites", rs.bytes_to_sites);
    SKALLA_COUNTER_ADD("skalla.round.bytes_to_coord", rs.bytes_to_coord);
    SKALLA_COUNTER_ADD("skalla.round.tuples_to_sites", rs.tuples_to_sites);
    SKALLA_COUNTER_ADD("skalla.round.tuples_to_coord", rs.tuples_to_coord);
    SKALLA_HISTOGRAM_RECORD("skalla.round.fanout_wait_us",
                            rs.fanout_wait * 1e6);
    st.rounds.push_back(std::move(rs));
  }

  std::sort(st.lost_sites.begin(), st.lost_sites.end());
  st.total_wire_bytes = 0;
  for (const RoundStats& rs : st.rounds) st.total_wire_bytes += rs.wire_bytes;
  return coordinator.TakeResult();
}

}  // namespace rpc
}  // namespace skalla

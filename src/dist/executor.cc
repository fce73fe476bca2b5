#include "dist/executor.h"

#include "common/macros.h"
#include "common/string_util.h"
#include "obs/obs.h"
#include "relalg/operators.h"

namespace skalla {

EvalContext StageEvalContext(const PlanStage& stage) {
  EvalContext context;
  context.sub_aggregates = stage.sync_after;
  context.compute_rng = stage.sync_after && stage.indep_group_reduction;
  return context;
}

uint64_t ResolveQueryId(const QueryRun& run) {
  return run.query_id != 0 ? run.query_id : obs::NextQueryId();
}

uint64_t ExecStats::TotalBytes() const {
  return TotalBytesToSites() + TotalBytesToCoord();
}
uint64_t ExecStats::TotalBytesToSites() const {
  uint64_t n = 0;
  for (const RoundStats& r : rounds) n += r.bytes_to_sites;
  return n;
}
uint64_t ExecStats::TotalBytesToCoord() const {
  uint64_t n = 0;
  for (const RoundStats& r : rounds) n += r.bytes_to_coord;
  return n;
}
uint64_t ExecStats::TotalTuplesTransferred() const {
  uint64_t n = 0;
  for (const RoundStats& r : rounds) {
    n += r.tuples_to_sites + r.tuples_to_coord;
  }
  return n;
}
uint64_t ExecStats::TotalSiteFailovers() const {
  uint64_t n = 0;
  for (const RoundStats& r : rounds) n += r.site_failovers;
  return n;
}
uint64_t ExecStats::TotalSiteRetries() const {
  uint64_t n = 0;
  for (const RoundStats& r : rounds) n += r.site_retries;
  return n;
}
double ExecStats::TotalSiteTimeMax() const {
  double t = 0;
  for (const RoundStats& r : rounds) t += r.site_time_max;
  return t;
}
double ExecStats::TotalSiteTimeSum() const {
  double t = 0;
  for (const RoundStats& r : rounds) t += r.site_time_sum;
  return t;
}
double ExecStats::TotalCoordTime() const {
  double t = 0;
  for (const RoundStats& r : rounds) t += r.coord_time;
  return t;
}
double ExecStats::TotalCommTime() const {
  double t = 0;
  for (const RoundStats& r : rounds) t += r.comm_time;
  return t;
}
double ExecStats::ResponseTime() const {
  double t = 0;
  for (const RoundStats& r : rounds) t += r.ResponseTime();
  return t;
}
size_t ExecStats::NumSyncRounds() const {
  size_t n = 0;
  for (const RoundStats& r : rounds) {
    if (r.synchronized) ++n;
  }
  return n;
}

std::string ExecStats::ToString() const {
  std::string out = StrPrintf(
      "%-8s %5s %12s %12s %10s %10s %10s %10s\n", "round", "sync",
      "B->sites", "B->coord", "site_max", "coord", "comm", "resp");
  for (const RoundStats& r : rounds) {
    out += StrPrintf("%-8s %5s %12llu %12llu %9.3fms %9.3fms %9.3fms %9.3fms\n",
                     r.label.c_str(), r.synchronized ? "yes" : "no",
                     static_cast<unsigned long long>(r.bytes_to_sites),
                     static_cast<unsigned long long>(r.bytes_to_coord),
                     r.site_time_max * 1e3, r.coord_time * 1e3,
                     r.comm_time * 1e3, r.ResponseTime() * 1e3);
  }
  out += StrPrintf(
      "total: %llu bytes, %llu tuples, response %.3f ms (%zu sync rounds)\n",
      static_cast<unsigned long long>(TotalBytes()),
      static_cast<unsigned long long>(TotalTuplesTransferred()),
      ResponseTime() * 1e3, NumSyncRounds());
  if (TotalSiteRetries() > 0 || TotalSiteFailovers() > 0 ||
      !lost_sites.empty()) {
    out += StrPrintf("faults: %llu retries, %llu failovers",
                     static_cast<unsigned long long>(TotalSiteRetries()),
                     static_cast<unsigned long long>(TotalSiteFailovers()));
    if (!lost_sites.empty()) {
      out += ", lost sites [";
      for (size_t i = 0; i < lost_sites.size(); ++i) {
        out += StrPrintf(i == 0 ? "%d" : " %d", lost_sites[i]);
      }
      out += "] (result degraded to the surviving sites)";
    }
    out += "\n";
  }
  return out;
}

namespace {

// A fired deadline or a cancelled query ends the escalation ladder: the
// budget, or the caller, is as gone for a retry, a replica or the
// degrade rung as it was for the failed attempt.
bool EndsLadder(const Status& failure) {
  return failure.IsDeadlineExceeded() || failure.IsCancelled();
}

// OK while `cancel` (may be nullptr) is live; its latched cause after.
Status Live(CancellationToken* cancel) {
  return cancel == nullptr ? Status::OK() : cancel->Check();
}

// The retry rung of the ladder: runs `attempt` for site `site_id` in
// round `round`, consulting options.fault_injector before each try (and
// after each, via AfterSiteRound — a non-OK response fault discards a
// successful attempt's result) and re-attempting up to
// options.max_site_retries times. Adds the number of retries performed
// to *retries_out (may be nullptr). `cancel` (may be nullptr) is checked
// before the first attempt and after every failed one: once it is
// cancelled — a fired deadline, a session Cancel — its latched cause is
// returned without another attempt. An attempt failing with
// kDeadlineExceeded or kCancelled is not retried either (neither is
// transient). Thread-safe as long as the injector is (the FaultInjector
// contract).
Result<ChunkPtr> ExecuteSiteRound(
    const ExecutorOptions& options, int site_id, const std::string& round,
    const std::function<Result<ChunkPtr>()>& attempt, size_t* retries_out,
    CancellationToken* cancel) {
  SKALLA_RETURN_NOT_OK(Live(cancel));
  for (size_t tries = 0;; ++tries) {
    Status injected = options.fault_injector == nullptr
                          ? Status::OK()
                          : options.fault_injector->BeforeSiteRound(site_id,
                                                                    round);
    Result<ChunkPtr> result =
        injected.ok() ? attempt() : Result<ChunkPtr>(injected);
    if (options.fault_injector != nullptr) {
      // Response-path fault: the site computed, the answer was lost. The
      // result is discarded and the attempt counts as failed; re-running
      // the round is safe (rounds are idempotent against the durable
      // partition).
      Status after = options.fault_injector->AfterSiteRound(
          site_id, round, result.status());
      if (result.ok() && !after.ok()) result = after;
    }
    if (result.ok()) return result;
    // Once the round token is cancelled, its latched cause is the round's
    // outcome, whatever the attempt itself reported.
    SKALLA_RETURN_NOT_OK(Live(cancel));
    if (EndsLadder(result.status()) || tries >= options.max_site_retries) {
      return result;
    }
    if (retries_out != nullptr) ++*retries_out;
    SKALLA_COUNTER_ADD("skalla.net.retries", 1);
  }
}

}  // namespace

Result<ChunkPtr> ExecuteSiteRoundReplicated(
    const ExecutorOptions& options, const std::vector<int>& replica_site_ids,
    const std::string& round,
    const std::function<Result<ChunkPtr>(size_t)>& attempt,
    SiteRoundCounts* counts, CancellationToken* cancel) {
  Result<ChunkPtr> result = Status::Internal("no replica attempted");
  for (size_t r = 0; r < replica_site_ids.size(); ++r) {
    if (r > 0) {
      if (counts != nullptr) ++counts->failovers;
      SKALLA_COUNTER_ADD("skalla.coord.failover", 1);
      SKALLA_TRACE_INSTANT_ATTRS(
          "coord.failover", "coord",
          {{"round", round},
           {"from", StrCat(replica_site_ids[r - 1])},
           {"to", StrCat(replica_site_ids[r])}});
    }
    result = ExecuteSiteRound(
        options, replica_site_ids[r], round, [&]() { return attempt(r); },
        counts == nullptr ? nullptr : &counts->retries, cancel);
    if (result.ok() || EndsLadder(result.status()) || !Live(cancel).ok()) {
      return result;
    }
  }
  return result;
}

bool DegradesOnLoss(const ExecutorOptions& options, const Status& loss) {
  return options.on_site_loss == OnSiteLoss::kDegrade && !EndsLadder(loss);
}

Status QueryDeadline::ArmRound(const std::string& round,
                               CancellationToken* token,
                               uint64_t* budget_ms) const {
  if (external_ != nullptr) {
    // Chain the round token under the submission-level token so a
    // session Cancel stops this round's morsel loops; refuse to start
    // the round at all when the query is already cancelled.
    token->set_parent(external_);
    Status live = external_->Check();
    if (!live.ok()) return live;
  }
  int64_t query_left = RemainingQueryMs();
  if (query_left == 0) {
    return Status::DeadlineExceeded(
        StrCat("query deadline of ", query_ms_, " ms exceeded before round ",
               round));
  }
  uint64_t budget = 0;
  bool bounded = false;
  if (round_ms_ > 0) {
    budget = round_ms_;
    bounded = true;
  }
  if (query_left > 0 &&
      (!bounded || static_cast<uint64_t>(query_left) < budget)) {
    budget = static_cast<uint64_t>(query_left);
    bounded = true;
  }
  if (bounded) token->ArmDeadline(budget, StrCat("round ", round));
  if (budget_ms != nullptr) *budget_ms = budget;
  return Status::OK();
}

int64_t QueryDeadline::RemainingQueryMs() const {
  if (query_ms_ == 0) return -1;
  double elapsed_ms = timer_.ElapsedSeconds() * 1e3;
  if (elapsed_ms >= static_cast<double>(query_ms_)) return 0;
  return static_cast<int64_t>(static_cast<double>(query_ms_) - elapsed_ms);
}

Result<Table> FilterBaseRows(const Table& table, const ExprPtr& predicate) {
  SKALLA_ASSIGN_OR_RETURN(ExprPtr bound,
                          predicate->Bind(table.schema().get(), nullptr));
  Table out(table.schema());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (bound->EvalBool(&table.row(r), nullptr)) {
      out.AppendUnchecked(table.row(r));
    }
  }
  return out;
}

Result<Table> ApplyRngFilter(const Table& h) {
  int rng_idx = h.schema()->IndexOf(kRngCountColumn);
  if (rng_idx < 0) {
    return Status::Internal("partial result lacks __rng column");
  }
  size_t rng = static_cast<size_t>(rng_idx);
  std::vector<size_t> keep;
  keep.reserve(h.num_columns() - 1);
  for (size_t c = 0; c < h.num_columns(); ++c) {
    if (c != rng) keep.push_back(c);
  }
  Table out(h.schema()->Project(keep));
  for (size_t r = 0; r < h.num_rows(); ++r) {
    const Value& flag = h.at(r, rng);
    if (!flag.is_null() && flag.AsDouble() > 0) {
      out.AppendUnchecked(ProjectRow(h.row(r), keep));
    }
  }
  return out;
}

}  // namespace skalla

#include "rpc/site_service.h"

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/eval_context.h"
#include "dist/executor.h"
#include "net/serde.h"
#include "obs/obs.h"
#include "rpc/plan_serde.h"

namespace skalla {
namespace rpc {

Frame ErrorFrame(const Status& status) {
  Frame frame;
  frame.type = MessageType::kError;
  WriteStatusPayload(&frame.payload, status);
  return frame;
}

namespace {

Frame AckFrame() {
  Frame frame;
  frame.type = MessageType::kAck;
  return frame;
}

/// Captures the site-side span subtree recorded while one round runs:
/// take a commit watermark up front, drain everything committed after
/// it once the round's spans have ended. When the request is traced but
/// this process isn't exporting a trace of its own, the tracer is
/// enabled just for the capture window and drained afterwards so the
/// per-thread buffers don't grow without bound across rounds. A service
/// that ships no spans captures nothing: its spans stay where the shared
/// tracer recorded them.
class RoundTraceCapture {
 public:
  RoundTraceCapture(bool traced, bool ship) : traced_(traced && ship) {
    obs::Tracer& tracer = obs::Tracer::Global();
    if (traced_ && !tracer.enabled()) {
      owned_ = true;
      tracer.set_enabled(true);
    }
    mark_ = tracer.CommitMark();
  }

  ~RoundTraceCapture() {
    if (owned_) {
      obs::Tracer& tracer = obs::Tracer::Global();
      tracer.Clear();
      tracer.set_enabled(false);
    }
  }

  std::vector<obs::TraceEvent> Drain() const {
    if (!traced_) return {};
    return obs::Tracer::Global().SnapshotSince(mark_);
  }

 private:
  bool traced_;
  bool owned_ = false;
  uint64_t mark_ = 0;
};

/// Builds the kRoundResult response. Fills the profile's bytes_out /
/// result_rows from the serialized table so the coordinator's
/// byte-accounting reconciles exactly.
Frame RoundResultFrame(RoundProfile* profile, const Table* table) {
  Frame frame;
  frame.type = MessageType::kRoundResult;
  if (table != nullptr) {
    std::vector<uint8_t> table_bytes;
    WriteTable(*table, &table_bytes);
    profile->bytes_out = table_bytes.size();
    profile->result_rows = table->num_rows();
    frame.payload = EncodeRoundResult(*profile, &table_bytes);
  } else {
    frame.payload = EncodeRoundResult(*profile, nullptr);
  }
  return frame;
}

}  // namespace

size_t SiteService::open_plans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

SiteService::PlanState& SiteService::PlanFor(uint64_t query_id) {
  auto it = plans_.find(query_id);
  if (it != plans_.end()) return it->second;
  if (plans_.size() >= kMaxOpenPlans && !plan_order_.empty()) {
    plans_.erase(plan_order_.front());
    plan_order_.pop_front();
  }
  plan_order_.push_back(query_id);
  return plans_[query_id];
}

Result<Frame> SiteService::Handle(const Frame& request) {
  // One round at a time per site: concurrent coordinator threads (the
  // in-process transport under a scheduler) queue here, which is exactly
  // the per-site round queue the serving layer relies on.
  std::lock_guard<std::mutex> lock(mu_);
  SKALLA_TRACE_SPAN(span, "rpc.handle", "rpc");
  SKALLA_SPAN_ATTR(span, "type",
                   static_cast<int64_t>(static_cast<uint8_t>(request.type)));
  switch (request.type) {
    case MessageType::kHello: {
      SKALLA_RETURN_NOT_OK(DecodeHello(request.payload).status());
      Frame frame;
      frame.type = MessageType::kHello;
      frame.payload = EncodeHello(site_.id());
      return frame;
    }
    case MessageType::kCatalogRequest: {
      std::vector<CatalogEntry> entries;
      for (const std::string& name : site_.catalog().TableNames()) {
        SKALLA_ASSIGN_OR_RETURN(const DataProvider* table,
                                site_.catalog().GetProvider(name));
        entries.push_back(CatalogEntry{name, table->schema()});
      }
      Frame frame;
      frame.type = MessageType::kCatalogResponse;
      frame.payload = EncodeCatalogResponse(entries);
      return frame;
    }
    case MessageType::kEndPlan:
      return HandleEndPlan(request);
    case MessageType::kGmdjRound:
      return HandleGmdjRound(request);
    case MessageType::kGetStats: {
      Frame frame;
      frame.type = MessageType::kStatsResult;
      StatsResult stats;
      stats.site_id = site_.id();
      stats.metrics_json = obs::MetricsRegistry::Global().ToJson();
      frame.payload = EncodeStatsResult(stats);
      return frame;
    }
    case MessageType::kShutdown:
      shutdown_ = true;
      return AckFrame();
    default:
      return ErrorFrame(Status::InvalidArgument(
          StrCat("site cannot serve message type ",
                 static_cast<int>(request.type))));
  }
}

void SiteService::FillEvalCounts(const EvalProfile& eval,
                                 RoundProfile* profile) const {
  profile->morsel_us = eval.morsel_us.load(std::memory_order_relaxed);
  profile->rows_scanned = eval.rows_scanned.load(std::memory_order_relaxed);
  profile->rows_matched = eval.rows_matched.load(std::memory_order_relaxed);
  profile->index_hits = eval.index_hits.load(std::memory_order_relaxed);
  profile->chunks_pruned = eval.chunks_pruned.load(std::memory_order_relaxed);
  profile->pages_loaded = eval.pages_loaded.load(std::memory_order_relaxed);
  profile->bytes_loaded = eval.bytes_loaded.load(std::memory_order_relaxed);
  profile->engines_used = eval.engines_used.load(std::memory_order_relaxed);
  profile->fused = eval.fused_base.load(std::memory_order_relaxed) != 0;
  profile->duplicate_rounds = duplicate_rounds_;
  profile->chaos_faults =
      chaos_faults_ == nullptr
          ? 0
          : static_cast<uint64_t>(chaos_faults_->load(std::memory_order_relaxed));
}

Result<Frame> SiteService::HandleEndPlan(const Frame& request) {
  SKALLA_ASSIGN_OR_RETURN(uint64_t query_id,
                          DecodeEndPlanRequest(request.payload));
  plans_.erase(query_id);
  for (auto it = plan_order_.begin(); it != plan_order_.end(); ++it) {
    if (*it == query_id) {
      plan_order_.erase(it);
      break;
    }
  }
  return AckFrame();
}

Result<Frame> SiteService::HandleGmdjRound(const Frame& request) {
  SKALLA_ASSIGN_OR_RETURN(GmdjRoundRequest req,
                          DecodeGmdjRoundRequest(request.payload));
  // What the operator evaluates over: the shipped X, the base query's
  // local result (computed inside the round), or the structure an
  // earlier unsynchronized round left here. A carried round reads that
  // structure in place, so a failed evaluation leaves it for the retry.
  // Recomputing from the durable local partition makes retries of a
  // round that carries its base query naturally idempotent.
  const bool carried = !req.has_base && !req.has_base_query;
  // Only a round that reads or leaves a carried structure has per-query
  // state; a self-contained synchronized round touches none.
  PlanState* plan =
      carried || !req.ship_result ? &PlanFor(req.trace.query_id) : nullptr;
  const Table* input = &req.base;
  bool replay = false;
  if (carried) {
    if (!req.label.empty() && req.label == plan->last_round) {
      // A coordinator retry of the round that already consumed the
      // carried structure: re-evaluate from the saved input, do not
      // double-apply.
      ++duplicate_rounds_;
      input = &plan->last_input;
      replay = true;
    } else if (plan->local_base.has_value()) {
      input = &*plan->local_base;
    } else {
      return ErrorFrame(Status::FailedPrecondition(
          StrCat("site ", site_.id(), " holds no carried structure for round ",
                 req.label, " of query ", req.trace.query_id)));
    }
  }

  Stopwatch wall;
  const bool traced = req.trace.parent_span_id != 0 || req.trace.trace_id != 0;
  RoundTraceCapture capture(traced, ship_spans_);
  obs::QueryIdScope query_scope(req.trace.query_id);
  RoundProfile profile;
  profile.site_id = site_.id();
  profile.bytes_in = req.base_table_bytes;
  // The coordinator ships the remaining round budget; the base scan polls
  // the token once per chunk and the GMDJ kernels once per morsel, so a
  // fired deadline stops evaluation early and surfaces as a typed
  // kDeadlineExceeded error response.
  CancellationToken cancel;
  if (req.deadline_ms > 0) {
    cancel.ArmDeadline(req.deadline_ms,
                       StrCat("site ", site_.id(), " ", req.label));
  }
  EvalProfile eval_profile;
  EvalContext context;
  context.sub_aggregates = req.sub_aggregates;
  context.compute_rng = req.apply_rng;
  context.engine = site_.engine();
  context.cancellation = req.deadline_ms > 0 ? &cancel : nullptr;
  context.query_id = req.trace.query_id;
  context.profile = &eval_profile;
  Result<Table> h = Status::Internal("unset");
  {
    obs::Span span = traced ? obs::Tracer::Global().StartSpan(
                                  StrCat("site.round:", req.label), "site")
                            : obs::Span();
    if (span.armed()) {
      span.AddAttr("site", static_cast<int64_t>(site_.id()));
      span.AddAttr("label", req.label);
    }
    context.trace_parent_span = span.id();
    Stopwatch eval_watch;
    h = req.has_base_query
            ? site_.EvalBaseAndGmdjRound(req.base_query, req.op, context)
            : site_.EvalGmdjRound(*input, req.op, context);
    if (h.ok() && req.apply_rng) h = ApplyRngFilter(*h);
    // A blockless round is the base scan alone: nothing to fuse.
    if (span.armed() && req.has_base_query && !req.op.blocks.empty()) {
      span.AddAttr("base", eval_profile.fused_base.load() != 0
                               ? std::string("fused")
                               : StrCat("base, then ", req.label));
    }
    profile.eval_us = static_cast<uint64_t>(eval_watch.ElapsedMicros());
  }
  SKALLA_HISTOGRAM_RECORD("skalla.site.eval_us",
                          static_cast<double>(profile.eval_us));
  if (!h.ok()) return ErrorFrame(h.status());
  FillEvalCounts(eval_profile, &profile);
  profile.result_rows = h->num_rows();

  // Settle the output: ship it, or leave it here for the next round.
  if (plan != nullptr && !carried) {
    plan->last_round.clear();
    plan->last_input = Table();
  } else if (carried && !replay) {
    plan->last_round = req.label;
    plan->last_input = std::move(*plan->local_base);
  }
  const Table* shipped = nullptr;
  if (req.ship_result) {
    if (plan != nullptr) plan->local_base.reset();
    shipped = &*h;
  } else {
    plan->local_base = std::move(*h);
  }
  profile.wall_us = static_cast<uint64_t>(wall.ElapsedMicros());
  profile.spans = capture.Drain();
  return RoundResultFrame(&profile, shipped);
}

}  // namespace rpc
}  // namespace skalla

// SiteService: the server half of the rpc protocol. Handles decoded
// request frames against one Site and owns the site's state between
// rounds — the output an unsynchronized GMDJ round leaves at the site
// for the next round to continue (Theorem 5). A Prop. 2 plan's base
// B_i is never carried: the first GMDJ round computes it in the same
// request.
//
// Since protocol v5 the service multiplexes queries: it holds one round
// state per in-flight query id, selected by TraceContext::query_id, so a
// coordinator may interleave rounds of different queries over a single
// connection. Since v11 the first round that reads or leaves a carried
// structure creates the state and EndPlan releases it; self-contained
// synchronized rounds touch no per-query state. The state map is capped;
// the oldest entry is evicted when a coordinator never sends EndPlan.
//
// The GMDJ kernel is the site's own (Site::engine): the columnar kernel,
// or in tests one of the row oracle's modes.
//
// Transport-agnostic: SiteServer drives it from a TCP connection, the
// in-process transport calls it directly. Handle() is serialized by an
// internal mutex, so concurrent in-process callers are safe; evaluation
// of different queries still interleaves at round granularity.

#ifndef SKALLA_RPC_SITE_SERVICE_H_
#define SKALLA_RPC_SITE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/result.h"
#include "dist/site.h"
#include "rpc/frame.h"
#include "rpc/plan_serde.h"

namespace skalla {
namespace obs {
class Span;
}  // namespace obs

namespace rpc {

/// Builds a kError frame carrying `status` (code preserved end to end).
Frame ErrorFrame(const Status& status);

class SiteService {
 public:
  /// `ship_spans`: whether a traced round returns the spans it recorded
  /// in its RoundProfile, for the coordinator to import. A site process
  /// ships them; a service in the coordinator's own process records into
  /// the coordinator's tracer already, so it ships none (shipping would
  /// duplicate every span, and under a concurrent fan-out the capture
  /// window would also catch other sites' spans).
  explicit SiteService(Site site, bool ship_spans = true)
      : site_(std::move(site)), ship_spans_(ship_spans) {}

  int site_id() const { return site_.id(); }
  const Site& site() const { return site_; }

  /// Handles one request and produces the response frame. Evaluation
  /// failures become kError frames; a non-OK Result means the request
  /// itself was malformed (the connection should drop). Thread-safe
  /// (requests serialize on an internal mutex).
  Result<Frame> Handle(const Frame& request);

  /// True once a kShutdown request has been acknowledged.
  bool shutdown_requested() const { return shutdown_; }

  /// Wires the transport's chaos-fault counter into RoundProfile
  /// reporting (SiteServer::chaos_faults_counter()). Not owned; may be
  /// nullptr (in-process transport has no chaos layer here).
  void set_chaos_faults_counter(const std::atomic<int>* counter) {
    chaos_faults_ = counter;
  }

  /// Idempotency-cache replays served so far (coordinator retries of a
  /// round that already consumed the carried structure).
  uint64_t duplicate_rounds() const { return duplicate_rounds_; }

  /// Number of per-query round states currently held (diagnostics).
  size_t open_plans() const;

 private:
  /// Round state for one in-flight query, keyed by the query id the
  /// request's TraceContext carries (protocol v5).
  struct PlanState {
    // Carried-over base structure: the output of the last round that
    // did not ship its result; absent until such a round ran.
    std::optional<Table> local_base;

    // Idempotent retries: the label of the last round that consumed the
    // carried structure, and the input it consumed. A re-sent round (a
    // coordinator retry after a dropped connection or lost response)
    // re-evaluates from the saved input instead of double-applying the
    // operator to its own output.
    std::string last_round;
    Table last_input;
  };

  Result<Frame> HandleEndPlan(const Frame& request);
  Result<Frame> HandleBaseRound(const Frame& request);
  Result<Frame> HandleGmdjRound(const Frame& request);

  /// A round's evaluation: its output, computed under `context` while
  /// `span` (the site.round span, armed when the request is traced) is
  /// open.
  using RoundEval =
      std::function<Result<Table>(const EvalContext& context, obs::Span* span)>;
  /// Settles a successful round's output: returns the table to ship, or
  /// nullptr when the output stays at the site.
  using RoundSettle = std::function<const Table*(Table* output)>;

  /// The scaffold both evaluation rounds share: trace capture, the query
  /// id scope, the shipped deadline (armed only when `deadline_ms` > 0),
  /// the rest of `context` (engine, cancellation, query id, profile,
  /// trace parent), the site.round:<label> span, eval timing, and the
  /// kRoundResult response with the round's profile (`bytes_in`: the
  /// shipped X's payload bytes). An evaluation failure becomes a kError
  /// frame.
  Result<Frame> RunRound(const TraceContext& trace, uint64_t deadline_ms,
                         const std::string& label, EvalContext context,
                         uint64_t bytes_in, const RoundEval& evaluate,
                         const RoundSettle& settle);

  /// Copies one round's evaluation counters, plus the service's replay
  /// and chaos tallies, into its wire profile.
  void FillEvalCounts(const EvalProfile& eval, RoundProfile* profile) const;

  /// The round state for `query_id`, creating it (and evicting the
  /// oldest beyond kMaxOpenPlans) if absent. Caller holds mu_.
  PlanState& PlanFor(uint64_t query_id);

  /// Coordinators that never EndPlan are bounded by eviction: oldest
  /// state first. Generous — an evicted-but-live query only loses its
  /// carried-over structure, which self-contained rounds rebuild.
  static constexpr size_t kMaxOpenPlans = 64;

  Site site_;
  const bool ship_spans_;

  mutable std::mutex mu_;  // serializes Handle (concurrent callers)

  std::map<uint64_t, PlanState> plans_;     // keyed by query id
  std::deque<uint64_t> plan_order_;         // creation order, for eviction

  bool shutdown_ = false;

  // RoundProfile inputs: replay count and (optional) transport chaos
  // fault counter.
  uint64_t duplicate_rounds_ = 0;
  const std::atomic<int>* chaos_faults_ = nullptr;
};

}  // namespace rpc
}  // namespace skalla

#endif  // SKALLA_RPC_SITE_SERVICE_H_

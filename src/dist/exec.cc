#include "dist/exec.h"

#include <string>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "net/serde.h"
#include "obs/obs.h"
#include "rpc/frame.h"

namespace skalla {

DistributedExecutor::DistributedExecutor(std::vector<Site> sites,
                                         NetworkConfig net_config,
                                         ExecutorOptions options)
    : fleet_{std::move(sites), {}},
      network_(net_config),
      options_(options) {}

void DistributedExecutor::AddReplica(size_t partition, Site replica) {
  fleet_.replicas[partition].push_back(std::move(replica));
}

std::vector<int> SiteFleet::ReplicaIds(size_t i) const {
  std::vector<int> ids{sites[i].id()};
  auto it = replicas.find(i);
  if (it != replicas.end()) {
    for (const Site& replica : it->second) ids.push_back(replica.id());
  }
  return ids;
}

Site& SiteFleet::Replica(size_t i, size_t r) {
  return r == 0 ? sites[i] : replicas.at(i)[r - 1];
}

Status SiteFleet::Validate() const {
  return ValidateReplicaPartitions(replicas, sites.size());
}

namespace {

// Ships `table` over the network with real serialization, wrapped in
// the versioned wire frame (rpc/frame.h) exactly as the TCP transport
// would, and returns the decoded copy on the receiving end. Accounting
// counts the table payload only — the constant per-message frame header
// is transport overhead, excluded so byte counts stay comparable across
// transports and with the paper's bounds.
Result<Table> Ship(SimulatedNetwork* network, const Table& table, int from,
                   int to, uint64_t* bytes_acc, double* comm_acc) {
  std::vector<uint8_t> payload;
  WriteTable(table, &payload);
  *bytes_acc += payload.size();
  *comm_acc += network->Transfer(from, to, payload.size());
  std::vector<uint8_t> wire =
      rpc::EncodeFrame(rpc::MessageType::kTableResult, payload);
  SKALLA_ASSIGN_OR_RETURN(rpc::Frame frame, rpc::DecodeFrame(wire));
  return ReadTable(frame.payload.data(), frame.payload.size());
}

// The in-process SiteLink: sites are Site objects in this process, X and
// fragments cross the simulated network with real serialization, and the
// sites' carried-over structures live here — so every round, even one
// continuing a site's local structure, may fail over to a replica.
class InProcessLink : public SiteLink {
 public:
  InProcessLink(SiteFleet* fleet, SimulatedNetwork* network)
      : fleet_(fleet),
        network_(network),
        input_(fleet->sites.size()),
        input_round_(fleet->sites.size()),
        output_(fleet->sites.size()) {}

  size_t num_sites() const override { return fleet_->sites.size(); }

  Status BeginPlan(uint64_t, ExecStats*) override {
    return fleet_->Validate();
  }

  Result<SchemaPtr> TableSchema(const std::string& table) override {
    SKALLA_ASSIGN_OR_RETURN(const DataProvider* provider,
                            fleet_->sites[0].catalog().GetProvider(table));
    return provider->schema();
  }

  std::vector<int> ReplicaChain(size_t i, const SiteRound&) override {
    return fleet_->ReplicaIds(i);
  }

  Status ShipBase(size_t i, const Table& x, SiteTraffic* traffic) override {
    traffic->tuples_to_sites += x.num_rows();
    SKALLA_ASSIGN_OR_RETURN(
        input_[i],
        Ship(network_, x, kCoordinatorId, fleet_->sites[i].id(),
             &traffic->bytes_to_sites, &traffic->comm_time));
    return Status::OK();
  }

  Result<Table> Attempt(size_t i, size_t r, const SiteRound& round,
                        SiteAttempt* attempt, SiteTraffic* traffic) override {
    Site& site = fleet_->Replica(i, r);
    SKALLA_TRACE_SPAN_UNDER(site_span, "site.eval", "site",
                            round.eval.trace_parent_span);
    SKALLA_SPAN_ATTR(site_span, "site", static_cast<int64_t>(site.id()));
    SKALLA_SPAN_ATTR(site_span, "round", round.label);
    Stopwatch timer;
    EvalProfile eval_profile;
    EvalContext context = round.eval;
    context.profile = &eval_profile;
    Result<Table> result = Status::Internal("unset");
    if (round.stage == nullptr) {
      result = site.ExecuteBaseQuery(*round.base, context);
    } else {
      if (!round.self_contained && input_round_[i] != round.label) {
        input_[i] = std::move(output_[i]);
        input_round_[i] = round.label;
      }
      SKALLA_OBS_ONLY(context.trace_parent_span = site_span.id());
      result = round.base != nullptr
                   ? site.EvalBaseAndGmdjRound(*round.base, round.stage->op,
                                               context)
                   : site.EvalGmdjRound(input_[i], round.stage->op, context);
      if (result.ok() && context.compute_rng) {
        result = ApplyRngFilter(*result);
      }
    }
    SKALLA_RETURN_NOT_OK(result.status());
    const uint64_t eval_us =
        static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
    SKALLA_HISTOGRAM_RECORD("skalla.site.eval_us",
                            static_cast<double>(eval_us));

    SiteRoundProfile& profile = attempt->profile;
    profile.site_id = site.id();
    profile.wall_us = eval_us;
    profile.eval_us = eval_us;
    profile.morsel_us = eval_profile.morsel_us.load(std::memory_order_relaxed);
    profile.rows_scanned =
        eval_profile.rows_scanned.load(std::memory_order_relaxed);
    profile.rows_matched =
        eval_profile.rows_matched.load(std::memory_order_relaxed);
    profile.index_hits =
        eval_profile.index_hits.load(std::memory_order_relaxed);
    profile.chunks_pruned =
        eval_profile.chunks_pruned.load(std::memory_order_relaxed);
    profile.pages_loaded =
        eval_profile.pages_loaded.load(std::memory_order_relaxed);
    profile.bytes_loaded =
        eval_profile.bytes_loaded.load(std::memory_order_relaxed);
    profile.engines_used =
        eval_profile.engines_used.load(std::memory_order_relaxed);
    profile.fused =
        eval_profile.fused_base.load(std::memory_order_relaxed) != 0;
    profile.result_rows = result->num_rows();
    profile.bytes_in = traffic->bytes_to_sites;
    if (!round.synchronized) {
      output_[i] = std::move(*result);
      return Table();
    }
    SKALLA_ASSIGN_OR_RETURN(
        Table received,
        Ship(network_, *result, site.id(), kCoordinatorId,
             &attempt->bytes_to_coord, &attempt->comm_time));
    profile.bytes_out = attempt->bytes_to_coord;
    return received;
  }

 private:
  SiteFleet* fleet_;
  SimulatedNetwork* network_;
  // Per-site base-result structures. input_[i] is what site i's GMDJ
  // round evaluates against: the shipped X, or the previous round's
  // output_[i], moved over on the first attempt of a round that carries
  // it. input_round_[i] names that round, so a retry after a discarded
  // success re-reads the same input instead of its own output.
  std::vector<Table> input_;
  std::vector<std::string> input_round_;
  std::vector<Table> output_;
};

}  // namespace

Result<Table> DistributedExecutor::Execute(const DistributedPlan& plan,
                                           const QueryRun& run,
                                           ExecStats* stats) {
  InProcessLink link(&fleet_, &network_);
  return RunStarPlan(plan, run, options_, link, stats);
}

}  // namespace skalla

// RpcExecutor: the coordinator side of the distributed runtime — the one
// executor. It runs against a Transport (in-process SiteServices, which
// is what DistributedWarehouse runs on, or TCP-connected skalla-site
// processes), driving Alg. GMDJDistribEval through its round driver
// (RunStarPlan, rpc/star_driver.cc). Each round request carries what the
// site needs; the kernel and its worker count are the site's own.
//
// Accounting semantics (docs/RPC.md): bytes_to_sites / bytes_to_coord
// count table payload bytes only, so results AND byte counts are
// identical across transports and comparable with the paper's bounds.
// Frame headers and handshakes land in the skalla.rpc.bytes.sent/.recv
// metrics and in RoundStats::wire_bytes / ExecStats::total_wire_bytes
// instead. comm_time charges Transport::TransferTime for each accounted
// payload (the X shipment, a synchronized round's fragment): modeled
// in-process, 0 over TCP, where site_time_* (the measured request
// round-trip) already includes the real network. wall_time is real
// elapsed time per round.

#ifndef SKALLA_RPC_RPC_EXECUTOR_H_
#define SKALLA_RPC_RPC_EXECUTOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/executor.h"
#include "rpc/plan_serde.h"
#include "rpc/transport.h"
#include "types/schema.h"

namespace skalla {
namespace rpc {

/// What one CallRound observed: the accounted table payload bytes, the
/// framed wire bytes the call moved (all attempts' frames, headers and
/// CRCs included), and the site's RoundProfile when the response was a
/// kRoundResult (zeros otherwise).
struct RoundCallStats {
  uint64_t table_bytes = 0;
  uint64_t wire_bytes = 0;
  RoundProfile profile;
};

class RpcExecutor {
 public:
  /// `options` maps as documented in docs/RPC.md: fault_injector and
  /// max_site_retries drive the retry loop (with the TCP transport, a
  /// retry reconnects with backoff); fanout_threads fans a round's
  /// requests out over the per-site connections (default: all sites at
  /// once; 1 = one site after the other), with results, byte counts and
  /// profiles identical either way; the deadlines ship with each round
  /// request.
  RpcExecutor(std::unique_ptr<Transport> transport, ExecutorOptions options);

  const ExecutorOptions& options() const { return options_; }

  /// Dials every site (TCP: kHello handshake) and fetches the catalog
  /// schemas the coordinator needs for schema inference. Idempotent and
  /// thread-safe; Execute calls it on demand.
  Status Connect();

  /// Runs the plan under the per-submission parameters in `run`
  /// (connecting first when needed); returns the final base-result
  /// structure. `stats` (may be nullptr) receives per-round accounting.
  /// Thread-safe: concurrent Executes with distinct runs multiplex their
  /// round frames over the shared connections (each request/response
  /// pair holds its connection's lock — frame-granularity interleaving),
  /// tagged with the run's query id so the sites keep the queries' round
  /// states apart.
  Result<Table> Execute(const DistributedPlan& plan, const QueryRun& run,
                        ExecStats* stats);

  /// Execute with a default QueryRun.
  Result<Table> Execute(const DistributedPlan& plan, ExecStats* stats) {
    return Execute(plan, QueryRun{}, stats);
  }

  /// Declares transport endpoint `endpoint` (an index into the
  /// transport's sites, >= num_sites()) to be a replica of partition
  /// `partition`: a separate site process holding the same partition
  /// data. Rounds fail over to replicas in registration order when the
  /// primary endpoint exhausts its retries. Failover is limited to
  /// self-contained rounds (base rounds, and GMDJ rounds that carry the
  /// base structure in the request) — a round that consumes a site's
  /// carried-over local structure cannot move to a process that never
  /// saw the prior rounds.
  void AddReplica(size_t partition, size_t endpoint);

  /// Number of partitions (primary endpoints); replica endpoints are
  /// not counted. 0 when more replicas are registered than the transport
  /// has endpoints (Execute rejects that registration).
  size_t num_sites() const {
    const size_t replicas = NumReplicaEndpoints();
    const size_t endpoints = transport_->num_sites();
    return replicas >= endpoints ? 0 : endpoints - replicas;
  }

  /// Asks every site process to exit (kShutdown). Best effort: returns
  /// the first error but keeps notifying the remaining sites.
  Status Shutdown();

  /// Total wire bytes (frame headers included) over all connections.
  /// Thread-safe: sums under each connection's lock, so it may run
  /// beside concurrent Executes.
  uint64_t wire_bytes() const;

  /// Schema of a site-resident table, once connected.
  Result<SchemaPtr> TableSchema(const std::string& name) const;

  /// Pulls one endpoint's metrics snapshot (kGetStats): the site
  /// process's MetricsRegistry as JSON, plus its site id.
  Result<StatsResult> SiteStats(size_t endpoint);

 private:
  /// One request/response against site `i`, translating the response:
  /// kRoundResult decodes to the shipped table, as typed columns (null
  /// when the round shipped none), plus the site's RoundProfile (remote
  /// spans are merged into the coordinator tracer, parented under this
  /// call's rpc.round span); kAck (a shutdown's answer) to null; kError
  /// decodes back to the site's original Status.
  /// `call_stats` (may be nullptr) receives per-call accounting even
  /// when the call fails.
  /// The call's rpc.round span nests under `parent_span` (0 = the
  /// calling thread's innermost open span).
  Result<ChunkPtr> CallRound(size_t i, MessageType type,
                             const std::vector<uint8_t>& payload,
                             RoundCallStats* call_stats,
                             uint64_t parent_span = 0);

  /// One Call against endpoint `i` under its connection lock; the wire
  /// delta the call moved lands in *wire_delta (exact even when other
  /// queries share the connection, because the lock spans the
  /// measurement). The lock also means a whole frame exchange is atomic
  /// per connection — requests of different queries interleave between
  /// calls, never inside one.
  Result<Frame> CallLocked(size_t i, MessageType type,
                           const std::vector<uint8_t>& payload,
                           uint64_t* wire_delta);

  /// Creates the per-endpoint connections on first use (all or
  /// nothing). Caller holds connect_mu_.
  Status DialLocked();

  // How one Execute reaches its sites (rpc/star_driver.cc): request
  // encoding, X serialization and the per-query kEndPlan teardown.
  class Link;

  /// The round driver, Alg. GMDJDistribEval: runs `plan` over `link`
  /// under `run` (its query id resolved) and returns the final
  /// base-result structure; `stats` (may be nullptr) receives per-round
  /// accounting.
  Result<Table> RunStarPlan(const DistributedPlan& plan, const QueryRun& run,
                            Link& link, ExecStats* stats);

  // Endpoint indices of partition i's evaluation chain: primary, then
  // replicas in registration order.
  std::vector<size_t> ReplicaEndpoints(size_t i) const;

  size_t NumReplicaEndpoints() const;

  // Rejects replica registrations the transport cannot host: a partition
  // that does not exist, an endpoint outside [num_sites(), endpoints), or
  // one registered twice. Runs before any per-partition state is sized.
  Status ValidateReplicas() const;

  // Whether losing `endpoint` entirely (unreachable at connect, failing
  // with `loss`) can be absorbed by the retry -> failover -> degrade
  // ladder instead of failing the query up front:
  // true for replica endpoints, when the loss degrades (DegradesOnLoss),
  // and for primaries that have replicas.
  bool TolerableLoss(size_t endpoint, const Status& loss) const;

  std::unique_ptr<Transport> transport_;
  ExecutorOptions options_;
  std::vector<std::unique_ptr<Connection>> connections_;
  // One lock per connection: Connection::Call is single-caller by
  // contract, so every exchange (and its wire-byte measurement) runs
  // under the matching lock. unique_ptr keeps the vector movable.
  std::vector<std::unique_ptr<std::mutex>> connection_mu_;
  // Guards lazy init of connections_/schemas_; mutable for wire_bytes().
  mutable std::mutex connect_mu_;
  std::map<size_t, std::vector<size_t>> replica_endpoints_;
  // Set once a catalog probe got an answer, even an empty catalog.
  bool catalog_probed_ = false;
  std::map<std::string, SchemaPtr> schemas_;
};

}  // namespace rpc
}  // namespace skalla

#endif  // SKALLA_RPC_RPC_EXECUTOR_H_

#include "rpc/rpc_executor.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/obs.h"
#include "rpc/plan_serde.h"

namespace skalla {
namespace rpc {

RpcExecutor::RpcExecutor(std::unique_ptr<Transport> transport,
                         ExecutorOptions options)
    : transport_(std::move(transport)), options_(options) {}

void RpcExecutor::AddReplica(size_t partition, size_t endpoint) {
  replica_endpoints_[partition].push_back(endpoint);
}

std::vector<size_t> RpcExecutor::ReplicaEndpoints(size_t i) const {
  std::vector<size_t> endpoints{i};
  auto it = replica_endpoints_.find(i);
  if (it != replica_endpoints_.end()) {
    endpoints.insert(endpoints.end(), it->second.begin(), it->second.end());
  }
  return endpoints;
}

size_t RpcExecutor::NumReplicaEndpoints() const {
  size_t replicas = 0;
  for (const auto& entry : replica_endpoints_) replicas += entry.second.size();
  return replicas;
}

Status RpcExecutor::ValidateReplicas() const {
  const size_t total_endpoints = transport_->num_sites();
  const size_t replicas = NumReplicaEndpoints();
  if (replicas >= total_endpoints) {
    return Status::InvalidArgument(
        StrCat(replicas, " replica endpoints registered, but the transport ",
               "has ", total_endpoints,
               " endpoints: at least one must remain a primary"));
  }
  const size_t n = num_sites();
  std::vector<uint8_t> claimed(total_endpoints, 0);
  for (const auto& [partition, endpoints] : replica_endpoints_) {
    if (partition >= n) {
      return Status::InvalidArgument(
          StrCat("replica registered for partition ", partition, " but only ",
                 n, " partitions exist"));
    }
    for (size_t endpoint : endpoints) {
      if (endpoint < n || endpoint >= total_endpoints) {
        return Status::InvalidArgument(
            StrCat("replica endpoint ", endpoint,
                   " must index a transport endpoint in [", n, ", ",
                   total_endpoints, ")"));
      }
      if (claimed[endpoint]) {
        return Status::InvalidArgument(
            StrCat("replica endpoint ", endpoint,
                   " is registered more than once (partition ", partition,
                   ")"));
      }
      claimed[endpoint] = 1;
    }
  }
  return Status::OK();
}

bool RpcExecutor::TolerableLoss(size_t endpoint, const Status& loss) const {
  if (endpoint >= num_sites()) return true;  // a replica: only matters
                                             // if failover reaches it
  if (DegradesOnLoss(options_, loss)) return true;
  auto it = replica_endpoints_.find(endpoint);
  return it != replica_endpoints_.end() && !it->second.empty();
}

Status RpcExecutor::Connect() {
  // Serialized: concurrent Executes race to be the first dialer; the
  // loser blocks here, then sees the populated state and returns.
  std::lock_guard<std::mutex> connect_lock(connect_mu_);
  SKALLA_RETURN_NOT_OK(DialLocked());
  if (catalog_probed_) return Status::OK();
  // The catalog request doubles as the liveness probe: it forces the
  // handshake on every connection before the first round. Sites hold
  // partitions of the same relations, so any live site's schemas serve
  // for coordinator-side schema inference. A dead endpoint fails the
  // probe — fatal unless the retry -> failover -> degrade ladder can
  // absorb the loss (TolerableLoss), in which case the round machinery
  // deals with it.
  for (size_t i = 0; i < connections_.size(); ++i) {
    Result<Frame> probed =
        connections_[i]->Call(MessageType::kCatalogRequest, {});
    if (!probed.ok()) {
      if (!TolerableLoss(i, probed.status())) return probed.status();
      continue;
    }
    Frame response = std::move(*probed);
    if (response.type == MessageType::kError) {
      return ReadStatusPayload(response.payload);
    }
    if (response.type != MessageType::kCatalogResponse) {
      return Status::IOError("unexpected catalog response type");
    }
    if (!catalog_probed_) {
      SKALLA_ASSIGN_OR_RETURN(std::vector<CatalogEntry> entries,
                              DecodeCatalogResponse(response.payload));
      for (CatalogEntry& entry : entries) {
        schemas_[entry.name] = std::move(entry.schema);
      }
      catalog_probed_ = true;
    }
  }
  if (!catalog_probed_) {
    return Status::IOError("no live site answered the catalog probe");
  }
  return Status::OK();
}

Status RpcExecutor::DialLocked() {
  if (!connections_.empty()) return Status::OK();
  const size_t n = transport_->num_sites();
  if (n == 0) return Status::InvalidArgument("transport has no sites");
  // All or nothing: a failed dial leaves no half-populated state behind.
  std::vector<std::unique_ptr<Connection>> connections(n);
  std::vector<std::unique_ptr<std::mutex>> locks(n);
  for (size_t i = 0; i < n; ++i) {
    locks[i] = std::make_unique<std::mutex>();
    SKALLA_ASSIGN_OR_RETURN(connections[i], transport_->Connect(i));
  }
  connections_ = std::move(connections);
  connection_mu_ = std::move(locks);
  return Status::OK();
}

Result<SchemaPtr> RpcExecutor::TableSchema(const std::string& name) const {
  auto it = schemas_.find(name);
  if (it == schemas_.end()) {
    return Status::NotFound(StrCat("no site table named '", name, "'"));
  }
  return it->second;
}

uint64_t RpcExecutor::wire_bytes() const {
  // connect_mu_ keeps the connection list stable (and the catalog probe,
  // which calls without connection locks, out); each connection's lock
  // orders the read after any exchange in flight on it.
  std::lock_guard<std::mutex> connect_lock(connect_mu_);
  uint64_t total = 0;
  for (size_t i = 0; i < connections_.size(); ++i) {
    std::lock_guard<std::mutex> lock(*connection_mu_[i]);
    total += connections_[i]->wire_bytes();
  }
  return total;
}

Result<Frame> RpcExecutor::CallLocked(size_t i, MessageType type,
                                      const std::vector<uint8_t>& payload,
                                      uint64_t* wire_delta) {
  std::lock_guard<std::mutex> lock(*connection_mu_[i]);
  uint64_t wire_before = connections_[i]->wire_bytes();
  Result<Frame> response = connections_[i]->Call(type, payload);
  if (wire_delta != nullptr) {
    *wire_delta = connections_[i]->wire_bytes() - wire_before;
  }
  return response;
}

Result<ChunkPtr> RpcExecutor::CallRound(size_t i, MessageType type,
                                        const std::vector<uint8_t>& payload,
                                        RoundCallStats* call_stats,
                                        uint64_t parent_span) {
  SKALLA_TRACE_SPAN_UNDER(span, "rpc.round", "rpc", parent_span);
  (void)parent_span;
  SKALLA_SPAN_ATTR(span, "site", static_cast<int64_t>(i));
  Stopwatch timer;
  // Coordinator clock just before the request leaves: remote span
  // timestamps are shifted so the site's earliest event aligns here.
  int64_t send_ts_us = 0;
  SKALLA_OBS_ONLY(send_ts_us = obs::Tracer::Global().NowMicros());
  (void)send_ts_us;
  uint64_t wire_delta = 0;
  Result<Frame> response = CallLocked(i, type, payload, &wire_delta);
  if (call_stats != nullptr) call_stats->wire_bytes = wire_delta;
  SKALLA_HISTOGRAM_RECORD("skalla.rpc.round_us",
                          timer.ElapsedSeconds() * 1e6);
  SKALLA_RETURN_NOT_OK(response.status());
  switch (response->type) {
    case MessageType::kError:
      // Decode the site's own status so its error code survives the
      // wire (a site-side NotFound surfaces as NotFound).
      return ReadStatusPayload(response->payload);
    case MessageType::kAck:
      if (call_stats != nullptr) call_stats->table_bytes = 0;
      return ChunkPtr();
    case MessageType::kRoundResult: {
      SKALLA_ASSIGN_OR_RETURN(RoundResult result,
                              DecodeRoundResult(response->payload));
#if defined(SKALLA_TRACING) && SKALLA_TRACING
      if (!result.profile.spans.empty() &&
          obs::Tracer::Global().enabled()) {
        // Graft the site's span subtree under this call's rpc.round
        // span, in its own process lane.
        int64_t min_ts = result.profile.spans.front().ts_us;
        for (const obs::TraceEvent& e : result.profile.spans) {
          min_ts = std::min(min_ts, e.ts_us);
        }
        obs::Tracer::Global().ImportRemoteSpans(
            result.profile.spans, span.id(), send_ts_us - min_ts,
            static_cast<uint32_t>(result.profile.site_id) + 2,
            StrCat("site ", result.profile.site_id));
      }
#endif
      if (call_stats != nullptr) {
        call_stats->table_bytes = result.table_bytes;
        call_stats->profile = std::move(result.profile);
      }
      return std::move(result.table);
    }
    default:
      return Status::IOError(
          StrCat("unexpected response type ",
                 static_cast<int>(response->type)));
  }
}

Result<StatsResult> RpcExecutor::SiteStats(size_t endpoint) {
  SKALLA_RETURN_NOT_OK(Connect());
  if (endpoint >= connections_.size() || connections_[endpoint] == nullptr) {
    return Status::InvalidArgument(
        StrCat("no connection for endpoint ", endpoint));
  }
  SKALLA_ASSIGN_OR_RETURN(
      Frame response, CallLocked(endpoint, MessageType::kGetStats, {}, nullptr));
  if (response.type == MessageType::kError) {
    return ReadStatusPayload(response.payload);
  }
  if (response.type != MessageType::kStatsResult) {
    return Status::IOError(StrCat("unexpected stats response type ",
                                  static_cast<int>(response.type)));
  }
  return DecodeStatsResult(response.payload);
}

Status RpcExecutor::Shutdown() {
  {
    std::lock_guard<std::mutex> connect_lock(connect_mu_);
    SKALLA_RETURN_NOT_OK(DialLocked());
  }
  Status first_error;
  for (size_t i = 0; i < connections_.size(); ++i) {
    Status s = CallRound(i, MessageType::kShutdown, {}, nullptr).status();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

}  // namespace rpc
}  // namespace skalla

#include "rpc/server.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/macros.h"
#include "obs/obs.h"

namespace skalla {
namespace rpc {

namespace {

// splitmix64 finalizer: decisions depend only on (seed, request index),
// never on timing, so a chaos schedule replays exactly from its seed.
double ChaosUnit(uint64_t seed, uint64_t index) {
  uint64_t h = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

enum class ChaosFault { kNone, kDropResponse, kCorruptCrc, kResetMidFrame,
                        kDelay };

ChaosFault PickChaosFault(const SiteServerOptions::TransportChaos& chaos,
                          uint64_t index) {
  const double u = ChaosUnit(chaos.seed, index);
  double edge = chaos.drop_response_prob;
  if (u < edge) return ChaosFault::kDropResponse;
  edge += chaos.corrupt_crc_prob;
  if (u < edge) return ChaosFault::kCorruptCrc;
  edge += chaos.reset_midframe_prob;
  if (u < edge) return ChaosFault::kResetMidFrame;
  edge += chaos.delay_prob;
  if (u < edge) return ChaosFault::kDelay;
  return ChaosFault::kNone;
}

}  // namespace

Status SiteServer::Start() {
  SKALLA_ASSIGN_OR_RETURN(listener_,
                          TcpListener::Bind(options_.host, options_.port));
  return Status::OK();
}

Status SiteServer::Serve() {
  if (!listener_.valid()) SKALLA_RETURN_NOT_OK(Start());
  while (!stop_.load()) {
    SKALLA_ASSIGN_OR_RETURN(std::optional<TcpSocket> accepted,
                            listener_.Accept(options_.accept_timeout_s));
    if (!accepted.has_value()) continue;  // poll the stop flag
    SKALLA_COUNTER_ADD("skalla.rpc.server.connections", 1);
    // Per-connection errors (peer vanished, garbled frame) end the
    // connection, not the server; the coordinator reconnects.
    Status connection_status = ServeConnection(&*accepted);
    (void)connection_status;
    if (service_->shutdown_requested()) stop_.store(true);
  }
  return Status::OK();
}

Status SiteServer::ServeConnection(TcpSocket* connection) {
  while (!stop_.load()) {
    // Idle-wait for the next request in small slices so Stop() and
    // shutdown are noticed; only a started frame is held to io_timeout.
    struct pollfd pfd;
    pfd.fd = connection->fd();
    pfd.events = POLLIN;
    int rc = ::poll(&pfd, 1,
                    static_cast<int>(options_.accept_timeout_s * 1e3));
    if (rc == 0) continue;
    if (rc < 0) return Status::IOError("poll on connection failed");

    Result<Frame> received =
        RecvFrame(connection, options_.io_timeout_s, nullptr);
    if (!received.ok()) {
      // A frame from a foreign protocol version gets the typed status
      // back before the hangup, so a mixed deployment fails loudly with
      // kVersionMismatch instead of a silent dropped connection. (The
      // header parsed fine; only the payload is unread, and we drop the
      // connection right after, so the stream never desyncs.)
      if (received.status().IsVersionMismatch()) {
        Frame error = ErrorFrame(received.status());
        (void)SendFrame(connection, error.type, error.payload,
                        options_.io_timeout_s, nullptr);
      }
      return received.status();
    }
    Frame request = std::move(*received);
    int request_index = -1;
    if (request.type != MessageType::kHello) {
      request_index = requests_seen_++;
      if (request_index == options_.drop_request_index) {
        // Injected mid-round failure: hang up without answering. The
        // request was NOT handled, so the coordinator's retry re-runs
        // the round from the site's intact state.
        connection->Close();
        return Status::OK();
      }
    }
    Result<Frame> response = service_->Handle(request);
    if (!response.ok()) {
      // Malformed request: report it, then drop the connection (the
      // stream may be out of sync).
      Frame error = ErrorFrame(response.status());
      (void)SendFrame(connection, error.type, error.payload,
                      options_.io_timeout_s, nullptr);
      return response.status();
    }
    // Seeded transport chaos, round requests only: the request was
    // handled, the response gets lost or mangled in flight. Never two
    // in a row, so the coordinator's reconnect-and-retry recovers.
    const bool round_request = request.type == MessageType::kGmdjRound;
    if (round_request && options_.chaos.seed != 0) {
      ChaosFault fault =
          chaos_last_faulted_
              ? ChaosFault::kNone
              : PickChaosFault(options_.chaos,
                               static_cast<uint64_t>(request_index));
      chaos_last_faulted_ = fault != ChaosFault::kNone &&
                            fault != ChaosFault::kDelay;
      switch (fault) {
        case ChaosFault::kNone:
          break;
        case ChaosFault::kDropResponse:
          chaos_faults_.fetch_add(1);
          SKALLA_COUNTER_ADD("skalla.rpc.server.chaos_faults", 1);
          connection->Close();
          return Status::OK();
        case ChaosFault::kCorruptCrc: {
          chaos_faults_.fetch_add(1);
          SKALLA_COUNTER_ADD("skalla.rpc.server.chaos_faults", 1);
          std::vector<uint8_t> wire =
              EncodeFrame(response->type, response->payload);
          wire[12] ^= 0xFF;  // one CRC byte; the receiver must reject
          (void)connection->SendAll(wire.data(), wire.size(),
                                    options_.io_timeout_s);
          connection->Close();
          return Status::OK();
        }
        case ChaosFault::kResetMidFrame: {
          chaos_faults_.fetch_add(1);
          SKALLA_COUNTER_ADD("skalla.rpc.server.chaos_faults", 1);
          std::vector<uint8_t> wire =
              EncodeFrame(response->type, response->payload);
          size_t partial = std::min<size_t>(8, wire.size());
          (void)connection->SendAll(wire.data(), partial,
                                    options_.io_timeout_s);
          connection->Close();
          return Status::OK();
        }
        case ChaosFault::kDelay:
          chaos_faults_.fetch_add(1);
          SKALLA_COUNTER_ADD("skalla.rpc.server.chaos_faults", 1);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options_.chaos.delay_ms));
          break;
      }
    } else if (round_request) {
      chaos_last_faulted_ = false;
    }
    SKALLA_RETURN_NOT_OK(SendFrame(connection, response->type,
                                   response->payload, options_.io_timeout_s,
                                   nullptr));
    if (service_->shutdown_requested()) return Status::OK();
  }
  return Status::OK();
}

}  // namespace rpc
}  // namespace skalla

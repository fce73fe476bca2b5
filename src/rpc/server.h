// SiteServer: the accept/serve loop of a skalla-site process. Owns a
// TcpListener, accepts one coordinator connection at a time, and feeds
// received frames to a SiteService. A dropped connection does not lose
// site state — the service (and its carried-over round structures)
// outlives connections, which is what makes coordinator-side
// reconnect-and-retry recovery work.

#ifndef SKALLA_RPC_SERVER_H_
#define SKALLA_RPC_SERVER_H_

#include <atomic>
#include <string>

#include "common/result.h"
#include "rpc/site_service.h"
#include "rpc/tcp.h"

namespace skalla {
namespace rpc {

struct SiteServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  int port = 0;
  /// Accept poll granularity — how quickly Stop() is noticed.
  double accept_timeout_s = 0.2;
  /// Per-frame receive/send timeout once a connection is up. Idle waits
  /// for the next request poll in accept_timeout_s slices, so a quiet
  /// coordinator does not trip this.
  double io_timeout_s = 30.0;
  /// Fault hook for tests: when >= 0, the server closes the connection
  /// instead of answering the Nth request it receives (counted across
  /// connections, handshakes excluded, one-shot). Simulates a site
  /// falling over mid-round.
  int drop_request_index = -1;
  /// Seeded transport-level chaos (docs/FAULTS.md). Applied only to
  /// round requests (kGmdjRound), after the request has
  /// been handled — the site's state advances, the coordinator's
  /// response is lost or mangled, and its retry path must recover.
  /// Decisions are a pure function of (seed, request index), so a given
  /// seed replays the same fault schedule; two consecutive requests are
  /// never both faulted, so any retry budget >= 1 makes progress.
  struct TransportChaos {
    uint64_t seed = 0;  // 0 = chaos disabled
    double drop_response_prob = 0.0;   // close without answering
    double corrupt_crc_prob = 0.0;     // flip a CRC byte, send, close
    double reset_midframe_prob = 0.0;  // send 8 bytes of the frame, close
    double delay_prob = 0.0;           // sleep delay_ms, then answer
    uint64_t delay_ms = 5;
  };
  TransportChaos chaos;
};

class SiteServer {
 public:
  SiteServer(SiteService* service, SiteServerOptions options)
      : service_(service), options_(options) {}

  /// Binds the listener; port() is valid afterwards.
  Status Start();

  int port() const { return listener_.port(); }

  /// Serves until a kShutdown request is acknowledged or Stop() is
  /// called. Returns non-OK only for listener-level failures; per
  /// connection errors just drop the connection.
  Status Serve();

  /// Asks Serve to return; callable from another thread.
  void Stop() { stop_.store(true); }

  /// Transport faults injected so far (for chaos-test assertions).
  int chaos_faults_injected() const { return chaos_faults_.load(); }

  /// The live fault counter, for wiring into
  /// SiteService::set_chaos_faults_counter so RoundProfiles report it.
  const std::atomic<int>* chaos_faults_counter() const {
    return &chaos_faults_;
  }

 private:
  Status ServeConnection(TcpSocket* connection);

  SiteService* service_;
  SiteServerOptions options_;
  TcpListener listener_;
  std::atomic<bool> stop_{false};
  int requests_seen_ = 0;
  bool chaos_last_faulted_ = false;
  std::atomic<int> chaos_faults_{0};
};

}  // namespace rpc
}  // namespace skalla

#endif  // SKALLA_RPC_SERVER_H_

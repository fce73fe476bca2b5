// Transport: how the RpcExecutor reaches its sites. A Transport hands
// out one Connection per site; a Connection is a synchronous
// request/response pipe speaking the framed protocol (rpc/frame.h).
//
// Two implementations:
//   - InProcessTransport: sites live in this process as SiteService
//     objects; every exchange still round-trips through EncodeFrame /
//     DecodeFrame, so the in-process path exercises the identical wire
//     bytes the TCP path ships. The network is modeled
//     (net/network.h): TransferTime fills RoundStats::comm_time.
//   - TcpTransport (rpc/tcp.h): sites are separate skalla-site processes
//     reached over sockets, with timeouts and reconnect backoff. The
//     network is real, so nothing is modeled.

#ifndef SKALLA_RPC_TRANSPORT_H_
#define SKALLA_RPC_TRANSPORT_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "dist/site.h"
#include "net/network.h"
#include "rpc/frame.h"
#include "rpc/site_service.h"

namespace skalla {
namespace rpc {

/// One coordinator<->site pipe. Not thread-safe; the executor drives
/// each connection from one thread at a time.
class Connection {
 public:
  virtual ~Connection() = default;

  /// One request/response exchange. Returns the decoded response frame
  /// (which may be kError — protocol-level success, application-level
  /// failure). A non-OK Result is a transport failure: the request may
  /// or may not have reached the site, and the caller's retry ladder
  /// (ExecuteSiteRoundReplicated + max_site_retries) decides what
  /// happens next.
  virtual Result<Frame> Call(MessageType type,
                             const std::vector<uint8_t>& payload) = 0;

  /// Total bytes moved over the wire by this connection so far, frame
  /// headers included (feeds the skalla.rpc.bytes counter).
  virtual uint64_t wire_bytes() const = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual size_t num_sites() const = 0;

  /// Opens (or reopens) the connection to site `site_index`.
  virtual Result<std::unique_ptr<Connection>> Connect(size_t site_index) = 0;

  /// Modeled seconds to move an accounted table payload of `bytes`
  /// (RoundStats::comm_time); 0 when the network is real.
  virtual double TransferTime(uint64_t /*bytes*/) const { return 0; }
};

/// Sites hosted in this process. Owns one SiteService per site; the
/// services' round state persists across Connect calls, like a site
/// process that outlives a dropped coordinator connection. The services
/// record their spans straight into this process's tracer, so they ship
/// none back.
class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(std::vector<Site> sites,
                              NetworkConfig network = {});

  size_t num_sites() const override { return services_.size(); }

  Result<std::unique_ptr<Connection>> Connect(size_t site_index) override;

  double TransferTime(uint64_t bytes) const override {
    return ModeledTransferTime(network_, bytes);
  }

  SiteService* service(size_t site_index) {
    return services_[site_index].get();
  }

 private:
  std::vector<std::unique_ptr<SiteService>> services_;
  NetworkConfig network_;
};

}  // namespace rpc
}  // namespace skalla

#endif  // SKALLA_RPC_TRANSPORT_H_

// POSIX TCP plumbing for the rpc layer: a move-only socket wrapper with
// deadline-bounded connect/read/write, a listener, framed send/receive
// over a socket, and the TcpTransport/TcpConnection pair the RpcExecutor
// uses to drive skalla-site processes.
//
// Failure model: every Call is one attempt. A transport error closes the
// connection and the next Call reconnects lazily, sleeping an
// exponentially growing backoff per consecutive failure; the *retry*
// decision stays with the coordinator's retry ladder
// (ExecuteSiteRoundReplicated, max_site_retries), so the recovery policy
// is identical across the simulated and the real transports.

#ifndef SKALLA_RPC_TCP_H_
#define SKALLA_RPC_TCP_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "rpc/frame.h"
#include "rpc/transport.h"

namespace skalla {
namespace rpc {

/// Knobs for one TCP connection. Defaults suit localhost tests; real
/// deployments raise the timeouts.
struct TcpOptions {
  double connect_timeout_s = 5.0;
  double io_timeout_s = 30.0;
  /// First reconnect delay after a failure; doubles per consecutive
  /// failure up to backoff_max_s. The first connect never sleeps.
  double backoff_initial_s = 0.02;
  double backoff_max_s = 1.0;
};

/// Move-only owner of a connected (or accepted) socket fd.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket() { Close(); }

  TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Connects to host:port, failing after `timeout_s`.
  static Result<TcpSocket> ConnectTo(const std::string& host, int port,
                                     double timeout_s);

  /// Writes exactly `size` bytes, failing if the deadline expires first.
  Status SendAll(const uint8_t* data, size_t size, double timeout_s);

  /// Reads exactly `size` bytes, failing on EOF or deadline.
  Status RecvAll(uint8_t* data, size_t size, double timeout_s);

 private:
  int fd_ = -1;
};

/// Sends one framed message over the socket. Adds the bytes put on the
/// wire (header included) to *wire_bytes when non-null.
Status SendFrame(TcpSocket* socket, MessageType type,
                 const std::vector<uint8_t>& payload, double timeout_s,
                 uint64_t* wire_bytes);

/// Receives one framed message, validating header and checksum.
Result<Frame> RecvFrame(TcpSocket* socket, double timeout_s,
                        uint64_t* wire_bytes);

/// A listening socket. Bind with port 0 for an ephemeral port and read
/// the chosen one back with port().
class TcpListener {
 public:
  TcpListener() = default;

  static Result<TcpListener> Bind(const std::string& host, int port);

  bool valid() const { return socket_.valid(); }
  int port() const { return port_; }
  void Close() { socket_.Close(); }

  /// Waits up to `timeout_s` for a connection; nullopt on timeout (so a
  /// serve loop can poll a stop flag between waits).
  Result<std::optional<TcpSocket>> Accept(double timeout_s);

 private:
  TcpSocket socket_;
  int port_ = 0;
};

/// Where one site process listens.
struct SiteEndpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Connection to one skalla-site process. Connects lazily on the first
/// Call, performs the kHello handshake (verifying the peer is the site
/// the executor thinks it is), and reconnects with backoff after
/// transport failures.
class TcpConnection : public Connection {
 public:
  TcpConnection(SiteEndpoint endpoint, int expected_site_id,
                TcpOptions options)
      : endpoint_(std::move(endpoint)),
        expected_site_id_(expected_site_id),
        options_(options) {}

  Result<Frame> Call(MessageType type,
                     const std::vector<uint8_t>& payload) override;

  uint64_t wire_bytes() const override { return wire_bytes_; }

  bool connected() const { return socket_.valid(); }
  uint64_t reconnects() const { return reconnects_; }

 private:
  Status EnsureConnected();

  SiteEndpoint endpoint_;
  int expected_site_id_;
  TcpOptions options_;
  TcpSocket socket_;
  uint64_t wire_bytes_ = 0;
  uint64_t reconnects_ = 0;
  uint32_t consecutive_failures_ = 0;
};

/// Transport over a fixed list of site endpoints; endpoint i must be the
/// process serving site id i.
class TcpTransport : public Transport {
 public:
  explicit TcpTransport(std::vector<SiteEndpoint> endpoints,
                        TcpOptions options = {})
      : endpoints_(std::move(endpoints)), options_(options) {}

  size_t num_sites() const override { return endpoints_.size(); }

  Result<std::unique_ptr<Connection>> Connect(size_t site_index) override;

 private:
  std::vector<SiteEndpoint> endpoints_;
  TcpOptions options_;
};

}  // namespace rpc
}  // namespace skalla

#endif  // SKALLA_RPC_TCP_H_

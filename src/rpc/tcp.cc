#include "rpc/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/obs.h"
#include "rpc/plan_serde.h"

namespace skalla {
namespace rpc {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrCat(what, ": ", std::strerror(errno)));
}

// Remaining milliseconds of a deadline for poll(); at least 1 so a
// positive remaining time never busy-spins as a zero-timeout poll.
int RemainingMs(const Stopwatch& timer, double timeout_s) {
  double left = timeout_s - timer.ElapsedSeconds();
  if (left <= 0) return 0;
  int ms = static_cast<int>(left * 1e3);
  return ms < 1 ? 1 : ms;
}

Status WaitReadable(int fd, const Stopwatch& timer, double timeout_s) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    int ms = RemainingMs(timer, timeout_s);
    if (ms == 0) return Status::IOError("read timed out");
    int rc = ::poll(&pfd, 1, ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::IOError("read timed out");
    if (errno != EINTR) return Errno("poll");
  }
}

Status WaitWritable(int fd, const Stopwatch& timer, double timeout_s) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLOUT;
  for (;;) {
    int ms = RemainingMs(timer, timeout_s);
    if (ms == 0) return Status::IOError("write timed out");
    int rc = ::poll(&pfd, 1, ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::IOError("write timed out");
    if (errno != EINTR) return Errno("poll");
  }
}

Result<struct sockaddr_in> ResolveV4(const std::string& host, int port) {
  // htons would wrap an out-of-range port onto an unrelated one.
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        StrCat("port ", port, " is outside [0, 65535]"));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrCat("not an IPv4 address: '", host, "'"));
  }
  return addr;
}

}  // namespace

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpSocket> TcpSocket::ConnectTo(const std::string& host, int port,
                                       double timeout_s) {
  SKALLA_ASSIGN_OR_RETURN(struct sockaddr_in addr, ResolveV4(host, port));
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  TcpSocket socket(fd);

  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  Stopwatch timer;
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) return Errno("connect");
    SKALLA_RETURN_NOT_OK(WaitWritable(fd, timer, timeout_s));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return Errno("getsockopt");
    }
    if (err != 0) {
      return Status::IOError(StrCat("connect to ", host, ":", port, ": ",
                                    std::strerror(err)));
    }
  }
  return socket;
}

Status TcpSocket::SendAll(const uint8_t* data, size_t size,
                          double timeout_s) {
  if (!valid()) return Status::IOError("socket is closed");
  Stopwatch timer;
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SKALLA_RETURN_NOT_OK(WaitWritable(fd_, timer, timeout_s));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

Status TcpSocket::RecvAll(uint8_t* data, size_t size, double timeout_s) {
  if (!valid()) return Status::IOError("socket is closed");
  Stopwatch timer;
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd_, data + got, size - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return Status::IOError("connection closed by peer");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      SKALLA_RETURN_NOT_OK(WaitReadable(fd_, timer, timeout_s));
      continue;
    }
    if (errno == EINTR) continue;
    return Errno("recv");
  }
  return Status::OK();
}

Status SendFrame(TcpSocket* socket, MessageType type,
                 const std::vector<uint8_t>& payload, double timeout_s,
                 uint64_t* wire_bytes) {
  SKALLA_OBS_ONLY(Stopwatch frame_watch);
  std::vector<uint8_t> wire = EncodeFrame(type, payload);
  SKALLA_HISTOGRAM_RECORD("skalla.rpc.frame_us",
                          frame_watch.ElapsedSeconds() * 1e6);
  SKALLA_RETURN_NOT_OK(socket->SendAll(wire.data(), wire.size(), timeout_s));
  if (wire_bytes != nullptr) *wire_bytes += wire.size();
  SKALLA_COUNTER_ADD("skalla.rpc.bytes.sent", wire.size());
  return Status::OK();
}

Result<Frame> RecvFrame(TcpSocket* socket, double timeout_s,
                        uint64_t* wire_bytes) {
  uint8_t header[kFrameHeaderSize];
  SKALLA_RETURN_NOT_OK(socket->RecvAll(header, sizeof(header), timeout_s));
  SKALLA_OBS_ONLY(Stopwatch frame_watch);
  MessageType type;
  uint32_t expected_crc = 0;
  SKALLA_ASSIGN_OR_RETURN(
      uint32_t payload_len,
      DecodeFrameHeader(header, sizeof(header), &type, &expected_crc));
  Frame frame;
  frame.type = type;
  frame.payload.resize(payload_len);
  if (payload_len > 0) {
    SKALLA_RETURN_NOT_OK(
        socket->RecvAll(frame.payload.data(), payload_len, timeout_s));
  }
  SKALLA_OBS_ONLY(frame_watch.Reset());
  if (FrameCrc(header, frame.payload.data(), frame.payload.size()) !=
      expected_crc) {
    return Status::IOError("frame checksum mismatch");
  }
  SKALLA_HISTOGRAM_RECORD("skalla.rpc.frame_us",
                          frame_watch.ElapsedSeconds() * 1e6);
  if (wire_bytes != nullptr) *wire_bytes += kFrameHeaderSize + payload_len;
  SKALLA_COUNTER_ADD("skalla.rpc.bytes.recv", kFrameHeaderSize + payload_len);
  return frame;
}

Result<TcpListener> TcpListener::Bind(const std::string& host, int port) {
  SKALLA_ASSIGN_OR_RETURN(struct sockaddr_in addr, ResolveV4(host, port));
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  TcpListener listener;
  listener.socket_ = TcpSocket(fd);

  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd, 16) != 0) return Errno("listen");

  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) !=
      0) {
    return Errno("getsockname");
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<std::optional<TcpSocket>> TcpListener::Accept(double timeout_s) {
  if (!socket_.valid()) return Status::IOError("listener is closed");
  Stopwatch timer;
  for (;;) {
    int accepted = ::accept4(socket_.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (accepted >= 0) {
      int one = 1;
      ::setsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return std::optional<TcpSocket>(TcpSocket(accepted));
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      struct pollfd pfd;
      pfd.fd = socket_.fd();
      pfd.events = POLLIN;
      int ms = RemainingMs(timer, timeout_s);
      if (ms == 0) return std::optional<TcpSocket>();
      int rc = ::poll(&pfd, 1, ms);
      if (rc == 0) return std::optional<TcpSocket>();
      if (rc < 0 && errno != EINTR) return Errno("poll");
      continue;
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

Status TcpConnection::EnsureConnected() {
  if (socket_.valid()) return Status::OK();
  if (consecutive_failures_ > 0) {
    // Exponential backoff before reconnecting, capped; retries of a
    // crashed-and-restarting site should not hammer the port.
    double delay = options_.backoff_initial_s *
                   static_cast<double>(1u << std::min(consecutive_failures_ -
                                                          1,
                                                      20u));
    if (delay > options_.backoff_max_s) delay = options_.backoff_max_s;
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
  SKALLA_TRACE_SPAN(span, "rpc.connect", "rpc");
  SKALLA_SPAN_ATTR(span, "host", endpoint_.host);
  SKALLA_SPAN_ATTR(span, "port", static_cast<int64_t>(endpoint_.port));
  Result<TcpSocket> connected = TcpSocket::ConnectTo(
      endpoint_.host, endpoint_.port, options_.connect_timeout_s);
  if (!connected.ok()) {
    ++consecutive_failures_;
    return connected.status();
  }
  socket_ = std::move(*connected);
  ++reconnects_;

  // Handshake: both ends announce their site id; a mismatch means the
  // endpoint list is wired to the wrong process.
  Status hello = SendFrame(&socket_, MessageType::kHello,
                           EncodeHello(expected_site_id_),
                           options_.io_timeout_s, &wire_bytes_);
  Result<Frame> reply =
      hello.ok() ? RecvFrame(&socket_, options_.io_timeout_s, &wire_bytes_)
                 : Result<Frame>(hello);
  if (!reply.ok()) {
    socket_.Close();
    ++consecutive_failures_;
    return reply.status();
  }
  if (reply->type != MessageType::kHello) {
    socket_.Close();
    ++consecutive_failures_;
    return Status::IOError("handshake: unexpected response type");
  }
  Result<int> peer_id = DecodeHello(reply->payload);
  if (!peer_id.ok()) {
    socket_.Close();
    ++consecutive_failures_;
    return peer_id.status();
  }
  if (*peer_id != expected_site_id_) {
    socket_.Close();
    ++consecutive_failures_;
    return Status::InvalidArgument(
        StrCat("endpoint ", endpoint_.host, ":", endpoint_.port,
               " serves site ", *peer_id, ", expected site ",
               expected_site_id_));
  }
  consecutive_failures_ = 0;
  return Status::OK();
}

Result<Frame> TcpConnection::Call(MessageType type,
                                  const std::vector<uint8_t>& payload) {
  SKALLA_RETURN_NOT_OK(EnsureConnected());
  Status sent =
      SendFrame(&socket_, type, payload, options_.io_timeout_s, &wire_bytes_);
  if (!sent.ok()) {
    socket_.Close();
    ++consecutive_failures_;
    return sent;
  }
  Result<Frame> response =
      RecvFrame(&socket_, options_.io_timeout_s, &wire_bytes_);
  if (!response.ok()) {
    socket_.Close();
    ++consecutive_failures_;
    return response.status();
  }
  consecutive_failures_ = 0;
  return response;
}

Result<std::unique_ptr<Connection>> TcpTransport::Connect(size_t site_index) {
  if (site_index >= endpoints_.size()) {
    return Status::InvalidArgument(
        StrCat("no site ", site_index, " (transport has ", endpoints_.size(),
               " endpoints)"));
  }
  return std::unique_ptr<Connection>(std::make_unique<TcpConnection>(
      endpoints_[site_index], static_cast<int>(site_index), options_));
}

}  // namespace rpc
}  // namespace skalla

// The paper's network cost model for coordinator <-> site traffic.
//
// Byte counts come from real serialization (net/serde.h), so they are
// exact. Time is modeled: each message costs a fixed latency plus
// bytes / bandwidth. The in-process transport (rpc/transport.h) charges
// it per accounted table payload into RoundStats::comm_time; over TCP the
// network is real and nothing is modeled.

#ifndef SKALLA_NET_NETWORK_H_
#define SKALLA_NET_NETWORK_H_

#include <cstdint>

namespace skalla {

struct NetworkConfig {
  /// Per-message fixed latency, seconds. Default 1 ms (WAN-ish RTT/2).
  double latency_s = 0.001;
  /// Link bandwidth, bytes/second. Default 10 MB/s, the order of a 100
  /// Mbit research WAN circa the paper.
  double bandwidth_bytes_per_s = 10.0 * 1000 * 1000;
};

/// Modeled time, in seconds, to move one message of `bytes` under
/// `config`.
inline double ModeledTransferTime(const NetworkConfig& config,
                                  uint64_t bytes) {
  return config.latency_s +
         static_cast<double>(bytes) / config.bandwidth_bytes_per_s;
}

}  // namespace skalla

#endif  // SKALLA_NET_NETWORK_H_

// The Skalla wire frame: every message between a coordinator and a site
// — over TCP or through the InProcessTransport (rpc/transport.h) —
// travels inside one of these.
//
// Layout (little-endian, fixed 16-byte header):
//
//   offset  size  field
//        0     4  magic            "SKLA" (0x414C4B53)
//        4     1  protocol version (kProtocolVersion)
//        5     1  message type     (MessageType)
//        6     2  reserved         (zero)
//        8     4  payload length   (bytes following the header)
//       12     4  CRC32 of header bytes [0, 12) + payload (ISO-HDLC)
//
// The header is deliberately free of varints: a receiver reads exactly
// kFrameHeaderSize bytes, validates magic/version/type, then knows how
// many payload bytes follow. A version byte other than kProtocolVersion
// is rejected with Status::VersionMismatch so mixed deployments fail
// loudly instead of misparsing payloads. Since v3 the checksum covers
// the header (all bytes before the CRC field itself) as well as the
// payload, so a corrupted type or length byte can never decode silently:
// every single-byte flip is caught either by a field validity check or
// by the checksum.

#ifndef SKALLA_RPC_FRAME_H_
#define SKALLA_RPC_FRAME_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace skalla {
namespace rpc {

inline constexpr uint32_t kFrameMagic = 0x414C4B53;  // "SKLA"
// Version history:
//   1  initial protocol
//   2  BeginPlan payload grows an eval_threads varint after the flags
//      byte (intra-site morsel parallelism)
//   3  frame CRC covers the header (bytes [0, 12)) as well as the
//      payload; BaseRound/GmdjRound payloads grow a deadline_ms varint
//      after the flags byte (coordinator-propagated round deadline)
//   4  BaseRound/GmdjRound payloads grow a TraceContext (trace id,
//      parent span id, query id varints) after deadline_ms; round
//      responses switch from kTableResult to kRoundResult (flags byte +
//      serialized RoundProfile + optional table tail); new kGetStats /
//      kStatsResult message pair for pulling a site's metrics snapshot
//   5  multi-query frame multiplexing: BeginPlan payload grows a
//      query_id varint after eval_threads, sites keep per-query round
//      state keyed by the TraceContext query id (so rounds of different
//      queries interleave over one connection), and the new kEndPlan
//      message (varint query id) releases a query's site-side state
//   6  engine plumbing: BeginPlan payload grows an engine varint after
//      query_id (the EvalContext::engine every GMDJ round of the plan
//      runs under), and RoundProfile grows an engines_used varint after
//      chaos_faults (which kernels the round's evaluation actually used)
//   7  BeginPlan drops its flags byte (it carried only the retired
//      columnar-cache warm-up flag): the payload is exactly the
//      eval_threads, query_id and engine varints, engine values are
//      0 columnar / 1 row / 2 nested, and BeginPlan/EndPlan payloads
//      with trailing bytes are rejected
//   8  RoundProfile grows a chunks_pruned varint after engines_used, and
//      base rounds fill rows_scanned, chunks_pruned and engines_used
//      (the base-query scan is columnar)
//   9  RoundProfile grows pages_loaded and bytes_loaded varints after
//      chunks_pruned: the column pages the round's pins loaded (its
//      buffer misses) and their estimated bytes, in both round kinds
//  10  a Prop. 2 plan's first GmdjRound carries the base query (flag bit
//      16) and the site computes B_i inside it; BaseRound drops its
//      flags byte (a base round always ships its result, so there is no
//      carried base); RoundProfile grows a `fused` varint after
//      bytes_loaded
//  11  the BeginPlan frame (type 5) is retired: a site answers it like
//      any type it cannot serve. A site creates a query's round state on
//      the first round that reads or leaves a carried structure, and the
//      coordinator sends kEndPlan only to the endpoints it sent such a
//      round to. A plan of self-contained synchronized rounds sends
//      nothing but its rounds.
inline constexpr uint8_t kProtocolVersion = 11;
inline constexpr size_t kFrameHeaderSize = 16;

/// What a frame carries. Requests flow coordinator -> site; responses
/// site -> coordinator. kTableResult is the pre-v4 round response, kept
/// only as a reserved tag: no v11 site sends it.
enum class MessageType : uint8_t {
  kError = 0,        // response: encoded Status (rpc/plan_serde.h)
  kAck = 1,          // response: empty payload
  kHello = 2,        // both ways: varint site id (connection handshake)
  kCatalogRequest = 3,   // request: empty payload
  kCatalogResponse = 4,  // response: table names + schemas
  // 5 was BeginPlan (retired in v11).
  kBaseRound = 6,    // request: BaseRoundRequest
  kGmdjRound = 7,    // request: GmdjRoundRequest
  kTableResult = 8,  // response: net/serde table payload
  kShutdown = 9,     // request: site server stops after acknowledging
  kGetStats = 10,    // request: empty payload; pulls a metrics snapshot
  kStatsResult = 11,  // response: varint site id + JSON metrics string
  kRoundResult = 12,  // response: flags + RoundProfile + table payload
  kEndPlan = 13,      // request: varint query id; frees per-query state
};

inline constexpr uint8_t kMaxMessageType =
    static_cast<uint8_t>(MessageType::kEndPlan);

/// One decoded message.
struct Frame {
  MessageType type = MessageType::kError;
  std::vector<uint8_t> payload;
};

/// CRC-32 (ISO-HDLC / zlib polynomial, reflected). Crc32("123456789")
/// == 0xCBF43926.
uint32_t Crc32(const uint8_t* data, size_t size);

/// Incremental CRC-32 over discontiguous buffers: start from
/// Crc32Init(), fold each buffer with Crc32Update(), then finalize.
/// Crc32Final(Crc32Update(Crc32Init(), d, n)) == Crc32(d, n).
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t state, const uint8_t* data, size_t size);
uint32_t Crc32Final(uint32_t state);

/// The frame checksum: CRC-32 over the first 12 header bytes followed
/// by the payload.
uint32_t FrameCrc(const uint8_t* header, const uint8_t* payload,
                  size_t payload_size);

/// Appends the 16-byte header followed by the payload to `out`.
void EncodeFrame(MessageType type, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out);

/// Convenience: a freshly encoded frame buffer.
std::vector<uint8_t> EncodeFrame(MessageType type,
                                 const std::vector<uint8_t>& payload);

/// Validates a 16-byte header. On success returns the payload length;
/// `type_out` (may be nullptr) receives the message type and `crc_out`
/// (may be nullptr) the expected frame CRC (header bytes [0, 12) +
/// payload). Wrong magic/garbled headers are IOError; a foreign
/// protocol version is VersionMismatch.
Result<uint32_t> DecodeFrameHeader(const uint8_t* header, size_t size,
                                   MessageType* type_out, uint32_t* crc_out);

/// Decodes a whole buffer (header + payload, nothing trailing),
/// verifying the frame checksum.
Result<Frame> DecodeFrame(const uint8_t* data, size_t size);
inline Result<Frame> DecodeFrame(const std::vector<uint8_t>& buffer) {
  return DecodeFrame(buffer.data(), buffer.size());
}

}  // namespace rpc
}  // namespace skalla

#endif  // SKALLA_RPC_FRAME_H_

// The rpc wire frame: CRC known answers, encode/decode round trips, and
// rejection of every malformed-header class — wrong magic, foreign
// protocol version (typed kVersionMismatch, satellite of the versioned
// frame header work), unknown message type, truncation, and payload
// corruption caught by the checksum.

#include "rpc/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

namespace skalla {
namespace rpc {
namespace {

TEST(Crc32Test, KnownAnswers) {
  // The ISO-HDLC check value every CRC-32 implementation must hit.
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  const uint8_t zero = 0;
  EXPECT_EQ(Crc32(&zero, 1), 0xD202EF8Du);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>("123456789");
  // Split the check input at every boundary: the incremental form must
  // agree with the one-shot CRC regardless of buffer segmentation.
  for (size_t split = 0; split <= 9; ++split) {
    uint32_t state = Crc32Init();
    state = Crc32Update(state, data, split);
    state = Crc32Update(state, data + split, 9 - split);
    EXPECT_EQ(Crc32Final(state), 0xCBF43926u) << "split at " << split;
  }
}

// The bytewise table CRC the slicing-by-8 implementation must match.
uint32_t ReferenceCrc32Update(uint32_t state, const uint8_t* data,
                              size_t size) {
  for (size_t i = 0; i < size; ++i) {
    state ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
    }
  }
  return state;
}

std::vector<uint8_t> RandomBytes(std::mt19937* rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>((*rng)() & 0xFF);
  return bytes;
}

TEST(Crc32Test, SlicingMatchesBytewiseAtEveryAlignmentAndLength) {
  std::mt19937 rng(17);
  const std::vector<uint8_t> buf = RandomBytes(&rng, 64 + 8);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint8_t* p = buf.data() + align;
      EXPECT_EQ(Crc32(p, len),
                ReferenceCrc32Update(0xFFFFFFFFu, p, len) ^ 0xFFFFFFFFu)
          << "align=" << align << " len=" << len;
    }
  }
}

TEST(Crc32Test, SlicingMatchesBytewiseOnRandomBuffersAndSplits) {
  std::mt19937 rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<uint8_t> buf = RandomBytes(&rng, rng() % 5000);
    const uint32_t expected =
        ReferenceCrc32Update(0xFFFFFFFFu, buf.data(), buf.size()) ^
        0xFFFFFFFFu;
    EXPECT_EQ(Crc32(buf.data(), buf.size()), expected) << trial;
    // The same bytes folded in random pieces.
    uint32_t state = Crc32Init();
    size_t pos = 0;
    while (pos < buf.size()) {
      const size_t piece = std::min<size_t>(buf.size() - pos, rng() % 40);
      state = Crc32Update(state, buf.data() + pos, piece);
      pos += piece;
    }
    EXPECT_EQ(Crc32Final(state), expected) << trial;
  }
}

TEST(FrameTest, RoundTripPreservesTypeAndPayload) {
  std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 42};
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kGmdjRound, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());

  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MessageType::kGmdjRound);
  EXPECT_EQ(decoded->payload, payload);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kAck, {});
  ASSERT_EQ(wire.size(), kFrameHeaderSize);
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MessageType::kAck);
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(FrameTest, HeaderLayoutIsPinned) {
  // The layout is a wire contract: magic little-endian at 0, version at
  // 4, type at 5, reserved zero at 6..7, payload length at 8.
  std::vector<uint8_t> payload = {9, 9, 9};
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kHello, payload);
  EXPECT_EQ(wire[0], 'S');
  EXPECT_EQ(wire[1], 'K');
  EXPECT_EQ(wire[2], 'L');
  EXPECT_EQ(wire[3], 'A');
  EXPECT_EQ(wire[4], kProtocolVersion);
  EXPECT_EQ(wire[5], static_cast<uint8_t>(MessageType::kHello));
  EXPECT_EQ(wire[6], 0);
  EXPECT_EQ(wire[7], 0);
  uint32_t len;
  std::memcpy(&len, wire.data() + 8, 4);
  EXPECT_EQ(len, 3u);
}

TEST(FrameTest, DecodeHeaderReturnsTypeAndCrc) {
  std::vector<uint8_t> payload = {7, 7};
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kGmdjRound, payload);
  MessageType type;
  uint32_t crc;
  Result<uint32_t> len =
      DecodeFrameHeader(wire.data(), kFrameHeaderSize, &type, &crc);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, 2u);
  EXPECT_EQ(type, MessageType::kGmdjRound);
  // Since v3 the checksum covers the first 12 header bytes + payload.
  EXPECT_EQ(crc, FrameCrc(wire.data(), payload.data(), payload.size()));
}

TEST(FrameTest, WrongMagicIsIOError) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kAck, {1});
  wire[0] = 'X';
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIOError());
}

TEST(FrameTest, ForeignVersionIsTypedVersionMismatch) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kGmdjRound, {1, 2});
  wire[4] = kProtocolVersion + 1;
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsVersionMismatch())
      << decoded.status().ToString();
}

TEST(FrameTest, ProtocolVersionIsV12) {
  // v12: the BaseRound frame (type 6) is retired; the synchronized base
  // round is a kGmdjRound with a blockless operator that carries the base
  // query (docs/RPC.md). v11's payloads are unchanged. The version byte is
  // the wire contract for all of that, so pin it explicitly.
  EXPECT_EQ(kProtocolVersion, 12);
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kGmdjRound, {});
  EXPECT_EQ(wire[4], 12);
}

TEST(FrameTest, V3PeerRejectedWithVersionMismatch) {
  // A pre-trace-context (v3) peer must get the typed version-mismatch
  // status, not a generic IO error — coordinators surface it verbatim.
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kGmdjRound, {1, 2});
  wire[4] = 3;
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsVersionMismatch())
      << decoded.status().ToString();
}

TEST(FrameTest, V4AndV5MessageTypesRoundTrip) {
  for (MessageType type :
       {MessageType::kGetStats, MessageType::kStatsResult,
        MessageType::kRoundResult, MessageType::kEndPlan}) {
    std::vector<uint8_t> wire = EncodeFrame(type, {42});
    Result<Frame> decoded = DecodeFrame(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, type);
  }
  EXPECT_EQ(kMaxMessageType, static_cast<uint8_t>(MessageType::kEndPlan));
}

TEST(FrameTest, UnknownMessageTypeRejected) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kAck, {});
  wire[5] = kMaxMessageType + 1;
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIOError());
}

TEST(FrameTest, TruncationRejected) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kTableResult,
                                          {1, 2, 3, 4});
  // Shorter than a header.
  EXPECT_FALSE(DecodeFrame(wire.data(), kFrameHeaderSize - 1).ok());
  // Header fine, payload cut short.
  EXPECT_FALSE(DecodeFrame(wire.data(), wire.size() - 2).ok());
}

TEST(FrameTest, PayloadCorruptionCaughtByChecksum) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kTableResult,
                                          {10, 20, 30, 40, 50});
  wire[kFrameHeaderSize + 2] ^= 0xFF;
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIOError());
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos)
      << decoded.status().ToString();
}

TEST(FrameTest, HeaderCorruptionCaughtByChecksum) {
  // A type byte flipped to another *valid* type decoded silently before
  // v3; the header-covering checksum must reject it now.
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kGmdjRound, {1, 2, 3});
  wire[5] = static_cast<uint8_t>(MessageType::kEndPlan);
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIOError());
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos)
      << decoded.status().ToString();
}

TEST(FrameTest, EveryBitFlipIsTypedRejectionNeverSilentAccept) {
  // Fuzz every single-bit corruption of a valid frame. Each flip must
  // produce a typed rejection — IOError (magic / type / reserved /
  // length / checksum) or VersionMismatch (version byte) — and never a
  // crash or a silently-accepted altered frame. Flipping payload-length
  // bits makes the buffer length disagree with the header, which
  // DecodeFrame reports before the checksum; both are IOError.
  const std::vector<uint8_t> payload = {0x10, 0x52, 0x00, 0xFF, 0x07};
  const std::vector<uint8_t> pristine =
      EncodeFrame(MessageType::kGmdjRound, payload);
  ASSERT_TRUE(DecodeFrame(pristine).ok());
  for (size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> wire = pristine;
      wire[byte] ^= static_cast<uint8_t>(1u << bit);
      Result<Frame> decoded = DecodeFrame(wire);
      ASSERT_FALSE(decoded.ok())
          << "bit " << bit << " of byte " << byte << " accepted silently";
      EXPECT_TRUE(decoded.status().IsIOError() ||
                  decoded.status().IsVersionMismatch())
          << "bit " << bit << " of byte " << byte << ": "
          << decoded.status().ToString();
    }
  }
}

TEST(FrameTest, EveryByteCorruptionIsRejected) {
  // Coarser fuzz: overwrite each byte with a handful of adversarial
  // values (all-ones, all-zeros, off-by-one). Skip writes that leave
  // the byte unchanged — those frames are genuinely valid.
  const std::vector<uint8_t> payload = {9, 8, 7, 6};
  const std::vector<uint8_t> pristine =
      EncodeFrame(MessageType::kTableResult, payload);
  for (size_t byte = 0; byte < pristine.size(); ++byte) {
    for (uint8_t value : {uint8_t{0x00}, uint8_t{0xFF},
                          static_cast<uint8_t>(pristine[byte] + 1)}) {
      if (value == pristine[byte]) continue;
      std::vector<uint8_t> wire = pristine;
      wire[byte] = value;
      Result<Frame> decoded = DecodeFrame(wire);
      ASSERT_FALSE(decoded.ok()) << "byte " << byte << " <- "
                                 << int{value} << " accepted silently";
      EXPECT_TRUE(decoded.status().IsIOError() ||
                  decoded.status().IsVersionMismatch())
          << decoded.status().ToString();
    }
  }
}

TEST(FrameTest, AppendingEncoderComposesFrames) {
  // EncodeFrame(type, payload, out) appends: two frames can share one
  // buffer and decode independently.
  std::vector<uint8_t> buffer;
  EncodeFrame(MessageType::kAck, {}, &buffer);
  size_t first_size = buffer.size();
  EncodeFrame(MessageType::kHello, {5}, &buffer);

  Result<Frame> first = DecodeFrame(buffer.data(), first_size);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, MessageType::kAck);
  Result<Frame> second = DecodeFrame(buffer.data() + first_size,
                                     buffer.size() - first_size);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, MessageType::kHello);
}

}  // namespace
}  // namespace rpc
}  // namespace skalla

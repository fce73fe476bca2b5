#include "rpc/frame.h"

#include <array>

#include "common/macros.h"
#include "common/string_util.h"

namespace skalla {
namespace rpc {

namespace {

// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table;
// kCrcTables[k][i] is the CRC of byte i followed by k zero bytes, so one
// step folds eight input bytes with eight independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

void PutLe32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t state, const uint8_t* data, size_t size) {
  const CrcTables& t = kCrcTables;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const uint8_t* p = data + i;
    const uint32_t lo = state ^ (static_cast<uint32_t>(p[0]) |
                                 static_cast<uint32_t>(p[1]) << 8 |
                                 static_cast<uint32_t>(p[2]) << 16 |
                                 static_cast<uint32_t>(p[3]) << 24);
    state = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; i < size; ++i) {
    state = t[0][(state ^ data[i]) & 0xFF] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32Final(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Final(Crc32Update(Crc32Init(), data, size));
}

uint32_t FrameCrc(const uint8_t* header, const uint8_t* payload,
                  size_t payload_size) {
  uint32_t state = Crc32Update(Crc32Init(), header, 12);
  state = Crc32Update(state, payload, payload_size);
  return Crc32Final(state);
}

void EncodeFrame(MessageType type, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out) {
  uint8_t header[12];
  header[0] = static_cast<uint8_t>(kFrameMagic);
  header[1] = static_cast<uint8_t>(kFrameMagic >> 8);
  header[2] = static_cast<uint8_t>(kFrameMagic >> 16);
  header[3] = static_cast<uint8_t>(kFrameMagic >> 24);
  header[4] = kProtocolVersion;
  header[5] = static_cast<uint8_t>(type);
  header[6] = 0;
  header[7] = 0;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  header[8] = static_cast<uint8_t>(len);
  header[9] = static_cast<uint8_t>(len >> 8);
  header[10] = static_cast<uint8_t>(len >> 16);
  header[11] = static_cast<uint8_t>(len >> 24);
  out->reserve(out->size() + kFrameHeaderSize + payload.size());
  out->insert(out->end(), header, header + 12);
  PutLe32(out, FrameCrc(header, payload.data(), payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
}

std::vector<uint8_t> EncodeFrame(MessageType type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  EncodeFrame(type, payload, &out);
  return out;
}

Result<uint32_t> DecodeFrameHeader(const uint8_t* header, size_t size,
                                   MessageType* type_out, uint32_t* crc_out) {
  if (size < kFrameHeaderSize) {
    return Status::IOError(
        StrCat("truncated frame header: ", size, " of ", kFrameHeaderSize,
               " bytes"));
  }
  if (GetLe32(header) != kFrameMagic) {
    return Status::IOError("bad frame magic (not a Skalla rpc stream)");
  }
  if (header[4] != kProtocolVersion) {
    return Status::VersionMismatch(
        StrCat("peer speaks rpc protocol version ", int{header[4]},
               ", this build speaks ", int{kProtocolVersion}));
  }
  if (header[5] > kMaxMessageType) {
    return Status::IOError(StrCat("unknown message type ", int{header[5]}));
  }
  if (header[6] != 0 || header[7] != 0) {
    return Status::IOError("reserved frame header bytes are non-zero");
  }
  if (type_out != nullptr) {
    *type_out = static_cast<MessageType>(header[5]);
  }
  if (crc_out != nullptr) *crc_out = GetLe32(header + 12);
  return GetLe32(header + 8);
}

Result<Frame> DecodeFrame(const uint8_t* data, size_t size) {
  Frame frame;
  uint32_t expected_crc = 0;
  SKALLA_ASSIGN_OR_RETURN(
      uint32_t payload_len,
      DecodeFrameHeader(data, size, &frame.type, &expected_crc));
  if (size != kFrameHeaderSize + payload_len) {
    return Status::IOError(
        StrCat("frame length mismatch: header announces ", payload_len,
               " payload bytes, buffer holds ", size - kFrameHeaderSize));
  }
  const uint8_t* payload = data + kFrameHeaderSize;
  uint32_t actual_crc = FrameCrc(data, payload, payload_len);
  if (actual_crc != expected_crc) {
    return Status::IOError(
        StrPrintf("frame checksum mismatch: expected %08x, computed %08x",
                  expected_crc, actual_crc));
  }
  frame.payload.assign(payload, payload + payload_len);
  return frame;
}

}  // namespace rpc
}  // namespace skalla

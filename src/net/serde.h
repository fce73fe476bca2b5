// Binary (de)serialization of rows and tables. Every transfer between
// Skalla sites and the coordinator serializes through this module, so the
// reported byte counts are real encoded sizes, not estimates.
//
// Wire format (little-endian, varint-based):
//   table   := field_count:varint field* row_count:varint row*
//   field   := name_len:varint name_bytes type:u8
//   row     := cell*                          (arity from schema)
//   cell    := type:u8 payload
//   payload := (null: empty) | (int64: zigzag varint)
//            | (float64: 8 raw bytes) | (string: len:varint bytes)
//
// A cell's type tag is NULL or its field's declared type; readers reject
// any other tag rather than coerce it.

#ifndef SKALLA_NET_SERDE_H_
#define SKALLA_NET_SERDE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "storage/chunk.h"
#include "storage/table.h"

namespace skalla {

/// Appends a varint-encoded unsigned integer to `out`.
void PutVarint(std::vector<uint8_t>* out, uint64_t v);

/// Zigzag encoding for signed integers.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Cursor over an encoded buffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint64_t> ReadVarint();
  Result<uint8_t> ReadByte();
  /// Reads `n` raw bytes; the returned pointer aliases the buffer.
  Result<const uint8_t*> ReadBytes(size_t n);

  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Appends one value (type tag + payload per the cell format above).
void WriteValue(std::vector<uint8_t>* out, const Value& v);

/// Reads one value written by WriteValue.
Result<Value> ReadValue(ByteReader* reader);

/// Serializes a full table (schema + rows).
void WriteTable(const Table& table, std::vector<uint8_t>* out);

/// Deserializes a table written by WriteTable into boxed rows.
Result<Table> ReadTable(const uint8_t* data, size_t size);

/// Deserializes a table written by WriteTable straight into typed
/// columns: a chunk holding every column, rows [0, num_rows). It accepts
/// exactly what ReadTable accepts (one parser), and its cells box to
/// ReadTable's.
Result<ChunkPtr> ReadTableColumns(const uint8_t* data, size_t size);

/// The exact encoded size of `table`, without materializing the buffer
/// (used for byte accounting on the hot path).
uint64_t SerializedTableSize(const Table& table);

}  // namespace skalla

#endif  // SKALLA_NET_SERDE_H_

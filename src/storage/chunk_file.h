// On-disk chunk files: the persistent form of one relation partition,
// written as a sequence of chunks, each a run of independently loadable
// column pages, plus a CRC-checked footer describing them.
//
// Layout (version 2, little-endian):
//
//   file   := magic "SKALLAC2" chunk_payload* footer
//             footer_len:u32 footer_crc:u32
//   footer := schema (serde field encoding)
//             num_rows:varint nchunks:varint entry*
//   entry  := row_begin:varint row_count:varint offset:varint
//             length:varint column*
//   column := colstats page_length:varint page_crc:u32
//   colstats := has_range:u8 [min:f64 max:f64] null_count:varint
//   chunk_payload := page*           one per column, in schema order
//   page   := cell*                  one WriteValue cell per row
//
// A page's offset is the chunk's offset plus the lengths of the pages
// before it; Open checks that the pages tile each chunk payload and the
// chunks their row ranges. The footer and every page carry a CRC-32
// (the rpc framing polynomial), so a bit flip is detected at open time
// or when the damaged page is read, and every decoded byte is checked.
// The column page is the unit of storage I/O: ReadPages reads, checks
// and decodes only the pages a caller names. A version 1 file
// ("SKALLAC1", one CRC per chunk payload) fails Open with an IOError
// naming its version; rewrite it with this build.
//
// ChunkFileWriter streams rows through a bounded buffer: a chunk's rows
// are the only ones resident while writing, which is what lets
// skalla-dataset generate the paper-scale relation without holding it in
// memory.

#ifndef SKALLA_STORAGE_CHUNK_FILE_H_
#define SKALLA_STORAGE_CHUNK_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/chunk.h"
#include "storage/table.h"

namespace skalla {

/// Where one column page of a chunk lives.
struct ChunkPage {
  uint64_t offset = 0;  // absolute file offset
  uint64_t length = 0;  // page bytes
  uint32_t crc = 0;     // CRC-32 of the page
};

/// Directory entry for one chunk of a chunk file.
struct ChunkEntry {
  size_t row_begin = 0;
  size_t row_count = 0;
  uint64_t offset = 0;  // absolute file offset of the payload
  uint64_t length = 0;  // payload bytes (the pages' lengths summed)
  std::vector<ChunkColumnStats> column_stats;  // one per column
  std::vector<ChunkPage> pages;                // one per column
};

/// Appends `col`'s page: one WriteValue cell (net/serde.h) per row,
/// written straight from the typed vectors.
void EncodeColumnPage(const Column& col, std::vector<uint8_t>* out);

/// Decodes a page of exactly `rows` cells into a column of `type`. Each
/// cell must carry the NULL tag or `type`'s own tag; truncation and
/// trailing bytes are IOErrors.
Result<Column> DecodeColumnPage(const uint8_t* data, size_t size,
                                ValueType type, size_t rows);

/// Streams rows into a chunk file, flushing a chunk every `chunk_rows`
/// rows. Usage: construct, Append rows (or tables), then Finish — the
/// footer is only written by Finish, so an unfinished file never opens.
class ChunkFileWriter {
 public:
  ChunkFileWriter(std::string path, SchemaPtr schema,
                  size_t chunk_rows = kDefaultChunkRows);
  ~ChunkFileWriter();

  ChunkFileWriter(const ChunkFileWriter&) = delete;
  ChunkFileWriter& operator=(const ChunkFileWriter&) = delete;

  Status Append(const Row& row);
  Status AppendTable(const Table& table);

  /// Flushes the tail chunk and writes the footer. Must be called
  /// exactly once; no Append after.
  Status Finish();

  size_t rows_written() const { return rows_written_; }

 private:
  Status EnsureOpen();
  Status FlushBuffered();

  std::string path_;
  SchemaPtr schema_;
  size_t chunk_rows_;
  Table buffer_;
  size_t rows_written_ = 0;
  uint64_t write_offset_ = 0;
  std::vector<ChunkEntry> entries_;
  void* out_ = nullptr;  // std::ofstream, kept out of the header
  bool finished_ = false;
};

/// Writes a whole table as one chunk file.
Status WriteChunkFile(const Table& table, const std::string& path,
                      size_t chunk_rows = kDefaultChunkRows);

/// An opened chunk file: the parsed footer plus the ability to read any
/// column page. Reads are independent (each opens its own stream), so
/// concurrent ReadPages calls from buffer-manager loaders are safe.
class ChunkFile {
 public:
  static Result<std::shared_ptr<const ChunkFile>> Open(std::string path);

  const std::string& path() const { return path_; }
  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_chunks() const { return entries_.size(); }
  const ChunkEntry& entry(size_t i) const { return entries_[i]; }

  /// Reads, CRC-checks, and decodes the pages of `columns` (schema
  /// indices) of chunk `chunk`, in the order given.
  Result<std::vector<ColumnPtr>> ReadPages(
      size_t chunk, const std::vector<size_t>& columns) const;

 private:
  std::string path_;
  SchemaPtr schema_;
  size_t num_rows_ = 0;
  std::vector<ChunkEntry> entries_;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_CHUNK_FILE_H_

// DataProvider: the read interface the columnar GMDJ kernel (and every
// other chunk consumer) reads a relation through — modeled on the
// DataMgr/BufferMgr + ArrowStorage split of hdk-style engines, whose
// buffer key includes the column id. A provider describes its relation
// as an ordered sequence of chunks (contiguous global row ranges) and
// serves each chunk on demand through Pin(chunk, columns): the caller
// names the columns it reads (its read set) and gets a chunk view
// holding exactly those column pages. Reading any other column of the
// view is a checked error (storage/chunk.h).
//
// Implementations:
//  - MemoryDataProvider wraps an in-memory Table. Its chunk views are
//    built lazily, hold every column (it ignores the read set) and are
//    cached; they back every in-process round: the columnar kernel and
//    the base-query scan stream them exactly as they stream chunk-file
//    pages. ResidentTable() exposes the table itself to the row oracle,
//    the one row-wise consumer left.
//  - ChunkFileDataProvider pages column pages from a chunk file through
//    a shared BufferManager; nothing is resident until pinned, and a pin
//    loads, CRC-checks and decodes only the pages it names.
//  - ConcatDataProvider concatenates providers in order — the
//    centralized union of per-site partitions for reference evaluation,
//    without materializing the union.
//
// Row-identity contract: chunk c covers global rows
// [chunk_row_begin(c), chunk_row_begin(c) + chunk_rows(c)), chunks are
// ordered and gap-free, and boxing chunk rows yields exactly the rows of
// the equivalent in-memory table in the same order. The columnar kernel
// relies on this to stay byte-identical to the row oracle, which reads
// the same rows as one table.

#ifndef SKALLA_STORAGE_DATA_PROVIDER_H_
#define SKALLA_STORAGE_DATA_PROVIDER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer_manager.h"
#include "storage/chunk.h"
#include "storage/chunk_file.h"
#include "storage/table.h"

namespace skalla {

class DataProvider {
 public:
  virtual ~DataProvider() = default;

  virtual const SchemaPtr& schema() const = 0;
  virtual size_t num_rows() const = 0;
  virtual size_t num_chunks() const = 0;
  virtual size_t chunk_row_begin(size_t chunk) const = 0;
  virtual size_t chunk_rows(size_t chunk) const = 0;

  /// Pins the pages of `columns` (schema indices, strictly ascending)
  /// of chunk `chunk` resident and returns a view holding them; the
  /// handle reports the pages the pin loaded. Thread-safe.
  virtual Result<PinnedChunk> Pin(size_t chunk,
                                  const std::vector<size_t>& columns) const = 0;

  /// The whole relation as one resident Table when this provider is
  /// memory-backed, for row-wise consumers. Paged providers return
  /// nullptr.
  virtual const Table* ResidentTable() const { return nullptr; }

  /// Per-column min/max stats of chunk `chunk` when they are available
  /// WITHOUT pinning the chunk (chunk files persist them in the footer
  /// directory; memory providers only know them once a chunk view has
  /// been built). nullptr means unknown — consumers must treat the chunk
  /// as unprunable. Thread-safe.
  virtual const ChunkColumnStats* chunk_column_stats(size_t chunk,
                                                     size_t col) const {
    (void)chunk;
    (void)col;
    return nullptr;
  }

  /// The index of the chunk containing global row `row`.
  size_t ChunkOfRow(size_t row) const;
};

using DataProviderPtr = std::shared_ptr<const DataProvider>;

/// Zero-copy wrap of an in-memory table.
class MemoryDataProvider : public DataProvider {
 public:
  explicit MemoryDataProvider(std::shared_ptr<const Table> table,
                              size_t chunk_rows = kDefaultChunkRows);

  const SchemaPtr& schema() const override { return table_->schema(); }
  size_t num_rows() const override { return table_->num_rows(); }
  size_t num_chunks() const override { return num_chunks_; }
  size_t chunk_row_begin(size_t chunk) const override {
    return chunk * chunk_rows_;
  }
  size_t chunk_rows(size_t chunk) const override;
  Result<PinnedChunk> Pin(size_t chunk,
                          const std::vector<size_t>& columns) const override;
  const Table* ResidentTable() const override { return table_.get(); }
  const ChunkColumnStats* chunk_column_stats(size_t chunk,
                                             size_t col) const override;

 private:
  std::shared_ptr<const Table> table_;
  size_t chunk_rows_;
  size_t num_chunks_;
  // Chunk views, built on first Pin and cached for the provider's
  // lifetime: every columnar round over this relation reuses them.
  mutable std::mutex mu_;
  mutable std::vector<ChunkPtr> cache_;
};

/// Pages chunks of one chunk file through a shared BufferManager.
class ChunkFileDataProvider : public DataProvider {
 public:
  /// Opens `path` (footer parse + CRC check happen here). All chunk
  /// loads go through `buffers`.
  static Result<std::shared_ptr<ChunkFileDataProvider>> Open(
      const std::string& path, std::shared_ptr<BufferManager> buffers);
  ~ChunkFileDataProvider() override;

  const SchemaPtr& schema() const override { return file_->schema(); }
  size_t num_rows() const override { return file_->num_rows(); }
  size_t num_chunks() const override { return file_->num_chunks(); }
  size_t chunk_row_begin(size_t chunk) const override {
    return file_->entry(chunk).row_begin;
  }
  size_t chunk_rows(size_t chunk) const override {
    return file_->entry(chunk).row_count;
  }
  Result<PinnedChunk> Pin(size_t chunk,
                          const std::vector<size_t>& columns) const override;
  const ChunkColumnStats* chunk_column_stats(size_t chunk,
                                             size_t col) const override;

  const ChunkFile& file() const { return *file_; }
  const std::shared_ptr<BufferManager>& buffers() const { return buffers_; }

 private:
  ChunkFileDataProvider(std::shared_ptr<const ChunkFile> file,
                        std::shared_ptr<BufferManager> buffers)
      : file_(std::move(file)),
        buffers_(std::move(buffers)),
        owner_id_(BufferManager::NextOwnerId()) {}

  std::shared_ptr<const ChunkFile> file_;
  std::shared_ptr<BufferManager> buffers_;
  uint64_t owner_id_;
};

/// The ordered concatenation of providers (per-site partitions in site
/// order — exactly the UnionAll order of the eager centralized catalog).
class ConcatDataProvider : public DataProvider {
 public:
  explicit ConcatDataProvider(std::vector<DataProviderPtr> parts);

  const SchemaPtr& schema() const override { return parts_[0]->schema(); }
  size_t num_rows() const override { return num_rows_; }
  size_t num_chunks() const override { return chunk_map_.size(); }
  size_t chunk_row_begin(size_t chunk) const override;
  size_t chunk_rows(size_t chunk) const override;
  Result<PinnedChunk> Pin(size_t chunk,
                          const std::vector<size_t>& columns) const override;
  const ChunkColumnStats* chunk_column_stats(size_t chunk,
                                             size_t col) const override;

 private:
  struct ChunkRef {
    size_t part = 0;
    size_t local_chunk = 0;
    size_t row_begin = 0;  // global, offset by preceding parts
  };

  std::vector<DataProviderPtr> parts_;
  std::vector<ChunkRef> chunk_map_;
  size_t num_rows_ = 0;
};

/// Boxes the provider's whole relation into an in-memory Table, chunk by
/// chunk straight from the typed columns, reading every column (peak
/// residency is one chunk above the buffer budget). The materialization
/// of last resort for the row oracle, the one consumer with no chunked
/// path. Adds what its pins loaded to `loads` when given.
Result<Table> MaterializeProvider(const DataProvider& provider,
                                  PageLoads* loads = nullptr);

}  // namespace skalla

#endif  // SKALLA_STORAGE_DATA_PROVIDER_H_

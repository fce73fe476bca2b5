// Chunk: a fixed-size horizontal slice of a relation in columnar form —
// the paging unit of the storage subsystem. Each chunk holds per-column
// typed pages (columnar/column.h) for a contiguous global row range
// [row_begin, row_begin + num_rows), plus per-column min/max metadata
// computed at build time.
//
// Consumers read the typed pages directly (column(i)): the GMDJ kernel
// and the base-query scan fold them in place, and the row oracle's
// MaterializeProvider boxes cells from them. A chunk keeps no boxed
// view of its rows, so byte_size() is its whole resident footprint —
// the bytes the BufferManager accounts are the bytes that are resident.
//
// Chunks are immutable once built and always heap-allocated
// (shared_ptr): the BufferManager hands out shared ownership to
// concurrent pinners.

#ifndef SKALLA_STORAGE_CHUNK_H_
#define SKALLA_STORAGE_CHUNK_H_

#include <memory>
#include <vector>

#include "columnar/column.h"
#include "common/result.h"
#include "storage/table.h"

namespace skalla {

/// Default rows per chunk. Small enough that eight resident chunks of
/// the paper's widest relation stay well under typical buffer budgets,
/// large enough that per-chunk overheads (pin, directory entry, stats)
/// amortize.
inline constexpr size_t kDefaultChunkRows = 16384;

/// Per-column metadata computed when a chunk is built. Numeric columns
/// carry the [min, max] over non-null cells, widened to the whole real
/// line when a cell is NaN (NaN orders equal to every number under
/// Value::Compare); string columns only the null census. Feeds scan
/// pruning and lazy distribution knowledge.
struct ChunkColumnStats {
  bool has_range = false;  // true iff a non-null numeric cell exists
  double min = 0.0;
  double max = 0.0;
  uint64_t null_count = 0;
};

class Chunk {
 public:
  /// Builds a chunk from rows [row_begin, row_begin + row_count) of
  /// `source`. Every column must have a concrete declared type.
  static Result<std::shared_ptr<const Chunk>> Build(const Table& source,
                                                    size_t row_begin,
                                                    size_t row_count);

  /// Assembles a chunk from already-typed pages (the chunk-file reader's
  /// path). `columns` must agree with `schema` in count and type and all
  /// have `row_count` cells.
  static std::shared_ptr<const Chunk> FromColumns(
      SchemaPtr schema, size_t row_begin, std::vector<Column> columns,
      std::vector<ChunkColumnStats> stats);

  const SchemaPtr& schema() const { return schema_; }
  /// Global row id of this chunk's first row within its relation.
  size_t row_begin() const { return row_begin_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const ChunkColumnStats& column_stats(size_t i) const { return stats_[i]; }

  /// Resident footprint estimate in bytes — the BufferManager's
  /// accounting unit. Deterministic for a given chunk content, whether
  /// the chunk was built from a table or read from a file.
  uint64_t byte_size() const { return byte_size_; }

 private:
  Chunk() = default;

  void ComputeStatsAndSize();

  SchemaPtr schema_;
  size_t row_begin_ = 0;
  size_t num_rows_ = 0;
  std::vector<Column> columns_;
  std::vector<ChunkColumnStats> stats_;
  uint64_t byte_size_ = 0;
};

using ChunkPtr = std::shared_ptr<const Chunk>;

}  // namespace skalla

#endif  // SKALLA_STORAGE_CHUNK_H_

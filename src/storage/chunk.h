// Chunk: a fixed-size horizontal slice of a relation in columnar form.
// Each chunk holds per-column typed pages (columnar/column.h) for a
// contiguous global row range [row_begin, row_begin + num_rows), plus
// per-column min/max metadata computed at build time.
//
// A chunk may be a view over some of its columns only. Chunk::Build
// holds every column; a paged provider's Pin returns a view holding
// exactly the column pages the caller asked for (its read set), so a
// round that reads 3 of 14 columns loads, decodes and keeps resident 3
// pages. Reading a column the view does not hold is a checked error
// (the process aborts naming the column), never a null dereference.
//
// Consumers read the typed pages directly (column(i)): the GMDJ kernel
// and the base-query scan fold them in place, and the row oracle's
// MaterializeProvider boxes cells from them. A chunk keeps no boxed
// view of its rows, so byte_size() is its whole resident footprint.
//
// Chunks and their pages are immutable once built and always
// heap-allocated (shared_ptr): the BufferManager hands out shared
// ownership of pages to concurrent pinners.

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

/// One column page: the paging unit of the storage subsystem.
using ColumnPtr = std::shared_ptr<const Column>;

/// Resident-footprint estimate of one column page — the BufferManager's
/// accounting unit: a validity byte per cell plus the typed payload
/// (8 bytes per numeric cell; string container overhead plus character
/// data per string cell). A pure function of the page's content, so
/// file-loaded and table-built pages of the same rows account
/// identically.
uint64_t EstimateColumnBytes(const Column& col);

class Chunk {
 public:
  /// Builds a chunk holding every column of rows [row_begin, row_begin +
  /// row_count) of `source`. Every column must have a concrete declared
  /// type.
  static Result<std::shared_ptr<const Chunk>> Build(const Table& source,
                                                    size_t row_begin,
                                                    size_t row_count);

  /// Assembles a view over already-typed pages (a paged provider's
  /// path). `pages` and `stats` have one slot per schema column; a null
  /// page is a column the view does not hold. Every held page has
  /// `num_rows` cells of its field's declared type.
  static std::shared_ptr<const Chunk> FromPages(
      SchemaPtr schema, size_t row_begin, size_t num_rows,
      std::vector<ColumnPtr> pages, std::vector<ChunkColumnStats> stats);

  const SchemaPtr& schema() const { return schema_; }
  /// Global row id of this chunk's first row within its relation.
  size_t row_begin() const { return row_begin_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return pages_.size(); }
  /// Whether this view holds column `i`'s page.
  bool has_column(size_t i) const {
    return i < pages_.size() && pages_[i] != nullptr;
  }
  /// Column `i`'s page; aborts when the view does not hold it.
  const Column& column(size_t i) const {
    if (!has_column(i)) [[unlikely]] {
      AbortMissingColumn(i);
    }
    return *pages_[i];
  }
  const ChunkColumnStats& column_stats(size_t i) const { return stats_[i]; }

  /// Boxes every row into a Table; the view must hold every column.
  Table ToTable() const;

  /// Resident footprint estimate in bytes of the pages this view holds
  /// (summed EstimateColumnBytes; walks string pages).
  uint64_t byte_size() const;

 private:
  Chunk() = default;

  // Out of line so column() stays small enough to inline in scan loops.
  [[noreturn]] void AbortMissingColumn(size_t i) const;

  SchemaPtr schema_;
  size_t row_begin_ = 0;
  size_t num_rows_ = 0;
  std::vector<ColumnPtr> pages_;
  std::vector<ChunkColumnStats> stats_;
};

using ChunkPtr = std::shared_ptr<const Chunk>;

}  // namespace skalla

#endif  // SKALLA_STORAGE_CHUNK_H_

#include "storage/data_provider.h"

#include <utility>

#include "common/macros.h"
#include "common/string_util.h"

namespace skalla {

size_t DataProvider::ChunkOfRow(size_t row) const {
  // Chunks are ordered and gap-free; binary search the row ranges.
  size_t lo = 0, hi = num_chunks();
  while (lo + 1 < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (chunk_row_begin(mid) <= row) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// --- MemoryDataProvider ----------------------------------------------------

MemoryDataProvider::MemoryDataProvider(std::shared_ptr<const Table> table,
                                       size_t chunk_rows)
    : table_(std::move(table)),
      chunk_rows_(chunk_rows == 0 ? kDefaultChunkRows : chunk_rows) {
  const size_t rows = table_->num_rows();
  num_chunks_ = rows == 0 ? 0 : (rows - 1) / chunk_rows_ + 1;
  cache_.resize(num_chunks_);
}

size_t MemoryDataProvider::chunk_rows(size_t chunk) const {
  const size_t begin = chunk * chunk_rows_;
  const size_t end = begin + chunk_rows_;
  const size_t rows = table_->num_rows();
  return (end > rows ? rows : end) - begin;
}

Result<PinnedChunk> MemoryDataProvider::Pin(
    size_t chunk, const std::vector<size_t>& /*columns*/) const {
  if (chunk >= num_chunks_) {
    return Status::InvalidArgument(
        StrCat("chunk ", chunk, " out of range (", num_chunks_, ")"));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (cache_[chunk] == nullptr) {
    SKALLA_ASSIGN_OR_RETURN(
        cache_[chunk],
        Chunk::Build(*table_, chunk_row_begin(chunk), chunk_rows(chunk)));
  }
  // Memory-backed chunks are always resident and whole: no pin.
  return PinnedChunk(cache_[chunk]);
}

const ChunkColumnStats* MemoryDataProvider::chunk_column_stats(
    size_t chunk, size_t col) const {
  if (chunk >= num_chunks_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  // Stats exist only for chunk views someone already built; building one
  // here would defeat the point of stat-only pruning.
  const ChunkPtr& cached = cache_[chunk];
  if (cached == nullptr || col >= cached->num_columns()) return nullptr;
  return &cached->column_stats(col);
}

// --- ChunkFileDataProvider -------------------------------------------------

Result<std::shared_ptr<ChunkFileDataProvider>> ChunkFileDataProvider::Open(
    const std::string& path, std::shared_ptr<BufferManager> buffers) {
  if (buffers == nullptr) {
    return Status::InvalidArgument(
        "ChunkFileDataProvider needs a BufferManager");
  }
  SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const ChunkFile> file,
                          ChunkFile::Open(path));
  return std::shared_ptr<ChunkFileDataProvider>(
      new ChunkFileDataProvider(std::move(file), std::move(buffers)));
}

ChunkFileDataProvider::~ChunkFileDataProvider() {
  buffers_->DropOwner(owner_id_);
}

Result<PinnedChunk> ChunkFileDataProvider::Pin(
    size_t chunk, const std::vector<size_t>& columns) const {
  if (chunk >= file_->num_chunks()) {
    return Status::InvalidArgument(
        StrCat("chunk ", chunk, " out of range (", file_->num_chunks(),
               ") in '", file_->path(), "'"));
  }
  const size_t num_fields = schema()->num_fields();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] >= num_fields || (i > 0 && columns[i] <= columns[i - 1])) {
      return Status::InvalidArgument(
          StrCat("read set of '", file_->path(),
                 "' must be ascending column indices below ", num_fields));
    }
  }
  std::shared_ptr<const ChunkFile> file = file_;
  SKALLA_ASSIGN_OR_RETURN(
      PinnedPages pinned,
      buffers_->Pin(owner_id_, chunk, columns,
                    [file, chunk](const std::vector<size_t>& missing) {
                      return file->ReadPages(chunk, missing);
                    }));
  const ChunkEntry& entry = file_->entry(chunk);
  std::vector<ColumnPtr> pages(num_fields);
  for (size_t i = 0; i < columns.size(); ++i) {
    pages[columns[i]] = pinned.pages()[i];
  }
  ChunkPtr view = Chunk::FromPages(schema(), entry.row_begin,
                                   entry.row_count, std::move(pages),
                                   entry.column_stats);
  return PinnedChunk(std::move(view), std::move(pinned));
}

const ChunkColumnStats* ChunkFileDataProvider::chunk_column_stats(
    size_t chunk, size_t col) const {
  if (chunk >= file_->num_chunks()) return nullptr;
  const ChunkEntry& entry = file_->entry(chunk);
  if (col >= entry.column_stats.size()) return nullptr;
  return &entry.column_stats[col];
}

// --- ConcatDataProvider ----------------------------------------------------

ConcatDataProvider::ConcatDataProvider(std::vector<DataProviderPtr> parts)
    : parts_(std::move(parts)) {
  for (size_t p = 0; p < parts_.size(); ++p) {
    const DataProvider& part = *parts_[p];
    for (size_t c = 0; c < part.num_chunks(); ++c) {
      chunk_map_.push_back(
          ChunkRef{p, c, num_rows_ + part.chunk_row_begin(c)});
    }
    num_rows_ += part.num_rows();
  }
}

size_t ConcatDataProvider::chunk_row_begin(size_t chunk) const {
  return chunk_map_[chunk].row_begin;
}

size_t ConcatDataProvider::chunk_rows(size_t chunk) const {
  const ChunkRef& ref = chunk_map_[chunk];
  return parts_[ref.part]->chunk_rows(ref.local_chunk);
}

Result<PinnedChunk> ConcatDataProvider::Pin(
    size_t chunk, const std::vector<size_t>& columns) const {
  if (chunk >= chunk_map_.size()) {
    return Status::InvalidArgument(
        StrCat("chunk ", chunk, " out of range (", chunk_map_.size(), ")"));
  }
  const ChunkRef& ref = chunk_map_[chunk];
  return parts_[ref.part]->Pin(ref.local_chunk, columns);
}

const ChunkColumnStats* ConcatDataProvider::chunk_column_stats(
    size_t chunk, size_t col) const {
  if (chunk >= chunk_map_.size()) return nullptr;
  const ChunkRef& ref = chunk_map_[chunk];
  return parts_[ref.part]->chunk_column_stats(ref.local_chunk, col);
}

// --- Materialization -------------------------------------------------------

Result<Table> MaterializeProvider(const DataProvider& provider,
                                  PageLoads* loads) {
  Table out(provider.schema());
  out.Reserve(provider.num_rows());
  std::vector<size_t> columns(provider.schema()->num_fields());
  for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
  for (size_t c = 0; c < provider.num_chunks(); ++c) {
    SKALLA_ASSIGN_OR_RETURN(PinnedChunk pin, provider.Pin(c, columns));
    if (loads != nullptr) {
      loads->pages += pin.loads().pages;
      loads->bytes += pin.loads().bytes;
    }
    const Chunk& chunk = *pin;
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      Row row;
      row.reserve(columns.size());
      for (size_t col : columns) row.push_back(chunk.column(col).GetValue(r));
      out.AppendUnchecked(std::move(row));
    }
  }
  return out;
}

}  // namespace skalla

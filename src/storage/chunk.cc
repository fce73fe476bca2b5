#include "storage/chunk.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"

namespace skalla {

namespace {

// Resident-footprint estimate of one column: validity byte per cell plus
// the typed payload (8 bytes per numeric cell; string container overhead
// plus character data per string cell). The estimate is a pure function
// of the column's content, so file-loaded and table-built chunks of the
// same rows account identically.
uint64_t EstimateColumnBytes(const Column& col) {
  const size_t n = col.size();
  uint64_t bytes = n;  // validity vector
  switch (col.type()) {
    case ValueType::kInt64:
    case ValueType::kFloat64:
      bytes += 8ull * n;
      break;
    case ValueType::kString:
      bytes += 32ull * n;  // std::string container overhead
      for (size_t i = 0; i < n; ++i) {
        if (!col.IsNull(i)) bytes += col.StringAt(i).size();
      }
      break;
    case ValueType::kNull:
      break;
  }
  return bytes;
}

}  // namespace

Result<std::shared_ptr<const Chunk>> Chunk::Build(const Table& source,
                                                  size_t row_begin,
                                                  size_t row_count) {
  if (row_begin + row_count > source.num_rows()) {
    return Status::InvalidArgument(
        StrCat("chunk range [", row_begin, ", ", row_begin + row_count,
               ") exceeds table of ", source.num_rows(), " rows"));
  }
  const Schema& schema = *source.schema();
  auto built = std::shared_ptr<Chunk>(new Chunk());
  built->schema_ = source.schema();
  built->row_begin_ = row_begin;
  built->num_rows_ = row_count;
  built->columns_.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const ValueType type = schema.field(c).type;
    if (type != ValueType::kInt64 && type != ValueType::kFloat64 &&
        type != ValueType::kString) {
      return Status::InvalidArgument(
          StrCat("column '", schema.field(c).name,
                 "' has no concrete declared type; cannot chunk"));
    }
    Column col(type);
    col.Reserve(row_count);
    for (size_t r = 0; r < row_count; ++r) {
      SKALLA_RETURN_NOT_OK(col.Append(source.at(row_begin + r, c)));
    }
    built->columns_.push_back(std::move(col));
  }
  built->ComputeStatsAndSize();
  return std::shared_ptr<const Chunk>(std::move(built));
}

std::shared_ptr<const Chunk> Chunk::FromColumns(
    SchemaPtr schema, size_t row_begin, std::vector<Column> columns,
    std::vector<ChunkColumnStats> stats) {
  auto built = std::shared_ptr<Chunk>(new Chunk());
  built->schema_ = std::move(schema);
  built->row_begin_ = row_begin;
  built->num_rows_ = columns.empty() ? 0 : columns[0].size();
  built->columns_ = std::move(columns);
  built->stats_ = std::move(stats);
  if (built->stats_.size() != built->columns_.size()) {
    built->stats_.clear();
  }
  built->ComputeStatsAndSize();
  return std::shared_ptr<const Chunk>(std::move(built));
}

void Chunk::ComputeStatsAndSize() {
  byte_size_ = 0;
  const bool have_stats = !stats_.empty();
  if (!have_stats) stats_.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& col = columns_[c];
    byte_size_ += EstimateColumnBytes(col);
    if (have_stats) continue;
    ChunkColumnStats& s = stats_[c];
    bool saw_nan = false;
    for (size_t r = 0; r < col.size(); ++r) {
      if (col.IsNull(r)) {
        ++s.null_count;
        continue;
      }
      double v;
      if (col.type() == ValueType::kInt64) {
        v = static_cast<double>(col.Int64At(r));
      } else if (col.type() == ValueType::kFloat64) {
        v = col.Float64At(r);
      } else {
        continue;
      }
      if (std::isnan(v)) {
        saw_nan = true;
        continue;
      }
      if (!s.has_range) {
        s.has_range = true;
        s.min = s.max = v;
      } else {
        if (v < s.min) s.min = v;
        if (v > s.max) s.max = v;
      }
    }
    if (saw_nan) {
      // NaN orders equal to every number (Value::Compare), so it can
      // satisfy a <= or >= comparison against any literal: no bound holds.
      s.has_range = true;
      s.min = -std::numeric_limits<double>::infinity();
      s.max = std::numeric_limits<double>::infinity();
    }
  }
}

}  // namespace skalla

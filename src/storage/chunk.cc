#include "storage/chunk.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"

namespace skalla {

namespace {

// Min/max and null census of one column (the ChunkColumnStats contract).
ChunkColumnStats ComputeColumnStats(const Column& col) {
  ChunkColumnStats s;
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
  return s;
}

}  // namespace

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
  built->pages_.reserve(schema.num_fields());
  built->stats_.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const ValueType type = schema.field(c).type;
    if (type != ValueType::kInt64 && type != ValueType::kFloat64 &&
        type != ValueType::kString) {
      return Status::InvalidArgument(
          StrCat("column '", schema.field(c).name,
                 "' has no concrete declared type; cannot chunk"));
    }
    auto col = std::make_shared<Column>(type);
    col->Reserve(row_count);
    for (size_t r = 0; r < row_count; ++r) {
      SKALLA_RETURN_NOT_OK(col->Append(source.at(row_begin + r, c)));
    }
    built->stats_.push_back(ComputeColumnStats(*col));
    built->pages_.push_back(std::move(col));
  }
  return std::shared_ptr<const Chunk>(std::move(built));
}

std::shared_ptr<const Chunk> Chunk::FromPages(
    SchemaPtr schema, size_t row_begin, size_t num_rows,
    std::vector<ColumnPtr> pages, std::vector<ChunkColumnStats> stats) {
  auto built = std::shared_ptr<Chunk>(new Chunk());
  built->schema_ = std::move(schema);
  built->row_begin_ = row_begin;
  built->num_rows_ = num_rows;
  built->pages_ = std::move(pages);
  built->stats_ = std::move(stats);
  return std::shared_ptr<const Chunk>(std::move(built));
}

void Chunk::AbortMissingColumn(size_t i) const {
  const std::string name =
      i < schema_->num_fields() ? schema_->field(i).name : "?";
  std::fprintf(stderr,
               "column %zu ('%s') is not in this chunk view's read set\n", i,
               name.c_str());
  std::abort();
}

Table Chunk::ToTable() const {
  Table table(schema_);
  table.Reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    Row row;
    row.reserve(pages_.size());
    for (size_t c = 0; c < pages_.size(); ++c) {
      row.push_back(column(c).GetValue(r));
    }
    table.AppendUnchecked(std::move(row));
  }
  return table;
}

uint64_t Chunk::byte_size() const {
  uint64_t bytes = 0;
  for (const ColumnPtr& page : pages_) {
    if (page != nullptr) bytes += EstimateColumnBytes(*page);
  }
  return bytes;
}

}  // namespace skalla

#include "storage/chunk_file.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "net/serde.h"
#include "rpc/frame.h"

namespace skalla {

namespace {

constexpr char kChunkMagic[8] = {'S', 'K', 'A', 'L', 'L', 'A', 'C', '2'};
// The magic prefix shared by every chunk file version; byte 7 is the
// version digit.
constexpr size_t kMagicPrefix = 7;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

void PutF64(std::vector<uint8_t>* out, double v) {
  uint8_t raw[8];
  std::memcpy(raw, &v, 8);
  out->insert(out->end(), raw, raw + 8);
}

Result<double> ReadF64(ByteReader* reader) {
  SKALLA_ASSIGN_OR_RETURN(const uint8_t* p, reader->ReadBytes(8));
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

void EncodeSchema(const Schema& schema, std::vector<uint8_t>* out) {
  PutVarint(out, schema.num_fields());
  for (const Field& field : schema.fields()) {
    PutVarint(out, field.name.size());
    out->insert(out->end(), field.name.begin(), field.name.end());
    out->push_back(static_cast<uint8_t>(field.type));
  }
}

Result<SchemaPtr> DecodeSchema(ByteReader* reader) {
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_fields, reader->ReadVarint());
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint64_t i = 0; i < num_fields; ++i) {
    SKALLA_ASSIGN_OR_RETURN(uint64_t name_len, reader->ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(const uint8_t* name_bytes,
                            reader->ReadBytes(name_len));
    SKALLA_ASSIGN_OR_RETURN(uint8_t type, reader->ReadByte());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::IOError(StrCat("bad column type tag ", type));
    }
    fields.push_back(Field{
        std::string(reinterpret_cast<const char*>(name_bytes), name_len),
        static_cast<ValueType>(type)});
  }
  return Schema::Make(std::move(fields));
}

// Reads one LEB128 varint at *p (< end), advancing *p; false on
// truncation or overlong input, the limits of ByteReader::ReadVarint.
// Inline rather than ByteReader because page decode calls it per cell.
inline bool ReadPageVarint(const uint8_t** p, const uint8_t* end,
                           uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*p >= end) return false;
    const uint8_t b = *(*p)++;
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

}  // namespace

void EncodeColumnPage(const Column& col, std::vector<uint8_t>* out) {
  const uint8_t null_tag = static_cast<uint8_t>(ValueType::kNull);
  const uint8_t tag = static_cast<uint8_t>(col.type());
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r)) {
      out->push_back(null_tag);
      continue;
    }
    out->push_back(tag);
    switch (col.type()) {
      case ValueType::kInt64:
        PutVarint(out, ZigzagEncode(col.Int64At(r)));
        break;
      case ValueType::kFloat64:
        PutF64(out, col.Float64At(r));
        break;
      case ValueType::kString: {
        const std::string& str = col.StringAt(r);
        PutVarint(out, str.size());
        out->insert(out->end(), str.begin(), str.end());
        break;
      }
      case ValueType::kNull:
        break;
    }
  }
}

Result<Column> DecodeColumnPage(const uint8_t* data, size_t size,
                                ValueType type, size_t rows) {
  const uint8_t null_tag = static_cast<uint8_t>(ValueType::kNull);
  const uint8_t tag = static_cast<uint8_t>(type);
  const uint8_t* p = data;
  const uint8_t* const end = data + size;
  Column col(type);
  col.Reserve(rows);
  auto truncated = [&] {
    return Status::IOError(
        StrCat("truncated ", ValueTypeToString(type), " page: ",
               col.size(), " of ", rows, " cells decoded"));
  };
  for (size_t r = 0; r < rows; ++r) {
    if (p >= end) return truncated();
    const uint8_t cell_tag = *p++;
    if (cell_tag == null_tag) {
      col.AppendNull();
      continue;
    }
    if (cell_tag != tag) {
      return Status::IOError(StrCat("cell tag ", int{cell_tag}, " in a ",
                                    ValueTypeToString(type), " page"));
    }
    switch (type) {
      case ValueType::kInt64: {
        uint64_t raw;
        if (!ReadPageVarint(&p, end, &raw)) return truncated();
        col.AppendInt64(ZigzagDecode(raw));
        break;
      }
      case ValueType::kFloat64: {
        if (end - p < 8) return truncated();
        double d;
        std::memcpy(&d, p, 8);
        p += 8;
        col.AppendFloat64(d);
        break;
      }
      case ValueType::kString: {
        uint64_t len;
        if (!ReadPageVarint(&p, end, &len) ||
            len > static_cast<uint64_t>(end - p)) {
          return truncated();
        }
        col.AppendString(std::string(reinterpret_cast<const char*>(p), len));
        p += len;
        break;
      }
      case ValueType::kNull:
        return Status::IOError("page of an untyped column");
    }
  }
  if (p != end) {
    return Status::IOError(StrCat(end - p, " trailing bytes after a ", rows,
                                  "-cell ", ValueTypeToString(type),
                                  " page"));
  }
  return col;
}

// --- ChunkFileWriter -------------------------------------------------------

ChunkFileWriter::ChunkFileWriter(std::string path, SchemaPtr schema,
                                 size_t chunk_rows)
    : path_(std::move(path)),
      schema_(std::move(schema)),
      chunk_rows_(chunk_rows == 0 ? kDefaultChunkRows : chunk_rows),
      buffer_(schema_) {}

ChunkFileWriter::~ChunkFileWriter() {
  delete static_cast<std::ofstream*>(out_);
}

Status ChunkFileWriter::EnsureOpen() {
  if (out_ != nullptr) return Status::OK();
  auto* out = new std::ofstream(path_, std::ios::binary | std::ios::trunc);
  out_ = out;
  if (!*out) {
    return Status::IOError(StrCat("cannot open '", path_, "' for writing"));
  }
  out->write(kChunkMagic, sizeof(kChunkMagic));
  write_offset_ = sizeof(kChunkMagic);
  return Status::OK();
}

Status ChunkFileWriter::Append(const Row& row) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  SKALLA_RETURN_NOT_OK(buffer_.Append(row));
  ++rows_written_;
  if (buffer_.num_rows() >= chunk_rows_) return FlushBuffered();
  return Status::OK();
}

Status ChunkFileWriter::AppendTable(const Table& table) {
  for (size_t r = 0; r < table.num_rows(); ++r) {
    SKALLA_RETURN_NOT_OK(Append(table.row(r)));
  }
  return Status::OK();
}

Status ChunkFileWriter::FlushBuffered() {
  const size_t n = buffer_.num_rows();
  if (n == 0) return Status::OK();
  SKALLA_RETURN_NOT_OK(EnsureOpen());
  SKALLA_ASSIGN_OR_RETURN(ChunkPtr chunk, Chunk::Build(buffer_, 0, n));
  std::vector<uint8_t> payload;
  ChunkEntry entry;
  entry.row_begin = rows_written_ - n;
  entry.row_count = n;
  entry.offset = write_offset_;
  entry.column_stats.reserve(chunk->num_columns());
  entry.pages.reserve(chunk->num_columns());
  for (size_t c = 0; c < chunk->num_columns(); ++c) {
    const size_t page_begin = payload.size();
    EncodeColumnPage(chunk->column(c), &payload);
    ChunkPage page;
    page.offset = write_offset_ + page_begin;
    page.length = payload.size() - page_begin;
    page.crc = rpc::Crc32(payload.data() + page_begin, page.length);
    entry.pages.push_back(page);
    entry.column_stats.push_back(chunk->column_stats(c));
  }
  entry.length = payload.size();
  entries_.push_back(std::move(entry));

  auto* out = static_cast<std::ofstream*>(out_);
  out->write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
  if (!*out) return Status::IOError(StrCat("failed writing '", path_, "'"));
  write_offset_ += payload.size();
  buffer_.Clear();
  return Status::OK();
}

Status ChunkFileWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  SKALLA_RETURN_NOT_OK(FlushBuffered());
  SKALLA_RETURN_NOT_OK(EnsureOpen());  // zero-row relations still get a file
  finished_ = true;

  std::vector<uint8_t> footer;
  EncodeSchema(*schema_, &footer);
  PutVarint(&footer, rows_written_);
  PutVarint(&footer, entries_.size());
  for (const ChunkEntry& entry : entries_) {
    PutVarint(&footer, entry.row_begin);
    PutVarint(&footer, entry.row_count);
    PutVarint(&footer, entry.offset);
    PutVarint(&footer, entry.length);
    for (size_t c = 0; c < entry.pages.size(); ++c) {
      const ChunkColumnStats& s = entry.column_stats[c];
      footer.push_back(s.has_range ? 1 : 0);
      if (s.has_range) {
        PutF64(&footer, s.min);
        PutF64(&footer, s.max);
      }
      PutVarint(&footer, s.null_count);
      PutVarint(&footer, entry.pages[c].length);
      PutU32(&footer, entry.pages[c].crc);
    }
  }
  std::vector<uint8_t> trailer;
  PutU32(&trailer, static_cast<uint32_t>(footer.size()));
  PutU32(&trailer, rpc::Crc32(footer.data(), footer.size()));

  auto* out = static_cast<std::ofstream*>(out_);
  out->write(reinterpret_cast<const char*>(footer.data()),
             static_cast<std::streamsize>(footer.size()));
  out->write(reinterpret_cast<const char*>(trailer.data()),
             static_cast<std::streamsize>(trailer.size()));
  out->close();
  if (!*out) return Status::IOError(StrCat("failed finishing '", path_, "'"));
  return Status::OK();
}

Status WriteChunkFile(const Table& table, const std::string& path,
                      size_t chunk_rows) {
  ChunkFileWriter writer(path, table.schema(), chunk_rows);
  SKALLA_RETURN_NOT_OK(writer.AppendTable(table));
  return writer.Finish();
}

// --- ChunkFile -------------------------------------------------------------

Result<std::shared_ptr<const ChunkFile>> ChunkFile::Open(std::string path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError(StrCat("cannot open '", path, "' for reading"));
  }
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<uint64_t>(in.tellg());
  if (file_size < sizeof(kChunkMagic) + 8) {
    return Status::IOError(StrCat("'", path, "' is not a chunk file"));
  }
  char magic[sizeof(kChunkMagic)];
  in.seekg(0);
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kChunkMagic, kMagicPrefix) != 0) {
    return Status::IOError(StrCat("'", path, "' is not a chunk file"));
  }
  if (magic[kMagicPrefix] != kChunkMagic[kMagicPrefix]) {
    return Status::IOError(StrCat(
        "'", path, "' is a version ", std::string(1, magic[kMagicPrefix]),
        " chunk file (", std::string(magic, sizeof(magic)),
        "); this build reads only version 2 (SKALLAC2): rewrite it"));
  }
  uint8_t trailer[8];
  in.seekg(static_cast<std::streamoff>(file_size - 8));
  in.read(reinterpret_cast<char*>(trailer), 8);
  if (!in) return Status::IOError(StrCat("failed reading '", path, "'"));
  const uint32_t footer_len = GetU32(trailer);
  const uint32_t footer_crc = GetU32(trailer + 4);
  if (footer_len + 8ull + sizeof(kChunkMagic) > file_size) {
    return Status::IOError(StrCat("'", path, "' has a truncated footer"));
  }
  std::vector<uint8_t> footer(footer_len);
  in.seekg(static_cast<std::streamoff>(file_size - 8 - footer_len));
  in.read(reinterpret_cast<char*>(footer.data()), footer_len);
  if (!in) return Status::IOError(StrCat("failed reading '", path, "'"));
  if (rpc::Crc32(footer.data(), footer.size()) != footer_crc) {
    return Status::IOError(
        StrCat("footer checksum mismatch in '", path, "'"));
  }

  auto file = std::make_shared<ChunkFile>();
  file->path_ = std::move(path);
  ByteReader reader(footer.data(), footer.size());
  SKALLA_ASSIGN_OR_RETURN(file->schema_, DecodeSchema(&reader));
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadVarint());
  file->num_rows_ = num_rows;
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_chunks, reader.ReadVarint());
  const size_t num_columns = file->schema_->num_fields();
  const uint64_t data_end = file_size - 8 - footer_len;
  auto bad_entry = [&](uint64_t i, const char* what) {
    return Status::IOError(
        StrCat("chunk ", i, " of '", file->path_, "': ", what));
  };
  size_t rows_seen = 0;
  file->entries_.reserve(num_chunks);
  for (uint64_t i = 0; i < num_chunks; ++i) {
    ChunkEntry entry;
    SKALLA_ASSIGN_OR_RETURN(uint64_t row_begin, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(uint64_t row_count, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(entry.offset, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(entry.length, reader.ReadVarint());
    entry.row_begin = row_begin;
    entry.row_count = row_count;
    if (row_begin != rows_seen) {
      return bad_entry(i, "row range does not follow the previous chunk's");
    }
    rows_seen += row_count;
    if (entry.offset < sizeof(kChunkMagic) || entry.offset > data_end ||
        entry.length > data_end - entry.offset) {
      return bad_entry(i, "payload lies outside the file's data region");
    }
    entry.column_stats.resize(num_columns);
    entry.pages.resize(num_columns);
    uint64_t page_offset = entry.offset;
    for (size_t c = 0; c < num_columns; ++c) {
      ChunkColumnStats& s = entry.column_stats[c];
      SKALLA_ASSIGN_OR_RETURN(uint8_t has_range, reader.ReadByte());
      s.has_range = has_range != 0;
      if (s.has_range) {
        SKALLA_ASSIGN_OR_RETURN(s.min, ReadF64(&reader));
        SKALLA_ASSIGN_OR_RETURN(s.max, ReadF64(&reader));
      }
      SKALLA_ASSIGN_OR_RETURN(s.null_count, reader.ReadVarint());
      ChunkPage& page = entry.pages[c];
      SKALLA_ASSIGN_OR_RETURN(page.length, reader.ReadVarint());
      SKALLA_ASSIGN_OR_RETURN(const uint8_t* crc_bytes, reader.ReadBytes(4));
      page.crc = GetU32(crc_bytes);
      page.offset = page_offset;
      if (page.length > entry.offset + entry.length - page_offset) {
        return bad_entry(i, "column pages overrun the chunk payload");
      }
      page_offset += page.length;
    }
    if (page_offset != entry.offset + entry.length) {
      return bad_entry(i, "column pages do not tile the chunk payload");
    }
    file->entries_.push_back(std::move(entry));
  }
  if (rows_seen != file->num_rows_ || reader.remaining() != 0) {
    return Status::IOError(
        StrCat("footer of '", file->path_, "' is inconsistent"));
  }
  return std::shared_ptr<const ChunkFile>(std::move(file));
}

Result<std::vector<ColumnPtr>> ChunkFile::ReadPages(
    size_t chunk, const std::vector<size_t>& columns) const {
  if (chunk >= entries_.size()) {
    return Status::InvalidArgument(
        StrCat("chunk ", chunk, " out of range (file has ", entries_.size(),
               " chunks)"));
  }
  const ChunkEntry& entry = entries_[chunk];
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    return Status::IOError(StrCat("cannot open '", path_, "' for reading"));
  }
  std::vector<ColumnPtr> pages;
  pages.reserve(columns.size());
  std::vector<uint8_t> bytes;
  for (size_t c : columns) {
    if (c >= entry.pages.size()) {
      return Status::InvalidArgument(
          StrCat("column ", c, " out of range in '", path_, "'"));
    }
    const ChunkPage& page = entry.pages[c];
    bytes.resize(page.length);
    in.seekg(static_cast<std::streamoff>(page.offset));
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(page.length));
    if (!in) {
      return Status::IOError(StrCat("failed reading column ", c, " of chunk ",
                                    chunk, " of '", path_, "'"));
    }
    if (rpc::Crc32(bytes.data(), bytes.size()) != page.crc) {
      return Status::IOError(StrCat("checksum mismatch in column ", c,
                                    " of chunk ", chunk, " of '", path_,
                                    "'"));
    }
    Result<Column> col = DecodeColumnPage(
        bytes.data(), bytes.size(), schema_->field(c).type, entry.row_count);
    if (!col.ok()) {
      return Status::IOError(StrCat("column ", c, " of chunk ", chunk,
                                    " of '", path_, "': ",
                                    col.status().message()));
    }
    pages.push_back(std::make_shared<const Column>(std::move(*col)));
  }
  return pages;
}

}  // namespace skalla

#include "net/serde.h"

#include <cstring>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/string_util.h"

namespace skalla {

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

namespace {

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

uint64_t ValueSize(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
      return 1 + VarintSize(ZigzagEncode(v.int64()));
    case ValueType::kFloat64:
      return 1 + 8;
    case ValueType::kString:
      return 1 + VarintSize(v.str().size()) + v.str().size();
  }
  return 1;
}

}  // namespace

void WriteValue(std::vector<uint8_t>* out, const Value& v) {
  out->push_back(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      return;
    case ValueType::kInt64:
      PutVarint(out, ZigzagEncode(v.int64()));
      return;
    case ValueType::kFloat64: {
      double d = v.float64();
      uint8_t raw[8];
      std::memcpy(raw, &d, 8);
      out->insert(out->end(), raw, raw + 8);
      return;
    }
    case ValueType::kString: {
      const std::string& s = v.str();
      PutVarint(out, s.size());
      out->insert(out->end(), s.begin(), s.end());
      return;
    }
  }
}

Result<Value> ReadValue(ByteReader* reader) {
  SKALLA_ASSIGN_OR_RETURN(uint8_t tag, reader->ReadByte());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      SKALLA_ASSIGN_OR_RETURN(uint64_t raw, reader->ReadVarint());
      return Value(ZigzagDecode(raw));
    }
    case ValueType::kFloat64: {
      SKALLA_ASSIGN_OR_RETURN(const uint8_t* raw, reader->ReadBytes(8));
      double d;
      std::memcpy(&d, raw, 8);
      return Value(d);
    }
    case ValueType::kString: {
      SKALLA_ASSIGN_OR_RETURN(uint64_t len, reader->ReadVarint());
      SKALLA_ASSIGN_OR_RETURN(const uint8_t* bytes, reader->ReadBytes(len));
      return Value(std::string(reinterpret_cast<const char*>(bytes), len));
    }
    default:
      return Status::IOError(StrCat("bad value type tag ", int{tag}));
  }
}

Result<uint64_t> ByteReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= size_) return Status::IOError("truncated varint");
    uint8_t b = data_[pos_++];
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift >= 64) return Status::IOError("varint too long");
  }
}

Result<uint8_t> ByteReader::ReadByte() {
  if (pos_ >= size_) return Status::IOError("truncated buffer");
  return data_[pos_++];
}

Result<const uint8_t*> ByteReader::ReadBytes(size_t n) {
  if (n > size_ - pos_) return Status::IOError("truncated buffer");
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

void WriteTable(const Table& table, std::vector<uint8_t>* out) {
  const Schema& schema = *table.schema();
  PutVarint(out, schema.num_fields());
  for (const Field& f : schema.fields()) {
    PutVarint(out, f.name.size());
    out->insert(out->end(), f.name.begin(), f.name.end());
    out->push_back(static_cast<uint8_t>(f.type));
  }
  PutVarint(out, table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (const Value& v : table.row(r)) WriteValue(out, v);
  }
}

namespace {

// The one parser of the table format. It reads the schema, then hands
// every cell to `sink` in row-major order — sink->Null(c), Int64(c, v),
// Float64(c, v) or String(c, bytes, len), between BeginRow() and
// EndRow() — after checking that a non-NULL cell carries its field's
// declared type tag.
template <typename Sink>
Status ParseTable(const uint8_t* data, size_t size, Sink* sink) {
  ByteReader reader(data, size);
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_fields, reader.ReadVarint());
  // A field takes at least two bytes (name length, type), a cell at least
  // its tag byte: corrupted counts fail here, before anything is sized
  // after them.
  if (num_fields > reader.remaining() / 2) {
    return Status::IOError("implausible field count");
  }
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint64_t i = 0; i < num_fields; ++i) {
    SKALLA_ASSIGN_OR_RETURN(uint64_t name_len, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(const uint8_t* name_bytes,
                            reader.ReadBytes(name_len));
    SKALLA_ASSIGN_OR_RETURN(uint8_t type, reader.ReadByte());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::IOError(StrCat("bad field type tag ", int{type}));
    }
    fields.push_back(
        Field{std::string(reinterpret_cast<const char*>(name_bytes),
                          name_len),
              static_cast<ValueType>(type)});
  }
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadVarint());
  if (num_fields == 0 ? num_rows > 1u << 24
                      : num_rows > reader.remaining() / num_fields) {
    return Status::IOError(StrCat("implausible row count ", num_rows));
  }
  sink->Begin(schema, num_rows);
  for (uint64_t r = 0; r < num_rows; ++r) {
    sink->BeginRow();
    for (size_t c = 0; c < num_fields; ++c) {
      SKALLA_ASSIGN_OR_RETURN(uint8_t tag, reader.ReadByte());
      if (tag == static_cast<uint8_t>(ValueType::kNull)) {
        sink->Null(c);
        continue;
      }
      const Field& field = schema->field(c);
      if (tag != static_cast<uint8_t>(field.type)) {
        if (tag > static_cast<uint8_t>(ValueType::kString)) {
          return Status::IOError(StrCat("bad value type tag ", int{tag}));
        }
        return Status::IOError(StrCat(
            ValueTypeToString(static_cast<ValueType>(tag)), " cell in ",
            ValueTypeToString(field.type), " column '", field.name, "'"));
      }
      switch (field.type) {
        case ValueType::kInt64: {
          SKALLA_ASSIGN_OR_RETURN(uint64_t raw, reader.ReadVarint());
          sink->Int64(c, ZigzagDecode(raw));
          break;
        }
        case ValueType::kFloat64: {
          SKALLA_ASSIGN_OR_RETURN(const uint8_t* raw, reader.ReadBytes(8));
          double d;
          std::memcpy(&d, raw, 8);
          sink->Float64(c, d);
          break;
        }
        case ValueType::kString: {
          SKALLA_ASSIGN_OR_RETURN(uint64_t len, reader.ReadVarint());
          SKALLA_ASSIGN_OR_RETURN(const uint8_t* bytes,
                                  reader.ReadBytes(len));
          sink->String(c, bytes, len);
          break;
        }
        case ValueType::kNull:
          break;  // unreachable: a NULL tag was handled above
      }
    }
    sink->EndRow();
  }
  if (reader.remaining() != 0) {
    return Status::IOError("trailing bytes after table payload");
  }
  return Status::OK();
}

// Boxes each row into a Table.
struct TableSink {
  Table table;
  Row row;

  void Begin(SchemaPtr schema, uint64_t num_rows) {
    table = Table(std::move(schema));
    table.Reserve(num_rows);
  }
  void BeginRow() { row.reserve(table.num_columns()); }
  void EndRow() { table.AppendUnchecked(std::move(row)); row = Row(); }
  void Null(size_t) { row.emplace_back(); }
  void Int64(size_t, int64_t v) { row.emplace_back(v); }
  void Float64(size_t, double v) { row.emplace_back(v); }
  void String(size_t, const uint8_t* bytes, size_t len) {
    row.emplace_back(std::string(reinterpret_cast<const char*>(bytes), len));
  }
};

// Appends each cell to its typed column.
struct ColumnSink {
  SchemaPtr schema;
  uint64_t num_rows = 0;
  std::vector<std::shared_ptr<Column>> columns;

  void Begin(SchemaPtr s, uint64_t n) {
    schema = std::move(s);
    num_rows = n;
    for (const Field& f : schema->fields()) {
      columns.push_back(std::make_shared<Column>(f.type));
      columns.back()->Reserve(n);
    }
  }
  void BeginRow() {}
  void EndRow() {}
  void Null(size_t c) { columns[c]->AppendNull(); }
  void Int64(size_t c, int64_t v) { columns[c]->AppendInt64(v); }
  void Float64(size_t c, double v) { columns[c]->AppendFloat64(v); }
  void String(size_t c, const uint8_t* bytes, size_t len) {
    columns[c]->AppendString(
        std::string(reinterpret_cast<const char*>(bytes), len));
  }
};

}  // namespace

Result<Table> ReadTable(const uint8_t* data, size_t size) {
  TableSink sink;
  SKALLA_RETURN_NOT_OK(ParseTable(data, size, &sink));
  return std::move(sink.table);
}

Result<ChunkPtr> ReadTableColumns(const uint8_t* data, size_t size) {
  ColumnSink sink;
  SKALLA_RETURN_NOT_OK(ParseTable(data, size, &sink));
  std::vector<ColumnPtr> pages(sink.columns.begin(), sink.columns.end());
  std::vector<ChunkColumnStats> stats(pages.size());
  return Chunk::FromPages(std::move(sink.schema), 0, sink.num_rows,
                          std::move(pages), std::move(stats));
}

uint64_t SerializedTableSize(const Table& table) {
  const Schema& schema = *table.schema();
  uint64_t size = VarintSize(schema.num_fields());
  for (const Field& f : schema.fields()) {
    size += VarintSize(f.name.size()) + f.name.size() + 1;
  }
  size += VarintSize(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (const Value& v : table.row(r)) size += ValueSize(v);
  }
  return size;
}

}  // namespace skalla

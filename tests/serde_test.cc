// Serialization round-trips, exact size accounting, and corrupted-input
// handling.

#include "net/serde.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/random.h"
#include "common/string_util.h"
#include "data/tpcr_gen.h"

namespace skalla {
namespace {

Table SampleTable() {
  SchemaPtr schema = Schema::Make({{"id", ValueType::kInt64},
                                   {"name", ValueType::kString},
                                   {"score", ValueType::kFloat64}})
                         .ValueOrDie();
  Table t(schema);
  t.Append({Value(1), Value("alpha"), Value(1.5)}).Check();
  t.Append({Value(-42), Value(""), Value::Null()}).Check();
  t.Append({Value::Null(), Value("beta"), Value(-0.25)}).Check();
  return t;
}

TEST(SerdeTest, ZigzagRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1} << 40,
                    -(int64_t{1} << 40), INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  // Zigzag keeps small magnitudes small.
  EXPECT_LT(ZigzagEncode(-1), 2u);
  EXPECT_LT(ZigzagEncode(1), 3u);
}

TEST(SerdeTest, TableRoundTrip) {
  Table original = SampleTable();
  std::vector<uint8_t> buffer;
  WriteTable(original, &buffer);
  Table decoded = ReadTable(buffer.data(), buffer.size()).ValueOrDie();
  EXPECT_TRUE(decoded.SameRows(original));
  EXPECT_TRUE(decoded.schema()->Equals(*original.schema()));
}

TEST(SerdeTest, EmptyTableRoundTrip) {
  Table empty(SampleTable().schema());
  std::vector<uint8_t> buffer;
  WriteTable(empty, &buffer);
  Table decoded = ReadTable(buffer.data(), buffer.size()).ValueOrDie();
  EXPECT_EQ(decoded.num_rows(), 0u);
  EXPECT_EQ(decoded.num_columns(), 3u);
}

TEST(SerdeTest, SerializedTableSizeIsExact) {
  Table t = SampleTable();
  std::vector<uint8_t> buffer;
  WriteTable(t, &buffer);
  EXPECT_EQ(SerializedTableSize(t), buffer.size());

  TpcrConfig config;
  config.num_rows = 500;
  Table tpcr = GenerateTpcr(config);
  buffer.clear();
  WriteTable(tpcr, &buffer);
  EXPECT_EQ(SerializedTableSize(tpcr), buffer.size());
}

TEST(SerdeTest, TruncatedBufferFails) {
  Table t = SampleTable();
  std::vector<uint8_t> buffer;
  WriteTable(t, &buffer);
  for (size_t cut : {buffer.size() - 1, buffer.size() / 2, size_t{1},
                     size_t{0}}) {
    auto decoded = ReadTable(buffer.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_TRUE(decoded.status().IsIOError()) << "cut=" << cut;
  }
}

TEST(SerdeTest, TrailingGarbageFails) {
  Table t = SampleTable();
  std::vector<uint8_t> buffer;
  WriteTable(t, &buffer);
  buffer.push_back(0x00);
  auto decoded = ReadTable(buffer.data(), buffer.size());
  EXPECT_FALSE(decoded.ok());
}

TEST(SerdeTest, BadTypeTagFails) {
  Table t = SampleTable();
  std::vector<uint8_t> buffer;
  WriteTable(t, &buffer);
  // Find the first cell type tag after the header and corrupt it. The
  // header is: nfields varint, then per field name-len + name + type. We
  // instead corrupt every byte in turn and require "no crash, and either
  // failure or a decode" — a light fuzz.
  int failures = 0;
  for (size_t i = 0; i < buffer.size(); ++i) {
    std::vector<uint8_t> corrupted = buffer;
    corrupted[i] = 0xff;
    auto decoded = ReadTable(corrupted.data(), corrupted.size());
    if (!decoded.ok()) ++failures;
  }
  EXPECT_GT(failures, 0);
}

TEST(SerdeTest, RandomTablesRoundTrip) {
  Random rng(99);
  for (int iter = 0; iter < 10; ++iter) {
    size_t cols = 1 + rng.Uniform(5);
    std::vector<Field> fields;
    for (size_t c = 0; c < cols; ++c) {
      ValueType t = static_cast<ValueType>(1 + rng.Uniform(3));
      fields.push_back(Field{std::string(1, static_cast<char>('a' + c)), t});
    }
    Table table(Schema::Make(std::move(fields)).ValueOrDie());
    size_t rows = rng.Uniform(60);
    for (size_t r = 0; r < rows; ++r) {
      Row row;
      for (size_t c = 0; c < cols; ++c) {
        if (rng.Bernoulli(0.15)) {
          row.push_back(Value::Null());
          continue;
        }
        switch (table.schema()->field(c).type) {
          case ValueType::kInt64:
            row.push_back(Value(static_cast<int64_t>(rng.Next())));
            break;
          case ValueType::kFloat64:
            row.push_back(Value(rng.NextDouble() * 1e6 - 5e5));
            break;
          default:
            row.push_back(Value(rng.NextString(rng.Uniform(20))));
            break;
        }
      }
      table.AppendUnchecked(std::move(row));
    }
    std::vector<uint8_t> buffer;
    WriteTable(table, &buffer);
    EXPECT_EQ(buffer.size(), SerializedTableSize(table));
    Table decoded = ReadTable(buffer.data(), buffer.size()).ValueOrDie();
    // NB: SameRows treats INT64/FLOAT64 holding the same value as equal,
    // which is fine — serialization preserves the exact representation,
    // checked via schema equality.
    EXPECT_TRUE(decoded.SameRows(table));
    EXPECT_TRUE(decoded.schema()->Equals(*table.schema()));
  }
}


// --- The typed reader ---------------------------------------------------------

// A table of every edge cell per type: NULL, NaN, -0.0/0.0, +-inf, the
// INT64 extremes and empty strings.
Table EdgeTable() {
  SchemaPtr schema = Schema::Make({{"i", ValueType::kInt64},
                                   {"f", ValueType::kFloat64},
                                   {"s", ValueType::kString}})
                         .ValueOrDie();
  const double inf = std::numeric_limits<double>::infinity();
  Table t(schema);
  t.AppendUnchecked({Value::Null(), Value::Null(), Value::Null()});
  t.AppendUnchecked({Value(std::numeric_limits<int64_t>::min()),
                     Value(std::numeric_limits<double>::quiet_NaN()),
                     Value("")});
  t.AppendUnchecked({Value(std::numeric_limits<int64_t>::max()), Value(-0.0),
                     Value(std::string("a\0b", 3))});
  t.AppendUnchecked({Value(int64_t{0}), Value(0.0), Value("")});
  t.AppendUnchecked({Value(int64_t{-1}), Value(inf), Value::Null()});
  t.AppendUnchecked({Value::Null(), Value(-inf), Value("zz")});
  return t;
}

Table RandomTable(Random& rng) {
  size_t cols = 1 + rng.Uniform(5);
  std::vector<Field> fields;
  for (size_t c = 0; c < cols; ++c) {
    ValueType t = static_cast<ValueType>(1 + rng.Uniform(3));
    fields.push_back(Field{std::string(1, static_cast<char>('a' + c)), t});
  }
  Table table(Schema::Make(std::move(fields)).ValueOrDie());
  size_t rows = rng.Uniform(60);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (size_t c = 0; c < cols; ++c) {
      if (rng.Bernoulli(0.15)) {
        row.push_back(Value::Null());
        continue;
      }
      switch (table.schema()->field(c).type) {
        case ValueType::kInt64:
          row.push_back(Value(static_cast<int64_t>(rng.Next())));
          break;
        case ValueType::kFloat64: {
          // Any 64 bits: NaN payloads and subnormals included.
          uint64_t bits = rng.Next();
          double d;
          std::memcpy(&d, &bits, sizeof(d));
          row.push_back(Value(d));
          break;
        }
        default:
          row.push_back(Value(rng.NextString(rng.Uniform(20))));
          break;
      }
    }
    table.AppendUnchecked(std::move(row));
  }
  return table;
}

std::vector<uint8_t> Bytes(const Table& t) {
  std::vector<uint8_t> out;
  WriteTable(t, &out);
  return out;
}

// Both readers over `data`: they accept the same inputs, and an accepted
// input decodes to a well-formed chunk whose cells box to ReadTable's.
void ExpectReadersAgree(const std::vector<uint8_t>& data,
                        const std::string& what) {
  Result<Table> boxed = ReadTable(data.data(), data.size());
  Result<ChunkPtr> typed = ReadTableColumns(data.data(), data.size());
  ASSERT_EQ(boxed.ok(), typed.ok()) << what;
  if (!boxed.ok()) {
    EXPECT_EQ(boxed.status().ToString(), typed.status().ToString()) << what;
    return;
  }
  const Chunk& chunk = **typed;
  ASSERT_EQ(chunk.num_rows(), boxed->num_rows()) << what;
  ASSERT_TRUE(chunk.schema()->Equals(*boxed->schema())) << what;
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    ASSERT_EQ(chunk.column(c).size(), chunk.num_rows()) << what;
    ASSERT_EQ(chunk.column(c).type(), chunk.schema()->field(c).type) << what;
  }
  EXPECT_EQ(Bytes(chunk.ToTable()), Bytes(*boxed)) << what;
}

TEST(SerdeTest, TypedReaderBoxesToReadTable) {
  std::vector<Table> tables = {EdgeTable(), Table(EdgeTable().schema()),
                               Table(), SampleTable()};
  Random rng(2027);
  for (int iter = 0; iter < 40; ++iter) tables.push_back(RandomTable(rng));
  for (size_t i = 0; i < tables.size(); ++i) {
    const std::vector<uint8_t> bytes = Bytes(tables[i]);
    ChunkPtr typed = ReadTableColumns(bytes.data(), bytes.size()).ValueOrDie();
    // Boxed back, the typed decode is exactly the table written.
    EXPECT_EQ(Bytes(typed->ToTable()), bytes) << "table " << i;
    ExpectReadersAgree(bytes, StrCat("table ", i));
  }
}

TEST(SerdeTest, TypedReaderSurvivesTruncationAndBitFlips) {
  Random rng(7);
  for (const Table& t : {EdgeTable(), SampleTable(), RandomTable(rng)}) {
    const std::vector<uint8_t> bytes = Bytes(t);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<uint8_t> prefix(bytes.begin(),
                                  bytes.begin() + static_cast<int64_t>(cut));
      ExpectReadersAgree(prefix, StrCat("cut ", cut));
    }
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ExpectReadersAgree(flipped, StrCat("bit ", bit));
    }
  }
}

TEST(SerdeTest, MismatchedCellTagAndTrailingBytesFail) {
  // An INT64 column holding a FLOAT64 cell: rejected, not coerced.
  SchemaPtr schema = Schema::Make({{"id", ValueType::kInt64}}).ValueOrDie();
  Table t(schema);
  t.AppendUnchecked({Value(1.0)});
  std::vector<uint8_t> bytes = Bytes(t);
  Result<Table> boxed = ReadTable(bytes.data(), bytes.size());
  Result<ChunkPtr> typed = ReadTableColumns(bytes.data(), bytes.size());
  ASSERT_FALSE(boxed.ok());
  ASSERT_FALSE(typed.ok());
  EXPECT_TRUE(boxed.status().IsIOError());
  EXPECT_TRUE(typed.status().IsIOError());
  EXPECT_NE(typed.status().message().find("'id'"), std::string::npos)
      << typed.status().ToString();

  std::vector<uint8_t> trailing = Bytes(SampleTable());
  trailing.push_back(0x00);
  EXPECT_TRUE(ReadTable(trailing.data(), trailing.size()).status().IsIOError());
  EXPECT_TRUE(ReadTableColumns(trailing.data(), trailing.size())
                  .status()
                  .IsIOError());
}

}  // namespace
}  // namespace skalla

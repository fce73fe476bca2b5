// The disk-backed storage subsystem end to end: chunk file round trips,
// CRC corruption detection, byte-identical chunk-paged evaluation at any
// buffer budget, chunked warehouse save/load, and storage-reload data
// epochs.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/local_eval.h"
#include "data/tpcr_gen.h"
#include "dist/warehouse.h"
#include "net/serde.h"
#include "rpc/frame.h"
#include "sql/parser.h"
#include "storage/chunk_file.h"
#include "storage/data_provider.h"
#include "storage/partition.h"

namespace skalla {
namespace {

Table MakeDetail(int64_t salt, size_t rows = 900) {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"name", ValueType::kString},
                                   {"v", ValueType::kFloat64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    int64_t n = salt + static_cast<int64_t>(i);
    t.AppendUnchecked({Value(n % 13), Value("name-" + std::to_string(n % 7)),
                       Value(static_cast<double>(n % 101) / 4.0)});
  }
  return t;
}

std::vector<uint8_t> TableBytes(const Table& t) {
  std::vector<uint8_t> bytes;
  WriteTable(t, &bytes);
  return bytes;
}

GmdjExpr TestQuery() {
  return ParseQuery(R"(
    BASE SELECT DISTINCT g FROM d;
    MD USING d COMPUTE COUNT(*) AS c, SUM(v) AS s, MIN(v) AS lo
       WHERE r.g = b.g;
    MD USING d COMPUTE COUNT(*) AS above
       WHERE r.g = b.g AND r.v >= b.s / b.c;
  )").ValueOrDie();
}

class ChunkStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/skalla_chunk_storage_test";
    mkdir(dir_.c_str(), 0755);
  }

  std::string Path(const std::string& file) { return dir_ + "/" + file; }

  std::string dir_;
};

TEST_F(ChunkStorageTest, ChunkFileRoundTrip) {
  Table original = MakeDetail(5);
  const std::string path = Path("roundtrip.skc");
  WriteChunkFile(original, path, /*chunk_rows=*/128).Check();

  auto file = ChunkFile::Open(path).ValueOrDie();
  EXPECT_EQ(file->num_rows(), original.num_rows());
  EXPECT_EQ(file->num_chunks(), (original.num_rows() + 127) / 128);

  for (size_t c = 0; c < file->num_chunks(); ++c) {
    EXPECT_EQ(file->entry(c).row_begin, c * 128);
    std::vector<ColumnPtr> pages = file->ReadPages(c, {0, 1, 2}).ValueOrDie();
    EXPECT_EQ(pages[2]->size(), file->entry(c).row_count);
  }
  // Boxing every chunk's typed columns reproduces the table exactly, in
  // order — under a budget far below one chunk, too.
  for (uint64_t budget : {uint64_t{0}, uint64_t{1}}) {
    auto buffers = std::make_shared<BufferManager>(budget);
    auto provider = ChunkFileDataProvider::Open(path, buffers).ValueOrDie();
    Table rebuilt = MaterializeProvider(*provider).ValueOrDie();
    EXPECT_EQ(TableBytes(rebuilt), TableBytes(original)) << budget;
  }

  // Numeric column stats survive the round trip.
  const ChunkEntry& first = file->entry(0);
  const ChunkColumnStats& g_stats = first.column_stats[0];
  EXPECT_TRUE(g_stats.has_range);
  EXPECT_GE(g_stats.min, 0.0);
  EXPECT_LE(g_stats.max, 12.0);
  EXPECT_FALSE(first.column_stats[1].has_range);  // string column
}

TEST_F(ChunkStorageTest, CorruptionIsDetected) {
  Table original = MakeDetail(9, 300);
  const std::string path = Path("corrupt.skc");
  WriteChunkFile(original, path, /*chunk_rows=*/100).Check();
  auto clean = ChunkFile::Open(path).ValueOrDie();
  const ChunkEntry& target = clean->entry(1);

  // Flip one payload byte: that chunk (and only that chunk) fails CRC.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(target.offset + target.length / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(target.offset + target.length / 2));
    f.write(&byte, 1);
  }
  auto damaged = ChunkFile::Open(path).ValueOrDie();  // footer still fine
  EXPECT_TRUE(damaged->ReadPages(0, {0, 1, 2}).ok());
  EXPECT_TRUE(damaged->ReadPages(1, {0, 1, 2}).status().IsIOError());

  // Truncate into the footer: the file no longer opens at all.
  const std::string truncated = Path("truncated.skc");
  WriteChunkFile(original, truncated, /*chunk_rows=*/100).Check();
  {
    std::ifstream in(truncated, std::ios::binary | std::ios::ate);
    auto size = static_cast<size_t>(in.tellg());
    in.seekg(0);
    std::vector<char> bytes(size - 6);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::ofstream out(truncated, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(ChunkFile::Open(truncated).ok());
}

// The tentpole contract: evaluating through a paged provider is
// byte-identical to in-memory evaluation at every buffer budget — even
// one so small every pin evicts something.
TEST_F(ChunkStorageTest, ChunkPagedEvalIsByteIdenticalAtAnyBudget) {
  Table detail = MakeDetail(3);
  const std::string path = Path("eval.skc");
  WriteChunkFile(detail, path, /*chunk_rows=*/64).Check();

  Catalog eager;
  eager.Register("d", detail);
  GmdjExpr query = TestQuery();
  const std::vector<uint8_t> expected =
      TableBytes(EvalCentralized(query, eager).ValueOrDie());

  const uint64_t chunk_bytes =
      Chunk::Build(detail, 0, 64).ValueOrDie()->byte_size();
  for (uint64_t budget : {uint64_t{1}, chunk_bytes * 3, uint64_t{0}}) {
    auto buffers = std::make_shared<BufferManager>(budget);
    Catalog paged;
    paged.RegisterProvider(
        "d", ChunkFileDataProvider::Open(path, buffers).ValueOrDie());
    EXPECT_TRUE(paged.IsChunkBacked("d"));

    Table got = EvalCentralized(query, paged).ValueOrDie();
    EXPECT_EQ(TableBytes(got), expected) << "budget=" << budget;

    BufferStats stats = buffers->stats();
    EXPECT_GT(stats.misses, 0u) << "budget=" << budget;
    if (budget == 1) {
      // Nothing fits: every release evicts, nothing stays resident.
      EXPECT_GT(stats.evictions, 0u);
      EXPECT_LE(stats.resident_bytes, budget);
    }
  }
}

// The oracle (nested-loop) path must match too, at a pathological
// budget.
TEST_F(ChunkStorageTest, NestedLoopChunkedMatchesResident) {
  Table detail = MakeDetail(11, 400);
  const std::string path = Path("oracle.skc");
  WriteChunkFile(detail, path, /*chunk_rows=*/53).Check();

  Catalog eager;
  eager.Register("d", detail);
  EvalContext oracle;
  oracle.engine = EvalEngine::kNestedLoop;
  GmdjExpr query = TestQuery();
  const std::vector<uint8_t> expected =
      TableBytes(EvalCentralized(query, eager, oracle).ValueOrDie());

  auto buffers = std::make_shared<BufferManager>(1);
  Catalog paged;
  paged.RegisterProvider(
      "d", ChunkFileDataProvider::Open(path, buffers).ValueOrDie());
  EXPECT_EQ(TableBytes(EvalCentralized(query, paged, oracle).ValueOrDie()),
            expected);
}

TEST_F(ChunkStorageTest, ChunkedWarehouseRoundTripAndReload) {
  TpcrConfig config;
  config.num_rows = 2000;
  config.num_customers = 120;
  config.num_clerks = 9;
  Table tpcr = GenerateTpcr(config);

  DistributedWarehouse eager(3);
  eager
      .AddTablePartitionedBy("tpcr", tpcr, "NationKey",
                             {"CustKey", "Clerk", "Quantity"})
      .Check();
  eager.Save(dir_, /*chunk_rows=*/256).Check();

  GmdjExpr query = ParseQuery(R"(
    BASE SELECT DISTINCT Clerk FROM tpcr;
    MD USING tpcr COMPUTE COUNT(*) AS c, SUM(Quantity) AS q
       WHERE r.Clerk = b.Clerk;
  )").ValueOrDie();
  ExecStats eager_stats;
  Table expected =
      eager.Execute(query, OptimizerOptions::All(), &eager_stats)
          .ValueOrDie();

  // Load with a budget far below any partition: the whole pipeline runs
  // paged and still matches the eager warehouse byte for byte, with the
  // same plan economics (STATS preserved the distribution knowledge).
  DistributedWarehouse lazy =
      DistributedWarehouse::Load(dir_, {}, {}, /*buffer_bytes=*/64 * 1024)
          .ValueOrDie();
  EXPECT_EQ(lazy.num_sites(), 3u);
  EXPECT_NE(lazy.buffer_manager(), nullptr);
  ASSERT_NE(lazy.partition_info("tpcr"), nullptr);
  EXPECT_TRUE(
      lazy.partition_info("tpcr")->IsPartitionAttribute("NationKey"));

  ExecStats lazy_stats;
  Table got =
      lazy.Execute(query, OptimizerOptions::All(), &lazy_stats).ValueOrDie();
  EXPECT_EQ(TableBytes(got), TableBytes(expected));
  EXPECT_EQ(lazy_stats.TotalBytes(), eager_stats.TotalBytes());
  EXPECT_EQ(lazy_stats.NumSyncRounds(), eager_stats.NumSyncRounds());

  // Centralized reference evaluation pages through the concatenated
  // providers and matches too.
  EXPECT_EQ(TableBytes(lazy.ExecuteCentralized(query).ValueOrDie()),
            TableBytes(eager.ExecuteCentralized(query).ValueOrDie()));

  // ReloadTable re-opens the chunk files and bumps the data epoch.
  EXPECT_EQ(lazy.data_epoch(), 0u);
  lazy.ReloadTable("tpcr").Check();
  EXPECT_EQ(lazy.data_epoch(), 1u);
  EXPECT_EQ(TableBytes(lazy.ExecuteCentralized(query).ValueOrDie()),
            TableBytes(eager.ExecuteCentralized(query).ValueOrDie()));

  EXPECT_TRUE(lazy.ReloadTable("nope").IsNotFound());
  DistributedWarehouse resident(2);
  EXPECT_TRUE(resident.ReloadTable("tpcr").IsFailedPrecondition());
}

TEST_F(ChunkStorageTest, LoadSiteCatalogServesChunkedPartitions) {
  Table detail = MakeDetail(21, 500);
  DistributedWarehouse dw(2);
  dw.AddTablePartitionedBy("d", detail, "g").Check();
  dw.Save(dir_, /*chunk_rows=*/64).Check();

  // A 1-byte budget is pathological: it pages everything.
  Catalog site0 = LoadSiteCatalog(dir_, 0, /*buffer_bytes=*/1).ValueOrDie();
  EXPECT_TRUE(site0.IsChunkBacked("d"));
  // Get() refuses chunk-backed entries; the provider path serves them.
  EXPECT_TRUE(site0.Get("d").status().IsFailedPrecondition());

  // A base query over the paged partition matches the resident one.
  Catalog eager0;
  {
    auto parts = PartitionByValue(detail, "g", 2).ValueOrDie();
    eager0.Register("d", std::move(parts[0]));
  }
  BaseQuery query;
  query.table = "d";
  query.columns = {"g"};
  query.distinct = true;
  EXPECT_EQ(TableBytes(query.Execute(site0).ValueOrDie()),
            TableBytes(query.Execute(eager0).ValueOrDie()));
}

// --- Chunk file v2: column pages ---------------------------------------------

// A table with every cell shape a page must carry: NULLs in each type,
// -0.0, NaN, infinities, empty strings, int64 extremes.
Table EdgeCaseTable(size_t rows) {
  SchemaPtr schema = Schema::Make({{"i", ValueType::kInt64},
                                   {"d", ValueType::kFloat64},
                                   {"s", ValueType::kString}})
                         .ValueOrDie();
  const double doubles[] = {-0.0, 0.0, std::nan(""), 1e308, -1.5,
                            std::numeric_limits<double>::infinity()};
  const int64_t ints[] = {0, -1, std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(), 63, -64};
  const char* strings[] = {"", "a", "", "longer string with spaces", "z"};
  Table t(schema);
  for (size_t r = 0; r < rows; ++r) {
    Row row = {Value(ints[r % 6]), Value(doubles[r % 6]),
               Value(std::string(strings[r % 5]))};
    if (r % 7 == 3) row[0] = Value::Null();
    if (r % 5 == 1) row[1] = Value::Null();
    if (r % 4 == 2) row[2] = Value::Null();
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Cell-for-cell, bit-for-bit equality of two columns.
void ExpectSameColumn(const Column& a, const Column& b) {
  ASSERT_EQ(a.type(), b.type());
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a.IsNull(r), b.IsNull(r)) << r;
    if (a.IsNull(r)) continue;
    switch (a.type()) {
      case ValueType::kInt64:
        EXPECT_EQ(a.Int64At(r), b.Int64At(r)) << r;
        break;
      case ValueType::kFloat64: {
        const double x = a.Float64At(r), y = b.Float64At(r);
        EXPECT_EQ(std::memcmp(&x, &y, sizeof(x)), 0) << r;
        break;
      }
      case ValueType::kString:
        EXPECT_EQ(a.StringAt(r), b.StringAt(r)) << r;
        break;
      case ValueType::kNull:
        break;
    }
  }
}

TEST_F(ChunkStorageTest, TypedPageDecodeMatchesBoxedDecode) {
  Table original = EdgeCaseTable(250);
  const std::string path = Path("edge.skc");
  WriteChunkFile(original, path, /*chunk_rows=*/100).Check();
  auto file = ChunkFile::Open(path).ValueOrDie();
  const std::vector<uint8_t> bytes = ReadFileBytes(path);

  for (size_t ci = 0; ci < file->num_chunks(); ++ci) {
    const ChunkEntry& entry = file->entry(ci);
    std::vector<ColumnPtr> pages =
        file->ReadPages(ci, {0, 1, 2}).ValueOrDie();
    for (size_t c = 0; c < 3; ++c) {
      const ChunkPage& page = entry.pages[c];
      const uint8_t* data = bytes.data() + page.offset;
      // The boxed decode: one ReadValue + Column::Append per cell.
      Column boxed(original.schema()->field(c).type);
      ByteReader reader(data, page.length);
      std::vector<uint8_t> cells;  // the same cells via WriteValue
      for (size_t r = 0; r < entry.row_count; ++r) {
        Value v = ReadValue(&reader).ValueOrDie();
        boxed.Append(v).Check();
        WriteValue(&cells, original.at(entry.row_begin + r, c));
      }
      EXPECT_EQ(reader.remaining(), 0u);
      ExpectSameColumn(*pages[c], boxed);
      ExpectSameColumn(
          DecodeColumnPage(data, page.length, boxed.type(), entry.row_count)
              .ValueOrDie(),
          boxed);
      // The typed encoder writes exactly the WriteValue cell bytes.
      std::vector<uint8_t> encoded;
      EncodeColumnPage(*pages[c], &encoded);
      EXPECT_EQ(encoded, std::vector<uint8_t>(data, data + page.length));
      EXPECT_EQ(encoded, cells);
    }
  }
  auto provider = ChunkFileDataProvider::Open(
                      path, std::make_shared<BufferManager>(1))
                      .ValueOrDie();
  EXPECT_EQ(TableBytes(MaterializeProvider(*provider).ValueOrDie()),
            TableBytes(original));
}

TEST_F(ChunkStorageTest, PageDecodeRejectsForeignTagsTruncationAndTrailing) {
  std::vector<uint8_t> ints;
  WriteValue(&ints, Value(int64_t{7}));
  WriteValue(&ints, Value::Null());
  EXPECT_TRUE(DecodeColumnPage(ints.data(), ints.size(), ValueType::kInt64, 2)
                  .ok());
  // An INT64 cell in a FLOAT64 page is not the declared tag.
  EXPECT_TRUE(DecodeColumnPage(ints.data(), ints.size(), ValueType::kFloat64,
                               2)
                  .status()
                  .IsIOError());
  // One cell short, one cell over, a cut-off cell.
  EXPECT_TRUE(DecodeColumnPage(ints.data(), ints.size(), ValueType::kInt64, 3)
                  .status()
                  .IsIOError());
  EXPECT_TRUE(DecodeColumnPage(ints.data(), ints.size(), ValueType::kInt64, 1)
                  .status()
                  .IsIOError());
  std::vector<uint8_t> str;
  WriteValue(&str, Value(std::string("hello")));
  EXPECT_TRUE(DecodeColumnPage(str.data(), str.size() - 1,
                               ValueType::kString, 1)
                  .status()
                  .IsIOError());
  std::vector<uint8_t> bad_tag = {9};
  EXPECT_TRUE(DecodeColumnPage(bad_tag.data(), bad_tag.size(),
                               ValueType::kString, 1)
                  .status()
                  .IsIOError());
}

// A flipped byte in page c of chunk i fails exactly the pins that read
// that page; every other page still loads.
TEST_F(ChunkStorageTest, CorruptPageFailsOnlyPinsThatReadIt) {
  Table original = MakeDetail(9, 300);
  const std::string clean_path = Path("pages_clean.skc");
  WriteChunkFile(original, clean_path, /*chunk_rows=*/100).Check();
  auto clean = ChunkFile::Open(clean_path).ValueOrDie();
  const std::vector<uint8_t> clean_bytes = ReadFileBytes(clean_path);
  const size_t damaged_chunk = 1;

  for (size_t damaged_col = 0; damaged_col < 3; ++damaged_col) {
    const ChunkPage& page = clean->entry(damaged_chunk).pages[damaged_col];
    std::vector<uint8_t> bytes = clean_bytes;
    bytes[page.offset + page.length / 2] ^= 0x40;
    const std::string path = Path("pages_damaged.skc");
    WriteFileBytes(path, bytes);

    auto provider = ChunkFileDataProvider::Open(
                        path, std::make_shared<BufferManager>(0))
                        .ValueOrDie();
    for (size_t ci = 0; ci < provider->num_chunks(); ++ci) {
      for (size_t col = 0; col < 3; ++col) {
        Result<PinnedChunk> pin = provider->Pin(ci, {col});
        const bool hit = ci == damaged_chunk && col == damaged_col;
        EXPECT_EQ(pin.ok(), !hit) << ci << "/" << col;
        if (hit) {
          EXPECT_TRUE(pin.status().IsIOError());
        }
      }
      EXPECT_EQ(provider->Pin(ci, {0, 1, 2}).ok(), ci != damaged_chunk);
    }
  }
}

// Builds a one-column INT64 chunk file by hand whose only chunk's page
// claims `page_length` bytes.
std::vector<uint8_t> HandBuiltChunkFile(const char* magic,
                                        int64_t page_length_delta) {
  std::vector<uint8_t> payload;
  WriteValue(&payload, Value(int64_t{1}));
  WriteValue(&payload, Value(int64_t{2}));
  std::vector<uint8_t> footer;
  PutVarint(&footer, 1);  // schema: one field
  PutVarint(&footer, 1);
  footer.push_back('x');
  footer.push_back(static_cast<uint8_t>(ValueType::kInt64));
  PutVarint(&footer, 2);  // num_rows
  PutVarint(&footer, 1);  // nchunks
  PutVarint(&footer, 0);  // row_begin
  PutVarint(&footer, 2);  // row_count
  PutVarint(&footer, 8);  // offset
  PutVarint(&footer, payload.size());
  footer.push_back(0);    // has_range
  PutVarint(&footer, 0);  // null_count
  PutVarint(&footer, static_cast<uint64_t>(
                         static_cast<int64_t>(payload.size()) +
                         page_length_delta));
  auto put_u32 = [](std::vector<uint8_t>* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  put_u32(&footer, rpc::Crc32(payload.data(), payload.size()));

  std::vector<uint8_t> file;
  for (int i = 0; i < 8; ++i) file.push_back(static_cast<uint8_t>(magic[i]));
  for (uint8_t b : payload) file.push_back(b);
  for (uint8_t b : footer) file.push_back(b);
  put_u32(&file, static_cast<uint32_t>(footer.size()));
  put_u32(&file, rpc::Crc32(footer.data(), footer.size()));
  return file;
}

TEST_F(ChunkStorageTest, FooterPagesMustTileThePayload) {
  const std::string path = Path("tiling.skc");
  WriteFileBytes(path, HandBuiltChunkFile("SKALLAC2", 0));
  auto file = ChunkFile::Open(path).ValueOrDie();  // control: tiles
  EXPECT_EQ(file->ReadPages(0, {0}).ValueOrDie()[0]->Int64At(1), 2);

  for (int64_t delta : {-1, 1}) {
    WriteFileBytes(path, HandBuiltChunkFile("SKALLAC2", delta));
    Result<std::shared_ptr<const ChunkFile>> bad = ChunkFile::Open(path);
    ASSERT_TRUE(bad.status().IsIOError()) << delta;
    EXPECT_NE(bad.status().message().find("pages"), std::string::npos)
        << bad.status().message();
  }
}

TEST_F(ChunkStorageTest, VersionOneFilesAreRejectedByVersion) {
  const std::string path = Path("v1.skc");
  WriteChunkFile(MakeDetail(2, 50), path).Check();
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes[7], '2');
  bytes[7] = '1';
  WriteFileBytes(path, bytes);
  Result<std::shared_ptr<const ChunkFile>> opened = ChunkFile::Open(path);
  ASSERT_TRUE(opened.status().IsIOError());
  EXPECT_NE(opened.status().message().find("version 1"), std::string::npos)
      << opened.status().message();
  EXPECT_NE(opened.status().message().find("SKALLAC1"), std::string::npos);
}

}  // namespace
}  // namespace skalla

// The disk-backed storage subsystem end to end: chunk file round trips,
// CRC corruption detection, byte-identical chunk-paged evaluation at any
// buffer budget, chunked warehouse save/load, and storage-reload data
// epochs.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/local_eval.h"
#include "data/tpcr_gen.h"
#include "dist/warehouse.h"
#include "net/serde.h"
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
    EXPECT_EQ(file->ReadChunk(c).ValueOrDie()->row_begin(), c * 128);
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
  ChunkPtr first = file->ReadChunk(0).ValueOrDie();
  const ChunkColumnStats& g_stats = first->column_stats(0);
  EXPECT_TRUE(g_stats.has_range);
  EXPECT_GE(g_stats.min, 0.0);
  EXPECT_LE(g_stats.max, 12.0);
  EXPECT_FALSE(first->column_stats(1).has_range);  // string column
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
  EXPECT_TRUE(damaged->ReadChunk(0).ok());
  EXPECT_TRUE(damaged->ReadChunk(1).status().IsIOError());

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
  eager.SaveChunked(dir_, /*chunk_rows=*/256).Check();

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
  StorageOptions storage;
  storage.buffer_bytes = 64 * 1024;
  DistributedWarehouse lazy =
      DistributedWarehouse::Load(dir_, {}, {}, storage).ValueOrDie();
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
  dw.SaveChunked(dir_, /*chunk_rows=*/64).Check();

  StorageOptions storage;
  storage.buffer_bytes = 1;  // pathological: page everything
  Catalog site0 = LoadSiteCatalog(dir_, 0, storage).ValueOrDie();
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

}  // namespace
}  // namespace skalla

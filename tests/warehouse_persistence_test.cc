// Warehouse persistence: Save/Load round-trips partitions, tracked
// distribution knowledge, and query behavior; Load rejects malformed
// MANIFEST and STATS files with a typed error.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/flow_gen.h"
#include "dist/warehouse.h"
#include "net/serde.h"
#include "sql/parser.h"

namespace skalla {
namespace {

class WarehousePersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/skalla_warehouse_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void WriteFile(const std::string& name, const std::string& text) {
    std::ofstream(dir_ + "/" + name, std::ios::binary | std::ios::trunc)
        << text;
  }

  std::string dir_;
};

TEST_F(WarehousePersistenceTest, SaveLoadRoundTrip) {
  FlowConfig config;
  config.num_flows = 3000;
  config.num_routers = 3;
  Table flow = GenerateFlows(config);

  DistributedWarehouse original(3);
  original
      .AddTablePartitionedBy("flow", flow, "RouterId",
                             {"SourceAS", "NumBytes"})
      .Check();
  original.Save(dir_).Check();

  DistributedWarehouse loaded =
      DistributedWarehouse::Load(dir_).ValueOrDie();
  EXPECT_EQ(loaded.num_sites(), 3u);

  // Distribution knowledge came back from STATS, so the optimizer
  // behaves identically.
  ASSERT_NE(loaded.partition_info("flow"), nullptr);
  EXPECT_TRUE(loaded.partition_info("flow")->IsPartitionAttribute(
      "SourceAS"));

  GmdjExpr query = ParseQuery(R"(
    BASE SELECT DISTINCT SourceAS FROM flow;
    MD USING flow
       COMPUTE COUNT(*) AS c, SUM(NumBytes) AS s
       WHERE r.SourceAS = b.SourceAS;
  )").ValueOrDie();

  ExecStats original_stats;
  ExecStats loaded_stats;
  Table original_result =
      original.Execute(query, OptimizerOptions::All(), &original_stats)
          .ValueOrDie();
  Table loaded_result =
      loaded.Execute(query, OptimizerOptions::All(), &loaded_stats)
          .ValueOrDie();
  EXPECT_TRUE(loaded_result.SameRows(original_result));
  EXPECT_EQ(loaded_stats.TotalBytes(), original_stats.TotalBytes());
  EXPECT_EQ(loaded_stats.NumSyncRounds(), original_stats.NumSyncRounds());
}

TEST_F(WarehousePersistenceTest, LoadErrors) {
  EXPECT_TRUE(DistributedWarehouse::Load("/tmp/definitely_missing_dir_x")
                  .status()
                  .IsIOError());
  // Corrupt manifest.
  WriteFile("MANIFEST", "not a manifest\n");
  EXPECT_TRUE(DistributedWarehouse::Load(dir_).status().IsIOError());

  // A version-1 (row file) warehouse has no reader; the error says so.
  WriteFile("MANIFEST",
            "skalla-warehouse 1\nsites 3\ntable flow tracked SourceAS\n");
  Status v1 = DistributedWarehouse::Load(dir_).status();
  EXPECT_TRUE(v1.IsIOError()) << v1.ToString();
  EXPECT_NE(v1.message().find("version 1"), std::string::npos)
      << v1.ToString();
  EXPECT_TRUE(LoadSiteCatalog(dir_, 0).status().IsIOError());

  // The site count must be a plain decimal in [1, 65536], checked before
  // one catalog per site is sized (2^64 - 1 would throw
  // std::length_error there).
  for (const char* sites :
       {"18446744073709551615", "99999999999999999999999", "0", "-1", "3x",
        " 3", "", "65537"}) {
    WriteFile("MANIFEST",
              std::string("skalla-warehouse 2 chunked\nsites ") + sites +
                  "\n");
    Status s = DistributedWarehouse::Load(dir_).status();
    EXPECT_TRUE(s.IsIOError()) << "sites '" << sites << "': " << s.ToString();
    EXPECT_TRUE(LoadSiteCatalog(dir_, 0).status().IsIOError())
        << "sites '" << sites << "'";
  }

  // STATS: a table must cover exactly the manifest's sites, carry only
  // the value-set / min / max flag bits, and nothing may follow it.
  WriteFile("MANIFEST", "skalla-warehouse 2 chunked\nsites 3\n");
  auto stats_with = [](uint64_t table_sites, uint8_t flags) {
    std::vector<uint8_t> out = {'S', 'K', 'A', 'L', 'L', 'A',
                                'S', 'T', 'A', 'T', 'S', '1'};
    PutVarint(&out, 1);  // tables
    PutVarint(&out, 1);
    out.push_back('t');
    PutVarint(&out, table_sites);
    PutVarint(&out, 1);  // columns
    PutVarint(&out, 1);
    out.push_back('c');
    for (uint64_t site = 0; site < std::min<uint64_t>(table_sites, 3);
         ++site) {
      out.push_back(flags);
      if (flags & 1) PutVarint(&out, 0);  // an empty value set
    }
    return std::string(out.begin(), out.end());
  };
  auto load_fails_typed = [this](const std::string& stats) {
    WriteFile("STATS", stats);
    Status s = DistributedWarehouse::Load(dir_).status();
    return s.IsParseError() || s.IsIOError();
  };
  // Checked before the per-site vector is sized (2^64 - 1 would throw
  // std::length_error there).
  EXPECT_TRUE(load_fails_typed(stats_with(UINT64_MAX, 1)));
  EXPECT_TRUE(load_fails_typed(stats_with(2, 1)));
  EXPECT_TRUE(load_fails_typed(stats_with(3, 8)));   // retired histogram bit
  EXPECT_TRUE(load_fails_typed(stats_with(3, 16)));  // unknown bit
  EXPECT_TRUE(load_fails_typed(stats_with(3, 1) + '\0'));  // trailing byte

  // The same file without the defects loads.
  WriteFile("STATS", stats_with(3, 1));
  DistributedWarehouse empty = DistributedWarehouse::Load(dir_).ValueOrDie();
  EXPECT_EQ(empty.num_sites(), 3u);
  ASSERT_NE(empty.partition_info("t"), nullptr);
  EXPECT_TRUE(
      empty.partition_info("t")->GetDistribution(0, "c")->values.has_value());
}

}  // namespace
}  // namespace skalla

// skalla-dataset: generates the standard benchmark warehouse (the
// synthetic IP-flow and TPC-R style relations the tests and benches
// use) partitioned across N sites, and saves it so skalla-site
// processes can serve it.
//
//   skalla-dataset --out DIR [--sites 4] [--flows 4000] [--tpcr-rows 6000]
//                  [--seed 7] [--chunk-rows K]
//
// It writes the warehouse's one persisted layout (docs/STORAGE.md):
// per-site chunk files plus MANIFEST and STATS. The tpcr relation is
// generated *streamed*: rows flow from the generator straight into
// per-site chunk files (TpcrStream batches, routed by NationKey hash
// exactly like PartitionByValue) while distribution knowledge
// accumulates incrementally, so the paper-scale relation (6M tuples,
// --tpcr-rows 6000000) is never resident in this process. Sites then
// serve it through their buffer managers (skalla-site --buffer-bytes).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "data/flow_gen.h"
#include "data/tpcr_gen.h"
#include "dist/warehouse.h"
#include "storage/chunk_file.h"
#include "storage/partition.h"

namespace {

constexpr size_t kStreamBatchRows = 65536;

// Tracked columns follow AddTablePartitionedBy's order: the extra
// tracked columns, then the partition column last.
const std::vector<std::string> kFlowTracked = {
    "SourceAS", "DestAS",    "DestPort",  "SourcePort",
    "NumBytes", "NumPackets", "RouterId"};
const std::vector<std::string> kTpcrTracked = {
    "CustKey",  "CustName",      "Clerk",       "MktSegment",
    "OrderPriority", "Quantity", "ExtendedPrice", "NationKey"};

skalla::Status WriteDataset(const std::string& out_dir, size_t sites,
                                   size_t chunk_rows,
                                   const skalla::FlowConfig& flow_config,
                                   const skalla::TpcrConfig& tpcr_config) {
  std::map<std::string, skalla::PartitionInfo> stats;

  // flow is small at any configured scale: generate resident, partition
  // by router hash (PartitionByValue), chunk out each part.
  {
    skalla::Table flow = skalla::GenerateFlows(flow_config);
    auto parts = skalla::PartitionByValue(flow, "RouterId", sites);
    if (!parts.ok()) return parts.status();
    for (size_t i = 0; i < sites; ++i) {
      skalla::Status written = skalla::WriteChunkFile(
          (*parts)[i], skalla::PartitionChunkPath(out_dir, "flow", i),
          chunk_rows);
      if (!written.ok()) return written;
    }
    auto info =
        skalla::PartitionInfo::ComputeFromPartitions(*parts, kFlowTracked);
    if (!info.ok()) return info.status();
    stats["flow"] = std::move(*info);
  }

  // tpcr is the paper-scale relation: stream it. Each batch's rows are
  // routed by NationKey hash — Value::Hash % sites, exactly
  // PartitionByValue's placement — into that site's ChunkFileWriter,
  // and every tracked cell feeds the site's DistributionBuilder.
  {
    skalla::TpcrStream stream(tpcr_config);
    const skalla::SchemaPtr& schema = stream.schema();
    auto nation_col = schema->RequireIndex("NationKey");
    if (!nation_col.ok()) return nation_col.status();
    std::vector<size_t> tracked_cols;
    for (const std::string& name : kTpcrTracked) {
      auto idx = schema->RequireIndex(name);
      if (!idx.ok()) return idx.status();
      tracked_cols.push_back(*idx);
    }

    std::vector<std::unique_ptr<skalla::ChunkFileWriter>> writers;
    std::vector<std::vector<skalla::DistributionBuilder>> builders(sites);
    for (size_t i = 0; i < sites; ++i) {
      writers.push_back(std::make_unique<skalla::ChunkFileWriter>(
          skalla::PartitionChunkPath(out_dir, "tpcr", i), schema,
          chunk_rows));
      builders[i].resize(kTpcrTracked.size());
    }

    while (stream.rows_remaining() > 0) {
      skalla::Table batch = stream.NextBatch(kStreamBatchRows);
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        size_t site = batch.at(r, *nation_col).Hash() % sites;
        skalla::Status appended = writers[site]->Append(batch.row(r));
        if (!appended.ok()) return appended;
        for (size_t c = 0; c < tracked_cols.size(); ++c) {
          builders[site][c].Add(batch.at(r, tracked_cols[c]));
        }
      }
    }

    skalla::PartitionInfo info(sites);
    for (size_t i = 0; i < sites; ++i) {
      skalla::Status finished = writers[i]->Finish();
      if (!finished.ok()) return finished;
      for (size_t c = 0; c < kTpcrTracked.size(); ++c) {
        info.SetDistribution(i, kTpcrTracked[c], builders[i][c].Finish());
      }
    }
    stats["tpcr"] = std::move(info);
  }

  std::vector<skalla::WarehouseManifest::TableEntry> tables = {
      {"flow", kFlowTracked}, {"tpcr", kTpcrTracked}};
  return skalla::WriteChunkedWarehouseMeta(out_dir, sites, tables, stats);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir;
  size_t sites = 4;
  uint64_t seed = 0;
  bool seed_set = false;
  size_t chunk_rows = skalla::kDefaultChunkRows;
  skalla::FlowConfig flow_config;
  flow_config.num_flows = 4000;
  flow_config.num_routers = 5;
  flow_config.num_as = 30;
  skalla::TpcrConfig tpcr_config;
  tpcr_config.num_rows = 6000;
  tpcr_config.num_customers = 500;
  tpcr_config.num_clerks = 40;

  skalla::FlagSet flags;
  flags.String("--out", &out_dir, "output directory (created if missing)");
  flags.SizeT("--sites", &sites, "number of partitions");
  flags.Int64("--flows", &flow_config.num_flows, "flow relation rows");
  flags.Int64("--tpcr-rows", &tpcr_config.num_rows, "tpcr relation rows");
  flags.Int64("--tpcr-customers", &tpcr_config.num_customers,
              "distinct tpcr customers (paper full scale: 100000)");
  flags.Int64("--tpcr-clerks", &tpcr_config.num_clerks,
              "distinct tpcr clerks (paper full scale: 3000)");
  flags.SizeT("--chunk-rows", &chunk_rows, "rows per chunk");
  flags.Func("--seed",
             [&seed, &seed_set](const std::string& v) -> skalla::Status {
               seed = static_cast<uint64_t>(std::atoll(v.c_str()));
               seed_set = true;
               return skalla::Status::OK();
             },
             "generator seed");
  skalla::Status parsed = flags.Parse(&argc, argv);
  if (!parsed.ok() || out_dir.empty() || sites == 0) {
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    }
    std::fputs(flags.Usage(argv[0]).c_str(), stderr);
    return 2;
  }
  if (seed_set) {
    flow_config.seed = seed;
    tpcr_config.seed = seed + 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  skalla::Status written =
      WriteDataset(out_dir, sites, chunk_rows, flow_config, tpcr_config);
  if (!written.ok()) {
    std::fprintf(stderr, "save failed: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("saved %zu-site warehouse under %s\n", sites, out_dir.c_str());
  return 0;
}

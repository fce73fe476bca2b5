#include "dist/warehouse.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/macros.h"
#include "common/string_util.h"
#include "net/serde.h"
#include "relalg/operators.h"
#include "storage/chunk_file.h"
#include "storage/data_provider.h"

namespace skalla {

namespace {

// Most sites a MANIFEST may name. Loading sizes one catalog per site
// before it opens a file, so a larger count is a corrupt manifest, not a
// warehouse.
constexpr size_t kMaxWarehouseSites = 1 << 16;

// --- STATS file: serialized distribution knowledge ------------------------
//
// A saved warehouse persists its PartitionInfo map so that a lazy load
// plans identically to the resident warehouse it came from without
// scanning a single chunk. Binary layout (varint/WriteValue from
// net/serde.h):
//
//   "SKALLASTATS1"
//   varint num_tables
//   per table: string name, varint num_sites, varint num_columns,
//     per column: string name,
//       per site: flags u8 (1 = value set, 2 = min, 4 = max),
//         [varint count, count * WriteValue]  (value set)
//         [WriteValue]                        (min)   as FLOAT64
//         [WriteValue]                        (max)   as FLOAT64
//
// Every table's num_sites must equal the MANIFEST's, and nothing may
// follow the last table.

constexpr char kStatsMagic[] = "SKALLASTATS1";
constexpr size_t kStatsMagicLen = 12;
constexpr uint8_t kStatsValueSet = 1;
constexpr uint8_t kStatsMin = 2;
constexpr uint8_t kStatsMax = 4;

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutVarint(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

Result<std::string> ReadString(ByteReader* reader) {
  SKALLA_ASSIGN_OR_RETURN(uint64_t len, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(const uint8_t* bytes,
                          reader->ReadBytes(static_cast<size_t>(len)));
  return std::string(reinterpret_cast<const char*>(bytes),
                     static_cast<size_t>(len));
}

std::vector<uint8_t> EncodePartitionStats(
    const std::map<std::string, PartitionInfo>& infos) {
  std::vector<uint8_t> out(kStatsMagicLen);
  std::memcpy(out.data(), kStatsMagic, kStatsMagicLen);
  PutVarint(&out, infos.size());
  for (const auto& [table, info] : infos) {
    PutString(&out, table);
    PutVarint(&out, info.num_sites());
    std::vector<std::string> columns = info.TrackedColumns();
    PutVarint(&out, columns.size());
    for (const std::string& column : columns) {
      PutString(&out, column);
      for (size_t site = 0; site < info.num_sites(); ++site) {
        const ColumnDistribution* dist = info.GetDistribution(site, column);
        uint8_t flags = 0;
        if (dist != nullptr) {
          if (dist->values.has_value()) flags |= kStatsValueSet;
          if (dist->min.has_value()) flags |= kStatsMin;
          if (dist->max.has_value()) flags |= kStatsMax;
        }
        out.push_back(flags);
        if (dist == nullptr) continue;
        if (dist->values.has_value()) {
          PutVarint(&out, dist->values->size());
          dist->values->ForEach(
              [&out](const Value& v) { WriteValue(&out, v); });
        }
        if (dist->min.has_value()) WriteValue(&out, Value(*dist->min));
        if (dist->max.has_value()) WriteValue(&out, Value(*dist->max));
      }
    }
  }
  return out;
}

Result<std::map<std::string, PartitionInfo>> DecodePartitionStats(
    const std::vector<uint8_t>& bytes, size_t num_sites) {
  ByteReader reader(bytes.data(), bytes.size());
  SKALLA_ASSIGN_OR_RETURN(const uint8_t* magic,
                          reader.ReadBytes(kStatsMagicLen));
  if (std::memcmp(magic, kStatsMagic, kStatsMagicLen) != 0) {
    return Status::ParseError("bad STATS magic");
  }
  std::map<std::string, PartitionInfo> infos;
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_tables, reader.ReadVarint());
  for (uint64_t t = 0; t < num_tables; ++t) {
    SKALLA_ASSIGN_OR_RETURN(std::string table, ReadString(&reader));
    SKALLA_ASSIGN_OR_RETURN(uint64_t table_sites, reader.ReadVarint());
    if (table_sites != num_sites) {
      return Status::ParseError(
          StrCat("STATS table '", table, "' has ", table_sites,
                 " sites, manifest says ", num_sites));
    }
    PartitionInfo info(num_sites);
    SKALLA_ASSIGN_OR_RETURN(uint64_t num_columns, reader.ReadVarint());
    for (uint64_t c = 0; c < num_columns; ++c) {
      SKALLA_ASSIGN_OR_RETURN(std::string column, ReadString(&reader));
      for (size_t site = 0; site < num_sites; ++site) {
        SKALLA_ASSIGN_OR_RETURN(uint8_t flags, reader.ReadByte());
        if ((flags & ~(kStatsValueSet | kStatsMin | kStatsMax)) != 0) {
          return Status::ParseError(
              StrCat("bad STATS flags ", int{flags}, " for '", table, ".",
                     column, "'"));
        }
        ColumnDistribution dist;
        if (flags & kStatsValueSet) {
          SKALLA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
          ValueSet set;
          for (uint64_t i = 0; i < count; ++i) {
            SKALLA_ASSIGN_OR_RETURN(Value v, ReadValue(&reader));
            set.Insert(v);
          }
          dist.values = std::move(set);
        }
        if (flags & kStatsMin) {
          SKALLA_ASSIGN_OR_RETURN(Value v, ReadValue(&reader));
          dist.min = v.AsDouble();
        }
        if (flags & kStatsMax) {
          SKALLA_ASSIGN_OR_RETURN(Value v, ReadValue(&reader));
          dist.max = v.AsDouble();
        }
        if (flags != 0) info.SetDistribution(site, column, std::move(dist));
      }
    }
    infos[std::move(table)] = std::move(info);
  }
  if (reader.remaining() != 0) {
    return Status::ParseError("trailing bytes after STATS");
  }
  return infos;
}

Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError(StrCat("cannot write '", path, "'"));
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IOError(StrCat("failed writing '", path, "'"));
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError(StrCat("cannot read '", path, "'"));
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

}  // namespace

DistributedWarehouse::DistributedWarehouse(size_t num_sites,
                                           NetworkConfig net_config,
                                           ExecutorOptions exec_options)
    : num_sites_(num_sites == 0 ? 1 : num_sites),
      net_config_(net_config),
      exec_options_(exec_options),
      site_catalogs_(num_sites_) {}

Status DistributedWarehouse::AddPartitionedTable(
    const std::string& name, std::vector<Table> partitions,
    const std::vector<std::string>& tracked_columns) {
  if (partitions.size() != num_sites_) {
    return Status::InvalidArgument(
        StrCat("got ", partitions.size(), " partitions for ", num_sites_,
               " sites"));
  }
  if (!tracked_columns.empty()) {
    SKALLA_ASSIGN_OR_RETURN(
        PartitionInfo info,
        PartitionInfo::ComputeFromPartitions(partitions, tracked_columns));
    partition_info_[name] = std::move(info);
  }
  tracked_columns_[name] = tracked_columns;
  if (central_.Contains(name)) {
    // Replacing a registered table invalidates anything derived from the
    // old rows (serving-layer result caches key on this epoch).
    data_epoch_->fetch_add(1, std::memory_order_relaxed);
  }
  Table whole(partitions[0].schema());
  for (const Table& part : partitions) {
    SKALLA_ASSIGN_OR_RETURN(whole, UnionAll(whole, part));
  }
  central_.Register(name, std::move(whole));
  for (size_t i = 0; i < num_sites_; ++i) {
    site_catalogs_[i].Register(name, std::move(partitions[i]));
  }
  return Status::OK();
}

Status DistributedWarehouse::AddTablePartitionedBy(
    const std::string& name, const Table& table,
    const std::string& partition_column,
    std::vector<std::string> extra_tracked) {
  SKALLA_ASSIGN_OR_RETURN(
      std::vector<Table> partitions,
      PartitionByValue(table, partition_column, num_sites_));
  std::vector<std::string> tracked = std::move(extra_tracked);
  tracked.push_back(partition_column);
  return AddPartitionedTable(name, std::move(partitions), tracked);
}

Result<DistributedPlan> DistributedWarehouse::Plan(
    const GmdjExpr& expr, const OptimizerOptions& options) const {
  Egil optimizer(options, num_sites_);
  for (const auto& [table, info] : partition_info_) {
    optimizer.SetPartitionInfo(table, &info);
  }
  return optimizer.Optimize(expr);
}

Result<Table> DistributedWarehouse::Execute(const GmdjExpr& expr,
                                            const OptimizerOptions& options,
                                            ExecStats* stats) const {
  SKALLA_ASSIGN_OR_RETURN(DistributedPlan plan, Plan(expr, options));
  return ExecutePlan(plan, stats);
}

Result<Table> DistributedWarehouse::ExecutePlan(const DistributedPlan& plan,
                                                ExecStats* stats) const {
  return MakeExecutor(net_config_, exec_options_)->Execute(plan, stats);
}

std::unique_ptr<rpc::RpcExecutor> DistributedWarehouse::MakeExecutor(
    NetworkConfig net_config, ExecutorOptions exec_options) const {
  // Endpoint e hosts site id e: the primaries first, then replica r of
  // partition i at num_sites + (r-1)*num_sites + i.
  const size_t endpoints = num_sites_ * replication_;
  std::vector<Site> sites;
  sites.reserve(endpoints);
  for (size_t e = 0; e < endpoints; ++e) {
    sites.emplace_back(static_cast<int>(e), site_catalogs_[e % num_sites_]);
  }
  auto executor = std::make_unique<rpc::RpcExecutor>(
      std::make_unique<rpc::InProcessTransport>(std::move(sites), net_config),
      exec_options);
  for (size_t e = num_sites_; e < endpoints; ++e) {
    executor->AddReplica(e % num_sites_, e);
  }
  return executor;
}

Result<Table> DistributedWarehouse::ExecuteCentralized(
    const GmdjExpr& expr) const {
  return EvalCentralized(expr, central_);
}

const PartitionInfo* DistributedWarehouse::partition_info(
    const std::string& name) const {
  auto it = partition_info_.find(name);
  return it == partition_info_.end() ? nullptr : &it->second;
}

Status DistributedWarehouse::Save(const std::string& directory,
                                  size_t chunk_rows) const {
  std::vector<WarehouseManifest::TableEntry> tables;
  for (const std::string& name : central_.TableNames()) {
    for (size_t i = 0; i < num_sites_; ++i) {
      SKALLA_ASSIGN_OR_RETURN(const Table* part, site_catalogs_[i].Get(name));
      SKALLA_RETURN_NOT_OK(WriteChunkFile(
          *part, PartitionChunkPath(directory, name, i), chunk_rows));
    }
    auto tracked = tracked_columns_.find(name);
    tables.push_back(WarehouseManifest::TableEntry{
        name, tracked == tracked_columns_.end() ? std::vector<std::string>{}
                                                : tracked->second});
  }
  return WriteChunkedWarehouseMeta(directory, num_sites_, tables,
                                   partition_info_);
}

Status WriteChunkedWarehouseMeta(
    const std::string& directory, size_t num_sites,
    const std::vector<WarehouseManifest::TableEntry>& tables,
    const std::map<std::string, PartitionInfo>& stats) {
  std::string manifest = StrCat("skalla-warehouse 2 chunked\nsites ",
                                num_sites, "\n");
  for (const WarehouseManifest::TableEntry& entry : tables) {
    manifest += StrCat("table ", entry.name, " tracked ",
                       Join(entry.tracked, ","), "\n");
  }
  SKALLA_RETURN_NOT_OK(
      WriteFileBytes(directory + "/STATS", EncodePartitionStats(stats)));
  std::ofstream out(directory + "/MANIFEST", std::ios::binary);
  if (!out) {
    return Status::IOError(
        StrCat("cannot write manifest under '", directory, "'"));
  }
  out << manifest;
  if (!out) return Status::IOError("failed writing manifest");
  return Status::OK();
}

std::string PartitionChunkPath(const std::string& directory,
                               const std::string& name, size_t site_index) {
  return StrCat(directory, "/", name, ".part", site_index, ".skc");
}

Result<WarehouseManifest> ReadWarehouseManifest(
    const std::string& directory) {
  std::ifstream in(directory + "/MANIFEST", std::ios::binary);
  if (!in) {
    return Status::IOError(
        StrCat("no warehouse manifest under '", directory, "'"));
  }
  std::string line;
  std::getline(in, line);
  if (line == "skalla-warehouse 1") {
    return Status::IOError(StrCat(
        "'", directory, "' holds a version 1 warehouse (row files), which "
        "no longer loads; regenerate it as version 2 (chunk files) with "
        "skalla-dataset or DistributedWarehouse::Save"));
  }
  if (line != "skalla-warehouse 2 chunked") {
    return Status::IOError("unrecognized warehouse manifest header");
  }
  if (!std::getline(in, line) || line.rfind("sites ", 0) != 0) {
    return Status::IOError("manifest missing site count");
  }
  WarehouseManifest manifest;
  const char* first = line.data() + 6;
  const char* last = line.data() + line.size();
  auto [end, ec] = std::from_chars(first, last, manifest.num_sites);
  if (ec != std::errc() || end != last) {
    return Status::IOError(StrCat("bad manifest site count: ", line));
  }
  if (manifest.num_sites == 0 || manifest.num_sites > kMaxWarehouseSites) {
    return Status::IOError(StrCat("manifest site count ", manifest.num_sites,
                                  " is outside [1, ", kMaxWarehouseSites,
                                  "]"));
  }
  while (std::getline(in, line)) {
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    std::vector<std::string> fields = Split(std::string(stripped), ' ');
    if (fields.size() < 3 || fields[0] != "table" ||
        fields[2] != "tracked") {
      return Status::IOError(StrCat("bad manifest line: ", line));
    }
    WarehouseManifest::TableEntry entry;
    entry.name = fields[1];
    if (fields.size() >= 4 && !fields[3].empty()) {
      entry.tracked = Split(fields[3], ',');
    }
    manifest.tables.push_back(std::move(entry));
  }
  return manifest;
}

Result<Catalog> LoadSiteCatalog(const std::string& directory,
                                size_t site_index, uint64_t buffer_bytes) {
  SKALLA_ASSIGN_OR_RETURN(WarehouseManifest manifest,
                          ReadWarehouseManifest(directory));
  if (site_index >= manifest.num_sites) {
    return Status::InvalidArgument(
        StrCat("site ", site_index, " out of range: warehouse has ",
               manifest.num_sites, " sites"));
  }
  auto buffers = std::make_shared<BufferManager>(buffer_bytes);
  Catalog catalog;
  for (const WarehouseManifest::TableEntry& entry : manifest.tables) {
    SKALLA_ASSIGN_OR_RETURN(
        std::shared_ptr<ChunkFileDataProvider> provider,
        ChunkFileDataProvider::Open(
            PartitionChunkPath(directory, entry.name, site_index), buffers));
    catalog.RegisterProvider(entry.name, std::move(provider));
  }
  return catalog;
}

Result<DistributedWarehouse> DistributedWarehouse::Load(
    const std::string& directory, NetworkConfig net_config,
    ExecutorOptions exec_options, uint64_t buffer_bytes) {
  SKALLA_ASSIGN_OR_RETURN(WarehouseManifest manifest,
                          ReadWarehouseManifest(directory));
  SKALLA_ASSIGN_OR_RETURN(std::vector<uint8_t> stats_bytes,
                          ReadFileBytes(directory + "/STATS"));
  DistributedWarehouse dw(manifest.num_sites, net_config, exec_options);
  SKALLA_ASSIGN_OR_RETURN(dw.partition_info_,
                          DecodePartitionStats(stats_bytes,
                                               manifest.num_sites));
  dw.storage_dir_ = directory;
  dw.buffers_ = std::make_shared<BufferManager>(buffer_bytes);
  for (const WarehouseManifest::TableEntry& entry : manifest.tables) {
    SKALLA_RETURN_NOT_OK(dw.OpenChunkedTable(entry.name));
    dw.tracked_columns_[entry.name] = entry.tracked;
  }
  return dw;
}

Status DistributedWarehouse::OpenChunkedTable(const std::string& name) {
  std::vector<DataProviderPtr> parts;
  parts.reserve(num_sites_);
  for (size_t i = 0; i < num_sites_; ++i) {
    SKALLA_ASSIGN_OR_RETURN(
        std::shared_ptr<ChunkFileDataProvider> provider,
        ChunkFileDataProvider::Open(
            PartitionChunkPath(storage_dir_, name, i), buffers_));
    site_catalogs_[i].RegisterProvider(name, provider);
    parts.push_back(std::move(provider));
  }
  // Site order matches AddPartitionedTable's UnionAll order, so the
  // centralized reference evaluation stays byte-identical.
  central_.RegisterProvider(
      name, std::make_shared<ConcatDataProvider>(std::move(parts)));
  return Status::OK();
}

Status DistributedWarehouse::ReloadTable(const std::string& name) {
  if (storage_dir_.empty()) {
    return Status::FailedPrecondition(
        "ReloadTable requires a chunk-loaded warehouse");
  }
  if (!central_.Contains(name)) {
    return Status::NotFound(StrCat("no table '", name, "'"));
  }
  // Re-registering replaces the providers; the old ones' destructors
  // drop their stale chunks from the buffer pool. Executors built
  // earlier hold catalog copies and keep the old providers alive — the
  // epoch bump is what invalidates results cached against them.
  SKALLA_RETURN_NOT_OK(OpenChunkedTable(name));
  data_epoch_->fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace skalla

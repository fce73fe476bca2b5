// DistributedWarehouse: the top-level Skalla API. Owns the partitioned
// relations, the distribution knowledge, the optimizer, and the executor.
//
//   DistributedWarehouse dw(8);
//   dw.AddPartitionedTable("flow", std::move(partitions), {"SourceAS"});
//   ExecStats stats;
//   Table result = dw.Execute(expr, OptimizerOptions::All(), &stats)
//                      .ValueOrDie();

#ifndef SKALLA_DIST_WAREHOUSE_H_
#define SKALLA_DIST_WAREHOUSE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/gmdj.h"
#include "core/local_eval.h"
#include "dist/plan.h"
#include "net/network.h"
#include "opt/optimizer.h"
#include "rpc/rpc_executor.h"
#include "storage/buffer_manager.h"
#include "storage/partition.h"

namespace skalla {

/// Parsed MANIFEST of a warehouse directory. The one persisted layout
/// (version 2) is per-site chunk files read lazily through a
/// BufferManager, plus STATS (the serialized distribution knowledge).
struct WarehouseManifest {
  size_t num_sites = 0;
  struct TableEntry {
    std::string name;
    std::vector<std::string> tracked;
  };
  std::vector<TableEntry> tables;
};

/// Reads <directory>/MANIFEST. Only "skalla-warehouse 2 chunked" is
/// accepted; a version 1 (row file) manifest fails with an IOError that
/// names the version. The site count must be a plain decimal in
/// [1, 65536].
Result<WarehouseManifest> ReadWarehouseManifest(const std::string& directory);

/// Path of one site's chunk file for `name` under a warehouse
/// directory: <directory>/<name>.part<site>.skc.
std::string PartitionChunkPath(const std::string& directory,
                               const std::string& name, size_t site_index);

/// Writes the MANIFEST and STATS files of a warehouse directory whose
/// chunk files were produced externally — skalla-dataset streams
/// generated rows through ChunkFileWriter and then stamps the directory
/// loadable with this. `tables` lists each table's tracked columns;
/// `stats` the distribution knowledge to persist.
Status WriteChunkedWarehouseMeta(
    const std::string& directory, size_t num_sites,
    const std::vector<WarehouseManifest::TableEntry>& tables,
    const std::map<std::string, PartitionInfo>& stats);

/// Loads site `site_index`'s partition of every manifest table — what a
/// skalla-site process loads at startup. Unlike DistributedWarehouse::
/// Load it reads only that site's files, never the peers' partitions.
/// It registers paged providers (nothing resident until pinned) sharing
/// one BufferManager of `buffer_bytes` (0 = unlimited).
Result<Catalog> LoadSiteCatalog(const std::string& directory,
                                size_t site_index, uint64_t buffer_bytes = 0);

class DistributedWarehouse {
 public:
  explicit DistributedWarehouse(size_t num_sites,
                                NetworkConfig net_config = {},
                                ExecutorOptions exec_options = {});

  size_t num_sites() const { return num_sites_; }
  const NetworkConfig& net_config() const { return net_config_; }
  const ExecutorOptions& exec_options() const { return exec_options_; }

  /// Registers a fact relation given one partition per site. Distribution
  /// knowledge (exact per-site value sets and numeric ranges) is computed
  /// for `tracked_columns` and made available to the optimizer. The union
  /// of the partitions is kept for centralized reference evaluation.
  Status AddPartitionedTable(const std::string& name,
                             std::vector<Table> partitions,
                             const std::vector<std::string>& tracked_columns);

  /// Convenience: partitions `table` by value of `partition_column` and
  /// registers it, tracking the partition column plus `extra_tracked`.
  Status AddTablePartitionedBy(const std::string& name, const Table& table,
                               const std::string& partition_column,
                               std::vector<std::string> extra_tracked = {});

  /// Builds the optimized distributed plan for `expr`.
  Result<DistributedPlan> Plan(const GmdjExpr& expr,
                               const OptimizerOptions& options) const;

  /// Optimizes and executes `expr`; per-round cost accounting lands in
  /// `stats` when non-null.
  Result<Table> Execute(const GmdjExpr& expr,
                        const OptimizerOptions& options,
                        ExecStats* stats = nullptr) const;

  /// Executes an already-built plan.
  Result<Table> ExecutePlan(const DistributedPlan& plan,
                            ExecStats* stats = nullptr) const;

  /// Builds the executor over this warehouse's partitions: an
  /// rpc::RpcExecutor over an rpc::InProcessTransport that hosts one
  /// SiteService per site (replicas included per SetReplication) and
  /// models `net_config`. Site i is transport endpoint i, and each
  /// replica's endpoint is its site id. ExecutePlan builds one per call
  /// with the warehouse's own configuration; the serving layer builds
  /// one here and keeps it, so every query it admits shares one pool of
  /// sites — concurrent rounds queue on the per-site round locks.
  std::unique_ptr<rpc::RpcExecutor> MakeExecutor(
      NetworkConfig net_config, ExecutorOptions exec_options) const;

  /// Hosts every partition at `factor` sites (the primary plus
  /// factor - 1 replicas, each a full copy of the partition under its
  /// own site id). Replica site ids are num_sites + (r-1)*num_sites + i
  /// for replica r of partition i. Combined with
  /// ExecutorOptions::max_site_retries this lets ExecutePlan survive a
  /// permanent site loss with byte-identical results. Failover follows
  /// the rpc rules: only self-contained, synchronized rounds move to a
  /// replica, since a replica holds no structure a carried round left
  /// at its primary; see docs/FAULTS.md.
  void SetReplication(size_t factor) { replication_ = factor == 0 ? 1 : factor; }
  size_t replication() const { return replication_; }

  /// Centralized reference evaluation against the unioned relations (the
  /// semantics any plan must match).
  Result<Table> ExecuteCentralized(const GmdjExpr& expr) const;

  /// Distribution knowledge for a registered table; nullptr if untracked.
  const PartitionInfo* partition_info(const std::string& name) const;

  /// The centralized (union) catalog, for direct inspection.
  const Catalog& central_catalog() const { return central_; }

  /// Persists the warehouse under `directory`, which must exist:
  /// per-site chunk files (<name>.part<i>.skc, `chunk_rows` rows per
  /// chunk), a STATS file carrying the serialized distribution knowledge
  /// (so a load plans exactly like this warehouse without scanning any
  /// chunk), and the MANIFEST. Requires resident partitions (a loaded
  /// warehouse saves nothing new — its chunk files ARE the persistent
  /// form).
  Status Save(const std::string& directory,
              size_t chunk_rows = kDefaultChunkRows) const;

  /// Restores a warehouse written by Save (or skalla-dataset).
  /// Network/executor options are the caller's. Every table registers
  /// lazy chunk providers paged through one shared BufferManager of
  /// `buffer_bytes` (0 = unlimited); the distribution knowledge comes
  /// from STATS.
  static Result<DistributedWarehouse> Load(const std::string& directory,
                                           NetworkConfig net_config = {},
                                           ExecutorOptions exec_options = {},
                                           uint64_t buffer_bytes = 0);

  /// Monotonic data epoch: bumped whenever a registered table's data is
  /// replaced (AddPartitionedTable over an existing name, ReloadTable).
  /// Serving layers fold it into their cache epoch, so results computed
  /// against older data stop being served (QuerySession::Open wires
  /// this automatically).
  uint64_t data_epoch() const {
    return data_epoch_->load(std::memory_order_relaxed);
  }
  std::shared_ptr<const std::atomic<uint64_t>> data_epoch_handle() const {
    return data_epoch_;
  }

  /// Re-opens a chunk-backed table's providers from disk (picking up
  /// rewritten chunk files), drops the old chunks from the buffer pool,
  /// and bumps the data epoch. Only valid on a chunk-loaded warehouse.
  Status ReloadTable(const std::string& name);

  /// The shared BufferManager of a chunk-loaded warehouse; null when
  /// every relation is resident.
  const std::shared_ptr<BufferManager>& buffer_manager() const {
    return buffers_;
  }

 private:
  // Opens (or re-opens) every site's chunk file for `name` under
  // storage_dir_ and registers the providers site-wise plus concatenated
  // centrally.
  Status OpenChunkedTable(const std::string& name);

  size_t num_sites_;
  size_t replication_ = 1;
  NetworkConfig net_config_;
  ExecutorOptions exec_options_;
  std::vector<Catalog> site_catalogs_;
  Catalog central_;
  std::map<std::string, PartitionInfo> partition_info_;
  // Tracked columns per table, for Save/Load round trips.
  std::map<std::string, std::vector<std::string>> tracked_columns_;
  // Bumped on data replacement. shared_ptr: the warehouse is moved by
  // value, but epoch observers (sessions) must keep seeing bumps.
  std::shared_ptr<std::atomic<uint64_t>> data_epoch_ =
      std::make_shared<std::atomic<uint64_t>>(0);
  // Chunk-loaded state (empty/null for resident warehouses).
  std::string storage_dir_;
  std::shared_ptr<BufferManager> buffers_;
};

}  // namespace skalla

#endif  // SKALLA_DIST_WAREHOUSE_H_

// Coordinator: maintains the base-result structure X and synchronizes the
// sub-results H_i shipped by the sites, per Theorem 1:
//
//   X = MD(B, H_1 ⊔ … ⊔ H_n, l'', θ_K)
//
// specialised to a hash merge on the key attributes K — O(|H_i|) per
// arriving fragment, and incremental: fragments merge as they arrive.
//
// The merge structure is sharded by hash of the group-by key into
// `num_shards` independent (key map, working table) pairs. Arriving
// fragments are split once in a bucketing pass and merged shard-parallel
// on a ThreadPool; FinalizeRound computes super-aggregates shard-parallel
// too. Equal keys always hash to the same shard, so shards are
// key-disjoint and merging stays associative — results are bit-identical
// to the sequential (num_shards = 1) merge. Row order is preserved
// exactly as well: every inserted row remembers its position in the
// arrival stream, and concatenation restores that order.

#ifndef SKALLA_DIST_COORDINATOR_H_
#define SKALLA_DIST_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/gmdj.h"
#include "storage/table.h"

namespace skalla {

class Coordinator {
 public:
  /// `num_shards` (at least 1) splits the merge structures by key hash;
  /// 1 keeps the sequential merge. With num_shards > 1 the coordinator
  /// lazily creates a pool for the shard merges.
  explicit Coordinator(std::vector<std::string> key_columns,
                       size_t num_shards = 1)
      : key_columns_(std::move(key_columns)),
        num_shards_(num_shards == 0 ? 1 : num_shards) {}

  const std::vector<std::string>& key_columns() const { return key_columns_; }
  size_t num_shards() const { return num_shards_; }

  // --- Base-values round -------------------------------------------------

  /// Starts collecting the global base-values relation.
  Status InitBase(SchemaPtr base_schema);

  /// Distinct-unions a site's local base result into the sharded base
  /// structure.
  Status MergeBaseFragment(const Table& fragment);

  /// Ends the base round: concatenates the base shards (in arrival
  /// order) and installs the deduplicated union as X.
  Status FinalizeBase();

  // --- GMDJ round ---------------------------------------------------------

  /// Starts a synchronization round for `op`.
  ///
  /// `upstream_schema` is the schema of the base-result structure as the
  /// sites see it entering this stage (X's schema when the previous stage
  /// synchronized; the chain-derived schema otherwise). `detail_schema`
  /// types the sub-aggregate part columns.
  ///
  /// When `from_scratch` is false, the working structure is seeded with
  /// X's rows (every global group present, aggregates at their neutral
  /// values); fragments may only update existing groups. When true
  /// (Prop. 2 / Corollary 1 plans), the working structure starts empty and
  /// fragments insert groups as they arrive.
  Status BeginRound(const GmdjOp& op, const Schema& upstream_schema,
                    const Schema& detail_schema, bool from_scratch);

  /// Merges one site's partial result (schema: upstream columns followed
  /// by part columns) into the working structure, shard-parallel.
  Status MergeFragment(const Table& h);

  /// Computes super-aggregates' final values (shard-parallel) and
  /// installs the round result as the new X.
  Status FinalizeRound();

  /// The current base-result structure.
  const Table& result() const { return x_; }

  /// Replaces X (used when a plan starts from a precomputed structure).
  void SetResult(Table x) { x_ = std::move(x); }

 private:
  // One hash shard of the round's merge structure. `seq[r]` is the
  // position row r's key first appeared at in the arrival stream (or its
  // X row index for seeded rounds) — concatenating shards sorted by seq
  // reproduces the sequential merge's row order exactly.
  struct Shard {
    Table rows;
    std::vector<uint64_t> seq;
    // Key hash -> row ids in `rows` (chained for hash collisions).
    std::unordered_map<uint64_t, std::vector<uint32_t>> map;

    void Clear() {
      rows = Table();
      seq.clear();
      map.clear();
    }
  };

  // (row index in the arriving fragment, its key hash): the bucketing
  // pass computes each hash once; shard merges reuse it.
  using HashedRows = std::vector<std::pair<uint32_t, uint64_t>>;

  // Splits fragment rows across shards by hash. `hash_row` computes the
  // shard-selection (and map) hash for one row.
  std::vector<HashedRows> BucketRows(
      const Table& fragment,
      const std::function<uint64_t(const Row&)>& hash_row) const;

  // Runs fn(shard) for every shard — inline when there is one shard,
  // otherwise on the merge pool (created on first use).
  void RunSharded(const std::function<void(size_t)>& fn);

  // Returns the row id in shard s holding `key_row`'s key, or -1.
  int64_t LookupKeyInShard(const Shard& s, const Row& key_row,
                           uint64_t hash) const;

  // Merges one shard's slice of an arriving GMDJ fragment.
  Status MergeFragmentShard(size_t shard, const Table& h,
                            const HashedRows& rows, uint64_t base_seq);
  // Dedups one shard's slice of an arriving base fragment.
  void MergeBaseFragmentShard(size_t shard, const Table& fragment,
                              const HashedRows& rows, uint64_t base_seq);

  // Concatenates shard tables into one with `schema`, restoring arrival
  // order via the per-row sequence numbers.
  Table ConcatShards(std::vector<Shard>& shards, SchemaPtr schema);

  std::vector<std::string> key_columns_;
  size_t num_shards_;
  std::unique_ptr<ThreadPool> merge_pool_;  // Lazily created.

  Table x_;

  // Round state.
  bool in_round_ = false;
  bool from_scratch_ = false;
  GmdjOp round_op_;
  size_t upstream_width_ = 0;
  std::vector<SubAggregate> parts_;  // Flattened across blocks/aggs.
  std::vector<std::pair<size_t, size_t>> agg_part_ranges_;
  std::vector<const AggSpec*> agg_specs_;
  SchemaPtr working_schema_;
  std::vector<Shard> work_shards_;
  std::vector<size_t> key_indices_;  // Into working rows (== fragments).
  uint64_t merge_seq_ = 0;  // Rows merged so far this round (stream pos).

  // Base-round state.
  bool in_base_ = false;
  SchemaPtr base_schema_;
  std::vector<Shard> base_shards_;
  uint64_t base_seq_ = 0;
};

}  // namespace skalla

#endif  // SKALLA_DIST_COORDINATOR_H_

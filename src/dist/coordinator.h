// Coordinator: maintains the base-result structure X and synchronizes the
// sub-results H_i shipped by the sites, per Theorem 1:
//
//   X = MD(B, H_1 ⊔ … ⊔ H_n, l'', θ_K)
//
// specialised to a hash merge on the key attributes K — O(|H_i|) per
// arriving fragment, and incremental: fragments merge as they arrive.
//
// The merge structure is one working table plus a map from key hash to
// its rows. Rows keep arrival order: a seeded round keeps X's order, a
// from-scratch round the order in which keys first arrived.

#ifndef SKALLA_DIST_COORDINATOR_H_
#define SKALLA_DIST_COORDINATOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "common/result.h"
#include "core/gmdj.h"
#include "storage/table.h"

namespace skalla {

class Coordinator {
 public:
  explicit Coordinator(std::vector<std::string> key_columns)
      : key_columns_(std::move(key_columns)) {}

  const std::vector<std::string>& key_columns() const { return key_columns_; }

  // --- Base-values round -------------------------------------------------

  /// Starts collecting the global base-values relation.
  Status InitBase(SchemaPtr base_schema);

  /// Distinct-unions a site's local base result into the base structure.
  Status MergeBaseFragment(const Table& fragment);

  /// Ends the base round: installs the deduplicated union (in arrival
  /// order) as X.
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
  /// by part columns) into the working structure.
  Status MergeFragment(const Table& h);

  /// Computes super-aggregates' final values and installs the round
  /// result as the new X.
  Status FinalizeRound();

  /// The current base-result structure.
  const Table& result() const { return x_; }

  /// Replaces X (used when a plan starts from a precomputed structure).
  void SetResult(Table x) { x_ = std::move(x); }

 private:
  // Rows of one round's structure plus key hash -> row ids (chained for
  // hash collisions).
  struct Rows {
    Table rows;
    std::unordered_map<uint64_t, std::vector<uint32_t>> map;
  };

  // The row id in `s` whose key equals `key_row`'s, or -1.
  int64_t LookupKey(const Rows& s, const Row& key_row, uint64_t hash) const;

  std::vector<std::string> key_columns_;

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
  Rows work_;
  std::vector<size_t> key_indices_;  // Into working rows (== fragments).

  // Base-round state.
  bool in_base_ = false;
  SchemaPtr base_schema_;
  Rows base_;
};

}  // namespace skalla

#endif  // SKALLA_DIST_COORDINATOR_H_

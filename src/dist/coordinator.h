// Coordinator: maintains the base-result structure X and synchronizes the
// sub-results H_i shipped by the sites, per Theorem 1:
//
//   X = MD(B, H_1 ⊔ … ⊔ H_n, l'', θ_K)
//
// Fragments arrive as typed columns (a Chunk decoded straight off the
// wire by ReadTableColumns) and stay typed until X is boxed, once per
// round, into its Table. Fragments merge as they arrive, in site order and
// then row order:
//  - a from-scratch round groups on the key columns with KeyGroups, the
//    grouping the sites use; first arrival fixes a group's position and
//    its upstream cells. The synchronized base round is such a round over
//    an operator with no blocks (MD(B, R, ()) = B), keyed on all of B's
//    columns: the distinct union of the sites' B_i. So are Prop. 2 /
//    Corollary 1 plans' first synchronized rounds;
//  - a seeded round walks X in order. A site's fragment keeps X's row
//    order and may skip rows (reduction filters and the rng filter keep
//    order), so each fragment row belongs to the next X row whose upstream
//    cells are bitwise identical to its own — no hashing, and a NaN key
//    finds its row like any other.
// Each sub-aggregate part folds into per-group typed state with the
// AggPart kernels under its merge kind (SUM/MIN/MAX): distributive and
// algebraic aggregates super-aggregate from their partial states alone
// (Gray et al.). FinalizeRound computes the declared outputs column-wise
// with FinalizeAggregate's rules and boxes X.

#ifndef SKALLA_DIST_COORDINATOR_H_
#define SKALLA_DIST_COORDINATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "columnar/agg_kernels.h"
#include "common/result.h"
#include "core/gmdj.h"
#include "relalg/key_groups.h"
#include "storage/chunk.h"
#include "storage/table.h"

namespace skalla {

class Coordinator {
 public:
  explicit Coordinator(std::vector<std::string> key_columns)
      : key_columns_(std::move(key_columns)) {}

  const std::vector<std::string>& key_columns() const { return key_columns_; }

  /// Starts a synchronization round for `op`.
  ///
  /// `upstream_schema` is the schema of the base-result structure as the
  /// sites see it entering this stage (X's schema when the previous stage
  /// synchronized; the chain-derived schema otherwise). `detail_schema`
  /// types the sub-aggregate part columns.
  ///
  /// When `from_scratch` is false, every row of X is a group (aggregates
  /// at their neutral state) and fragments may only update them. When
  /// true (the base round, Prop. 2 / Corollary 1 plans), there are no
  /// groups yet and fragments create them as they arrive.
  Status BeginRound(const GmdjOp& op, const Schema& upstream_schema,
                    const Schema& detail_schema, bool from_scratch);

  /// Merges one site's partial result (upstream columns followed by part
  /// columns, typed as the round's working schema).
  Status MergeFragment(ChunkPtr h);

  /// Computes super-aggregates' final values and installs the round
  /// result as the new X.
  Status FinalizeRound();

  /// The current base-result structure.
  const Table& result() const { return x_; }

  /// Moves X out (the final result of a plan).
  Table TakeResult() { return std::move(x_); }

  /// Replaces X (used when a plan starts from a precomputed structure).
  void SetResult(Table x) { x_ = std::move(x); }

 private:
  // Checks a fragment's arity and column types against `schema`.
  Status CheckFragment(const Chunk& h, const Schema& schema) const;

  // Seeded rounds: row_slots_[r] = the X row fragment row r belongs to.
  Status WalkX(const Chunk& h);

  std::vector<std::string> key_columns_;

  Table x_;

  // Round state.
  bool in_round_ = false;
  bool from_scratch_ = false;
  size_t upstream_width_ = 0;
  SchemaPtr working_schema_;  // upstream columns, then the part columns
  std::vector<AggPart> parts_;  // flattened across blocks/aggs
  std::vector<AggSpec> agg_specs_;
  std::vector<size_t> agg_first_part_;  // per aggregate, into parts_
  size_t num_groups_ = 0;
  std::vector<uint32_t> row_slots_;  // per fragment row, its group
  // From-scratch rounds: the groups over the key columns, and — unless
  // the keys are the whole upstream row in order (`whole_key_`), so each
  // group's key is its upstream row — for each group the fragment and row
  // that created it.
  std::optional<KeyGroups> groups_;
  std::vector<size_t> key_indices_;
  bool whole_key_ = false;
  std::vector<ChunkPtr> fragments_;
  std::vector<std::pair<uint32_t, uint32_t>> origins_;
};

}  // namespace skalla

#endif  // SKALLA_DIST_COORDINATOR_H_

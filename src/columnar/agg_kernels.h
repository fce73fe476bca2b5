// Type-specialized aggregate accumulation for the columnar GMDJ engine.
//
// An AggPart is the columnar counterpart of one sub-aggregate's
// Accumulator column: unboxed per-slot state (counts / int sums / double
// sums / string extremes) plus function pointers selected once at plan
// stage, keyed on (aggregate kind, input column type, checked-slot
// flag). The kernels replicate agg/accumulator.h fold and merge
// semantics exactly — same null skipping, same INT64-stays-INT64 sums,
// same keep-earlier-on-ties extremes — over tables whose cell
// representations match their declared column types (the well-typed
// contract every columnar materialization enforces), so results are
// byte-identical to the row oracle.
//
// Three fold shapes cover the engine's evaluation paths:
//  - fold_dense: one tight pass over a column, row r folding into slot
//    row_group[r] (grouped evaluation);
//  - fold_dense_checked: same, skipping rows whose slot is kNoSlot
//    (rows removed by the predicate selection);
//  - fold_one: a single row into a given slot (per-base-row candidate
//    folds and nested-scan morsels).
// merge_slot combines a partial's slot into an accumulated one with
// Accumulator::MergeFrom semantics, enabling the morsel-partial merge
// discipline of the scan path (Theorem 1 composability).

#ifndef SKALLA_COLUMNAR_AGG_KERNELS_H_
#define SKALLA_COLUMNAR_AGG_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "columnar/column.h"
#include "common/result.h"
#include "types/schema.h"
#include "types/value.h"

namespace skalla {

/// Sentinel slot id for rows excluded by the predicate selection.
inline constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

struct AggPart {
  SubAggregate spec;
  int input_col = -1;  // Detail column; -1 for COUNT(*).
  ValueType input_type = ValueType::kNull;

  // Per-slot state; which vectors are populated depends on
  // (spec.kind, input_type) — see EnsureSlots.
  std::vector<int64_t> counts;
  std::vector<int64_t> ivals;
  std::vector<double> dvals;
  std::vector<std::string> svals;
  std::vector<uint8_t> any;

  using FoldDenseFn = void (*)(AggPart&, const Column*, const uint32_t*,
                               size_t);
  using FoldOneFn = void (*)(AggPart&, size_t, const Column*, size_t);
  using MergeSlotFn = void (*)(AggPart&, const AggPart&, size_t);

  FoldDenseFn fold_dense = nullptr;
  FoldDenseFn fold_dense_checked = nullptr;
  FoldOneFn fold_one = nullptr;
  MergeSlotFn merge_slot = nullptr;

  /// Number of slots currently allocated.
  size_t num_slots() const {
    switch (spec.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        return counts.size();
      default:
        return any.size();
    }
  }

  /// Boxes slot `slot` with Accumulator::Final semantics: COUNT over
  /// nothing is 0, SUM/MIN/MAX over nothing is NULL.
  Value Final(size_t slot) const;
};

/// Resolves the input column and selects the specialized kernels.
Result<AggPart> CompileAggPart(SubAggregate spec, const Schema& detail_schema);

/// Grows the part's slot vectors to `n`, zero-filling new slots.
void EnsureSlots(AggPart* part, size_t n);

/// Merges every slot of `src` (a morsel partial) into `dst`, in slot
/// order, with Accumulator::MergeFrom semantics. Both parts must be
/// compiled from the same spec; dst must have at least src's slots.
void MergeParts(AggPart* dst, const AggPart& src);

}  // namespace skalla

#endif  // SKALLA_COLUMNAR_AGG_KERNELS_H_

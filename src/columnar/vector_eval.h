// Vectorized GMDJ evaluation — the production kernel — for arbitrary
// conditions θ over a detail relation read through its DataProvider:
// chunk files paged through the BufferManager on a served site, or
// MemoryDataProvider's cached chunk views for a resident relation.
// Chunks stream in global row order (pin → select → fold → unpin).
//
// Each block's θ splits into equality atoms, detail-only conjuncts,
// correlated conjuncts, and base-only conjuncts (predicate_eval.h), and
// the block takes one of three paths:
//
//  - Grouped (equality atoms, no correlated conjuncts): detail-only
//    conjuncts become a per-chunk selection bitmap, surviving rows get
//    dense group ids via typed hashing, and one type-specialized kernel
//    per sub-aggregate (agg_kernels.h) folds the measure arrays; base
//    rows probe the group map at assembly.
//  - Candidates (equality atoms + correlated conjuncts): the group map
//    additionally records each group's selected detail rows; per base
//    row, the hoisted correlated comparisons filter the candidate list
//    and matching rows fold through single-row kernels.
//  - Scan (no equality atoms): the vectorized selection prefilters the
//    detail relation, then base × selected-detail pairs evaluate the
//    correlated conjuncts under the row oracle's exact morsel
//    decomposition and partial-merge order.
//
// Semantics are byte-identical to the row oracle (core/local_eval.h) for
// every θ (differential tests sweep randomized shapes): the typed kernels
// replicate Accumulator fold/merge math over well-typed tables, and the
// predicate split replicates per-conjunct NULL-as-false evaluation.
//
// Parallelism: within a block, base-row morsels (candidates), detail-row
// morsels (scan), and output assembly run under EvalContext::eval_threads;
// decomposition and merge order depend only on morsel_rows, so results
// are byte-identical at every thread count. Grouped folds are sequential.
//
// Group maps own boxed representative keys, so chunks may be evicted
// between build and probe; chunks whose persisted min/max stats prove no
// row can pass a comparison conjunct are skipped without pinning
// (EvalContext::chunk_pruning) — results stay byte-identical at any
// buffer budget, pruning on or off.

#ifndef SKALLA_COLUMNAR_VECTOR_EVAL_H_
#define SKALLA_COLUMNAR_VECTOR_EVAL_H_

#include "common/result.h"
#include "core/eval_context.h"
#include "core/gmdj.h"
#include "storage/data_provider.h"

namespace skalla {

/// Evaluates one GMDJ operator over `detail`'s chunks. Sub-aggregate
/// and __rng semantics match the row oracle's EvalGmdj exactly.
Result<Table> EvalGmdjColumnar(const Table& base, const DataProvider& detail,
                               const GmdjOp& op,
                               const EvalContext& context = {});

}  // namespace skalla

#endif  // SKALLA_COLUMNAR_VECTOR_EVAL_H_

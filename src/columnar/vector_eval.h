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
// A Prop. 2 plan's first round also evaluates the base query:
// EvalBaseAndGmdjColumnar computes B and the grouped blocks over it in
// one pass, sharing one KeyGroups (relalg/key_groups.h) whose groups are
// B's rows.
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
#include "relalg/operators.h"
#include "storage/data_provider.h"

namespace skalla {

/// Evaluates one GMDJ operator over `detail`'s chunks. Sub-aggregate
/// and __rng semantics match the row oracle's EvalGmdj exactly.
Result<Table> EvalGmdjColumnar(const Table& base, const DataProvider& detail,
                               const GmdjOp& op,
                               const EvalContext& context = {});

/// Whether EvalBaseAndGmdjColumnar evaluates `op` over `base`'s result:
/// `base` is a plain DISTINCT projection of op's detail relation (no
/// WHERE), and every block's θ is the equalities r.k = b.k over exactly
/// base's columns plus detail-only conjuncts — the grouped path with the
/// base key as its group key. An extra equality atom, a base-only or
/// correlated conjunct, or any other base query does not fuse.
bool FusesBaseQuery(const BaseQuery& base, const GmdjOp& op);

/// The fused Prop. 2 round: base's result B and `op` evaluated over it
/// in one pass over `detail`. Every row opens or finds its key's group
/// (so the groups are B, in first-occurrence order), and a row passing a
/// block's detail-only conjuncts folds into that block's parts. Key pages
/// are pinned for every chunk, a block's other pages only for chunks its
/// stats do not prune. Byte-identical to EvalGmdjColumnar(base.Execute(
/// detail), detail, op, context); InvalidArgument unless
/// FusesBaseQuery(base, op).
Result<Table> EvalBaseAndGmdjColumnar(const BaseQuery& base,
                                      const DataProvider& detail,
                                      const GmdjOp& op,
                                      const EvalContext& context = {});

}  // namespace skalla

#endif  // SKALLA_COLUMNAR_VECTOR_EVAL_H_

// The row oracle: a single-threaded, interpreted GMDJ evaluator over a
// resident relation, kept small so that it is obviously right. The
// production kernel is the columnar one (columnar/vector_eval.h); this
// evaluator is what the differential tests hold it to, byte for byte.
//
// It reads like the operator's definition: for each block (l_i, θ_i) and
// each base row b, the aggregates l_i fold over
// RNG(b, R, θ_i) = {r ∈ R | θ_i(b, r)} (Sect. 2.2). Two modes, picked by
// EvalContext::engine:
//  - indexed (any engine but kNestedLoop): θ splits into hash-joinable
//    equality atoms plus a residual [Akinde & Böhlen 2001]; the atoms
//    key a hash index over R, and each base row folds its candidates
//    that pass the residual, in ascending detail order. Blocks without
//    equality atoms take the nested loop.
//  - nested loop (kNestedLoop): every (b, r) pair evaluates θ. R folds
//    in morsels of morsel_rows whose partials merge in morsel order
//    (Theorem 1), the decomposition the columnar scan path shares.
//
// A chunk-paged detail relation (a DataProvider without a resident
// table) is materialized once per call through MaterializeProvider.
// Cancellation is checked before and after each block.

#ifndef SKALLA_CORE_LOCAL_EVAL_H_
#define SKALLA_CORE_LOCAL_EVAL_H_

#include "common/result.h"
#include "core/eval_context.h"
#include "core/gmdj.h"
#include "storage/catalog.h"
#include "storage/data_provider.h"
#include "storage/table.h"

namespace skalla {

/// Evaluates one GMDJ operator: one output row per base row, extended with
/// the block aggregates (finalized or partial per `context`).
Result<Table> EvalGmdj(const Table& base, const Table& detail,
                       const GmdjOp& op, const EvalContext& context = {});

/// Same, against any provider: its resident table when it has one, else
/// a materialized copy of the relation.
Result<Table> EvalGmdj(const Table& base, const DataProvider& detail,
                       const GmdjOp& op, const EvalContext& context = {});

/// The output schema every GMDJ kernel produces for `op` under `context`:
/// the base schema, then per block the finalized aggregates (or their
/// sub-aggregate parts), then the `__rng` column when requested.
Result<SchemaPtr> EvalOutputSchema(const GmdjOp& op, const Schema& base,
                                   const Schema& detail,
                                   const EvalContext& context);

/// Reference semantics of a whole GMDJ expression against a centralized
/// catalog: evaluates the base query, then each GMDJ in turn through the
/// row oracle with full aggregates (the sub_aggregates / compute_rng
/// fields of `context` are overridden — a reference evaluation always
/// finalizes). Works for both resident and chunk-backed catalog entries.
Result<Table> EvalCentralized(const GmdjExpr& expr, const Catalog& catalog,
                              const EvalContext& context = {});

}  // namespace skalla

#endif  // SKALLA_CORE_LOCAL_EVAL_H_

// core::EvaluateGmdj — the single entry point for GMDJ evaluation.
//
// Callers (sites, executors, tests) name the detail relation through a
// Catalog and pick an engine through EvalContext::engine; routing
// between the columnar kernel (columnar/vector_eval.h) and the row
// oracle (core/local_eval.h) lives here and nowhere else. All engines
// produce byte-identical results for every condition shape:
//
//  - kColumnar (default): the production kernel. It streams the
//    relation's chunks through the DataProvider — chunk-file pages on a
//    served site, MemoryDataProvider's cached chunk views for resident
//    relations.
//  - kRow: the row oracle's hash-indexed mode.
//  - kNestedLoop: the row oracle's naive nested-loop mode.
//
// The engine actually used is recorded in
// EvalContext::profile->engines_used (kEngineBitColumnar for kColumnar,
// kEngineBitRow for both oracle modes) for EXPLAIN ANALYZE and the
// per-site round profiles.

#ifndef SKALLA_CORE_EVALUATE_H_
#define SKALLA_CORE_EVALUATE_H_

#include "common/result.h"
#include "core/eval_context.h"
#include "core/gmdj.h"
#include "relalg/operators.h"
#include "storage/catalog.h"

namespace skalla {

/// Evaluates one GMDJ operator for the given base-values relation
/// against `catalog`'s detail partition with the engine
/// EvalContext::engine selects.
Result<Table> EvaluateGmdj(const Table& base, const GmdjOp& op,
                           const Catalog& catalog,
                           const EvalContext& context = {});

/// One Prop. 2 round in one request: `base`'s result B_i computed from
/// `catalog`'s partition, then `op` evaluated over it. Under kColumnar,
/// when FusesBaseQuery(base, op) holds (columnar/vector_eval.h), both run
/// as one pass over the detail relation and profile->fused_base is set.
/// Every other shape, and the row oracle, runs the base scan and then
/// EvaluateGmdj. The output is byte-identical either way;
/// profile->engines_used names the GMDJ kernel only.
Result<Table> EvaluateBaseAndGmdj(const BaseQuery& base, const GmdjOp& op,
                                  const Catalog& catalog,
                                  const EvalContext& context = {});

}  // namespace skalla

#endif  // SKALLA_CORE_EVALUATE_H_

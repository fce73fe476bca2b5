#include "core/evaluate.h"

#include <atomic>

#include "columnar/vector_eval.h"
#include "common/macros.h"
#include "core/local_eval.h"

namespace skalla {

namespace {

void RecordEngine(const EvalContext& context, uint8_t bit) {
  if (context.profile != nullptr) {
    context.profile->engines_used.fetch_or(bit, std::memory_order_relaxed);
  }
}

// Adds the base scan's data-plane counts to the round's profile. Its
// engine bit stays out: a round's engines name its GMDJ kernel, and the
// base scan is columnar under every engine.
void AddBaseScanCounts(const EvalProfile& scan, EvalProfile* profile) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  profile->rows_scanned.fetch_add(scan.rows_scanned.load(kRelaxed), kRelaxed);
  profile->chunks_pruned.fetch_add(scan.chunks_pruned.load(kRelaxed),
                                   kRelaxed);
  profile->pages_loaded.fetch_add(scan.pages_loaded.load(kRelaxed), kRelaxed);
  profile->bytes_loaded.fetch_add(scan.bytes_loaded.load(kRelaxed), kRelaxed);
}

}  // namespace

Result<Table> EvaluateGmdj(const Table& base, const GmdjOp& op,
                           const Catalog& catalog,
                           const EvalContext& context) {
  SKALLA_ASSIGN_OR_RETURN(const DataProvider* provider,
                          catalog.GetProvider(op.detail_table));
  switch (context.engine) {
    case EvalEngine::kColumnar:
      RecordEngine(context, kEngineBitColumnar);
      return EvalGmdjColumnar(base, *provider, op, context);
    case EvalEngine::kRow:
    case EvalEngine::kNestedLoop:
      RecordEngine(context, kEngineBitRow);
      return EvalGmdj(base, *provider, op, context);
  }
  return Status::InvalidArgument("unknown eval engine");
}

Result<Table> EvaluateBaseAndGmdj(const BaseQuery& base, const GmdjOp& op,
                                  const Catalog& catalog,
                                  const EvalContext& context) {
  if (context.engine == EvalEngine::kColumnar && FusesBaseQuery(base, op)) {
    SKALLA_ASSIGN_OR_RETURN(const DataProvider* provider,
                            catalog.GetProvider(op.detail_table));
    RecordEngine(context, kEngineBitColumnar);
    if (context.profile != nullptr) {
      context.profile->fused_base.store(1, std::memory_order_relaxed);
    }
    return EvalBaseAndGmdjColumnar(base, *provider, op, context);
  }
  EvalProfile scan_profile;
  EvalContext scan_context = context;
  scan_context.profile = &scan_profile;
  SKALLA_ASSIGN_OR_RETURN(Table b, base.Execute(catalog, scan_context));
  if (context.profile != nullptr) {
    AddBaseScanCounts(scan_profile, context.profile);
  }
  return EvaluateGmdj(b, op, catalog, context);
}

}  // namespace skalla

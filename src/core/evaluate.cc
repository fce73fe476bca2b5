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

}  // namespace skalla

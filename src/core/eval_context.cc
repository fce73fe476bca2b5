#include "core/eval_context.h"

#include <thread>

namespace skalla {

std::string_view EvalEngineName(EvalEngine engine) {
  switch (engine) {
    case EvalEngine::kColumnar:
      return "columnar";
    case EvalEngine::kRow:
      return "row";
    case EvalEngine::kNestedLoop:
      return "nested";
  }
  return "columnar";
}

std::string_view EngineSetToString(uint8_t engines_used) {
  const bool row = (engines_used & kEngineBitRow) != 0;
  const bool columnar = (engines_used & kEngineBitColumnar) != 0;
  if (row && columnar) return "row+columnar";
  if (row) return "row";
  if (columnar) return "columnar";
  return "-";
}

size_t ResolveEvalThreads(size_t configured) {
  if (configured != 0) return configured;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Status ValidateEvalContext(const EvalContext& context) {
  if (context.morsel_rows == 0) {
    return Status::InvalidArgument("EvalContext::morsel_rows must be > 0");
  }
  return Status::OK();
}

}  // namespace skalla

// Morsel scheduling for the columnar GMDJ kernel: the count of
// fixed-size morsels covering a row range, and a runner that dispatches
// morsels over an optional ThreadPool while wrapping each one in a
// site.eval.morsel span timed into skalla.site.morsel_us and
// EvalContext::profile->morsel_us.

#ifndef SKALLA_CORE_MORSELS_H_
#define SKALLA_CORE_MORSELS_H_

#include <cstddef>
#include <functional>

#include "common/thread_pool.h"
#include "core/eval_context.h"

namespace skalla {

/// Number of morsels covering `rows` rows at `morsel_rows` each (0 for an
/// empty range).
inline size_t MorselCount(size_t rows, size_t morsel_rows) {
  return rows == 0 ? 0 : (rows - 1) / morsel_rows + 1;
}

/// Dispatches fn(0), ..., fn(n - 1) over `pool` when given (inline
/// otherwise), wrapping each invocation in a site.eval.morsel span and
/// timing it into skalla.site.morsel_us and context.profile->morsel_us.
/// Worker threads re-establish the context's query-id scope and parent
/// their morsel spans under context.trace_parent_span, so off-thread
/// morsels stay attributable to the round that scheduled them.
void RunMorsels(ThreadPool* pool, size_t n, const EvalContext& context,
                const std::function<void(size_t)>& fn);

}  // namespace skalla

#endif  // SKALLA_CORE_MORSELS_H_

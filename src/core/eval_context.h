// EvalContext: the single options surface for GMDJ evaluation.
//
// One struct travels from the executor layer (ExecutorOptions) through
// Site::EvalGmdjRound into core::EvaluateGmdj, which hands it to the
// columnar kernel (columnar/vector_eval.h) or to the row oracle
// (core/local_eval.h). EvalContext::engine is the one kernel choice,
// the row oracle's nested-loop mode included (EvalEngine::kNestedLoop).
//
// Determinism contract (Theorem 1): per-thread sub-aggregate partials
// merge exactly like per-site ones, so intra-site parallelism cannot
// change query semantics. The kernels go further and guarantee
// *byte-identical* results at any eval_threads value: work decomposition
// (morsel boundaries, partial-merge order) is a pure function of
// morsel_rows, and eval_threads only decides which worker executes each
// morsel — never how results are combined.

#ifndef SKALLA_CORE_EVAL_CONTEXT_H_
#define SKALLA_CORE_EVAL_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "core/cancellation.h"

namespace skalla {

/// Which GMDJ kernel evaluates an operator. kColumnar (the default) is
/// the production kernel; kRow and kNestedLoop are the row oracle's
/// hash-indexed and naive nested-loop modes (core/local_eval.h). All
/// three produce byte-identical results.
enum class EvalEngine : uint8_t {
  kColumnar = 0,
  kRow = 1,
  kNestedLoop = 2,
};

/// "columnar", "row", or "nested".
std::string_view EvalEngineName(EvalEngine engine);

/// Bits of EvalProfile::engines_used / ExecStats::engines_used.
inline constexpr uint8_t kEngineBitRow = 1;
inline constexpr uint8_t kEngineBitColumnar = 2;

/// Renders an engines_used bit set: "row", "columnar", "row+columnar",
/// or "-" when no evaluation ran.
std::string_view EngineSetToString(uint8_t engines_used);

/// Data-plane counters one GMDJ evaluation accumulates, independent of
/// the SKALLA_TRACING build gate (the counts feed RoundProfile on the
/// wire, not just telemetry). Workers batch per-morsel counts locally
/// and fold them in with one relaxed fetch_add per morsel.
struct EvalProfile {
  /// Detail (or candidate) rows examined by theta evaluation.
  std::atomic<uint64_t> rows_scanned{0};
  /// (base row, detail row) pairs that satisfied a block's condition.
  std::atomic<uint64_t> rows_matched{0};
  /// Candidate rows produced by hash-index probes (indexed path only).
  std::atomic<uint64_t> index_hits{0};
  /// Summed per-morsel wall time; with eval_threads > 1 morsels overlap,
  /// so this exceeds the evaluation's wall time.
  std::atomic<uint64_t> morsel_us{0};
  /// Chunks skipped by min/max stat pruning (columnar kernel).
  std::atomic<uint64_t> chunks_pruned{0};
  /// Column pages the evaluation's pins loaded (buffer misses) and their
  /// estimated resident bytes. Zero over memory-backed relations.
  std::atomic<uint64_t> pages_loaded{0};
  std::atomic<uint64_t> bytes_loaded{0};
  /// kEngineBit* OR of the kernels that actually evaluated operators.
  std::atomic<uint8_t> engines_used{0};
  /// 1 when a base-and-GMDJ round ran as one fused pass, 0 when it ran
  /// the base scan and then the GMDJ kernel (core/evaluate.h).
  std::atomic<uint8_t> fused_base{0};
};

/// Default number of rows per morsel (scan and nested-loop detail
/// morsels, candidates-path base-row ranges). Large enough that small
/// tables fold as a single morsel.
inline constexpr size_t kDefaultMorselRows = 1024;

struct EvalContext {
  /// Produce decomposed sub-aggregate part columns (what a site ships)
  /// instead of finalized aggregates.
  bool sub_aggregates = false;

  /// Append the `__rng` indicator column: 1 if RNG(b, R, θ_1 ∨ … ∨ θ_m)
  /// is non-empty, else 0 (Prop. 1, distribution-independent group
  /// reduction).
  bool compute_rng = false;

  /// Which kernel evaluates the operator (routing in core/evaluate.h):
  /// the columnar kernel (default, streaming the relation's chunk views),
  /// the row oracle's indexed mode, or its nested-loop mode.
  EvalEngine engine = EvalEngine::kColumnar;

  /// Skip chunks whose persisted min/max ChunkColumnStats prove that a
  /// detail-side comparison atom of θ can match no row (columnar kernel
  /// only). Results are byte-identical with pruning on or off; the
  /// flag exists so tests can pin that.
  bool chunk_pruning = true;

  /// Worker threads for intra-site morsel-parallel evaluation in the
  /// columnar kernel (the row oracle is single-threaded).
  /// 1 (default) = evaluate on the calling thread; 0 = one worker per
  /// hardware thread. Results are byte-identical for every value.
  size_t eval_threads = 1;

  /// Rows per morsel. This — not eval_threads — is the knob that can
  /// perturb the last bits of FLOAT64 sums (chunked partial merges
  /// re-associate additions); it is fixed by default so results are
  /// reproducible run to run. Must be > 0.
  size_t morsel_rows = kDefaultMorselRows;

  /// Cooperative cancellation (core/cancellation.h); nullptr = never
  /// cancelled. Not owned. The columnar kernel polls it at morsel and
  /// chunk boundaries, the row oracle before and after each block; both
  /// return its latched status (typically kDeadlineExceeded), so a fired
  /// deadline stops in-flight columnar evaluation within one morsel's
  /// worth of work per thread.
  CancellationToken* cancellation = nullptr;

  /// The query this evaluation belongs to (0 = untagged). Worker threads
  /// re-establish the coordinator's query-id scope from this, so morsel
  /// spans and metrics recorded off-thread stay attributable.
  uint64_t query_id = 0;

  /// Span id to parent morsel spans under (0 = the worker's own span
  /// stack). Lets morsel spans recorded on pool threads nest under the
  /// site.eval span that scheduled them.
  uint64_t trace_parent_span = 0;

  /// Where the kernels accumulate data-plane counts; nullptr = skip.
  /// Not owned.
  EvalProfile* profile = nullptr;
};

/// Resolves eval_threads: 0 means one worker per hardware thread (at
/// least 1).
size_t ResolveEvalThreads(size_t configured);

/// Rejects malformed contexts (morsel_rows == 0) with InvalidArgument.
Status ValidateEvalContext(const EvalContext& context);

}  // namespace skalla

#endif  // SKALLA_CORE_EVAL_CONTEXT_H_

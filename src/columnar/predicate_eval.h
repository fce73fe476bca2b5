// Vectorized predicate evaluation for the columnar GMDJ engine.
//
// A GMDJ condition θ splits (expr/analysis.h ClassifyCondition) into
// equality atoms, detail-only conjuncts, correlated conjuncts, and
// base-only conjuncts. Since AND evaluates each conjunct independently
// (NULL-as-false per operand), the split is semantically identical to θ
// and each class can be evaluated where it is cheapest:
//
//  - detail-only conjuncts become a selection bitmap computed in typed
//    tight loops over the columns, most-selective conjunct first so
//    later conjuncts only touch surviving rows (short-circuit in batch
//    form). Comparisons against literals and IN-sets are specialized;
//    anything else falls back to a scratch-row EvalBool, still batched.
//  - base-only conjuncts evaluate once per base row.
//  - correlated conjuncts evaluate per candidate pair, with the
//    base-side value of a separable comparison hoisted out of the
//    detail loop (PrepareBaseRow) and the comparison unboxed whenever
//    the types allow.
//
// Range-shaped detail conjuncts additionally prune whole chunks via the
// persisted ChunkColumnStats min/max (ChunkCannotSatisfy): a chunk whose
// stats prove every row fails a conjunct is skipped without pinning.
// Stats are stored as doubles, so bounds are widened by one ulp before
// deciding — pruning never changes results, only skips provably-dead
// work.
//
// Everything here replicates expr.cc evaluation semantics exactly
// (comparisons with NULL are false, Value::Equals/Compare numeric
// coercion), so the selection equals row-by-row EvalBool of the same
// conjuncts — the byte-identity contract with the row oracle.

#ifndef SKALLA_COLUMNAR_PREDICATE_EVAL_H_
#define SKALLA_COLUMNAR_PREDICATE_EVAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/eval_context.h"
#include "expr/analysis.h"
#include "expr/expr.h"
#include "storage/chunk.h"
#include "storage/data_provider.h"
#include "storage/partition.h"
#include "types/row.h"
#include "types/schema.h"
#include "types/value_set.h"

namespace skalla {

/// One compiled detail-only conjunct. The kind picks the typed loop;
/// kGeneric evaluates the bound expression against a scratch row.
struct DetailConjunct {
  enum class Kind : uint8_t {
    kCmpInt = 0,     // INT64 column `op` int64 literal, exact.
    kCmpDouble = 1,  // numeric column `op` numeric literal, as doubles.
    kCmpString = 2,  // STRING column `op` string literal.
    kInSet = 3,      // column IN {…}.
    kGeneric = 4,    // anything else: scratch-row EvalBool.
  };

  Kind kind = Kind::kGeneric;
  int col = -1;     // Detail column index (typed kinds and kInSet).
  BinaryOp op = BinaryOp::kEq;
  int64_t ilit = 0;
  double dlit = 0.0;
  std::string slit;
  std::shared_ptr<const ValueSet> set;

  /// Bound against (nullptr, detail schema); always set.
  ExprPtr bound;
  /// Detail columns the bound expression reads (deduped) — the scratch
  /// cells kGeneric fills per row.
  std::vector<size_t> ref_cols;

  /// Estimated accept fraction; evaluation order key.
  double selectivity = 1.0;
  /// Whether ChunkCannotSatisfy can use this conjunct (numeric
  /// comparison other than <>).
  bool prunable = false;
};

/// One compiled correlated conjunct. When the comparison separates as
/// `base_expr op r.col` the base side is evaluated once per base row
/// (PrepareBaseRow) and the detail loop compares unboxed; otherwise the
/// full bound expression evaluates per pair.
struct CorrelatedConjunct {
  /// Bound against (base schema, detail schema); always set.
  ExprPtr bound;
  std::vector<size_t> ref_cols;  // Detail columns for the scratch row.

  bool separable = false;
  ExprPtr base_expr;  // Bound against (base schema, nullptr).
  BinaryOp op = BinaryOp::kEq;
  int detail_col = -1;
  ValueType detail_type = ValueType::kNull;
};

/// The predicate part of one compiled GMDJ block: everything but the
/// equality atoms, ready to evaluate.
struct CompiledPredicate {
  /// Selectivity-ascending (stable: ties keep textual order).
  std::vector<DetailConjunct> detail;
  std::vector<CorrelatedConjunct> correlated;
  /// Bound against (base schema, nullptr).
  std::vector<ExprPtr> base_only;
  size_t detail_width = 0;  // Scratch-row size.

  bool has_detail() const { return !detail.empty(); }
  bool has_prunable() const;
};

/// Compiles the non-equi classes of one block. `col_range` supplies
/// detail-column [min, max] knowledge for selectivity ordering (may be
/// nullptr — heuristic defaults apply).
Result<CompiledPredicate> CompilePredicate(
    const ConjunctClasses& classes, const Schema& base_schema,
    const Schema& detail_schema,
    const std::function<std::optional<Interval>(const std::string&)>&
        col_range);

/// Adapts one site's PartitionInfo column knowledge into the col_range
/// callback CompilePredicate orders conjuncts with: a column maps to its
/// ColumnDistribution's [min, max] when both bounds are known. The
/// returned callback references `info`; the caller keeps it alive.
std::function<std::optional<Interval>(const std::string&)>
ColRangeFromPartition(const PartitionInfo& info, size_t site);

/// The same callback over a provider's persisted chunk stats: a column
/// maps to the union of its chunks' [min, max], or nullopt when any
/// chunk lacks stats. Results are cached per column; the callback
/// references `provider`, which the caller keeps alive.
std::function<std::optional<Interval>(const std::string&)>
ColRangeFromProvider(const DataProvider& provider);

/// Evaluates the detail-only conjuncts over `chunk` into `sel` (resized
/// to chunk.num_rows(); 1 = row passes every conjunct). Equivalent to
/// EvalBool of their conjunction on each row.
void EvalDetailSelection(const CompiledPredicate& pred,
                         const Chunk& chunk, std::vector<uint8_t>* sel);

/// Whether `stats` prove no row of a chunk can satisfy `c`. Only
/// meaningful for prunable conjuncts; conservative under the doubled
/// min/max (bounds widened one ulp before deciding).
bool ChunkCannotSatisfy(const DetailConjunct& c, const ChunkColumnStats& stats);

/// Whether chunk `ci` of `provider` can be skipped without pinning:
/// pruning is on (EvalContext::chunk_pruning) and the chunk's persisted
/// stats prove some prunable conjunct of `pred` false on every row.
/// Never consults chunk payloads.
bool ShouldPruneChunk(const CompiledPredicate& pred,
                      const DataProvider& provider, size_t ci,
                      const EvalContext& context);

/// Counts one pruned chunk in context.profile and in the
/// skalla.storage.chunks_pruned counter.
void RecordPrunedChunk(const EvalContext& context);

/// Pins the pages of `columns` of chunk `ci` (DataProvider::Pin) and adds
/// the pages the pin loaded to context.profile.
Result<PinnedChunk> PinChunk(const DataProvider& provider, size_t ci,
                             const std::vector<size_t>& columns,
                             const EvalContext& context);

/// The detail columns the compiled predicate reads: its detail
/// conjuncts' columns (kGeneric ref_cols included) and its correlated
/// conjuncts' detail_col / ref_cols, added to `out` (ascending, deduped).
void AddPredicateReadSet(const CompiledPredicate& pred,
                         std::vector<size_t>* out);

/// Per-base-row predicate state: the base-only gate plus each correlated
/// conjunct's hoisted base side.
struct BasePredState {
  bool pass = true;  // All base-only conjuncts hold for this base row.

  struct Prep {
    enum class Mode : uint8_t {
      kFalse = 0,    // Base side is NULL — comparison fails every row.
      kInt = 1,      // int64 base value vs INT64 column, exact.
      kDouble = 2,   // numeric vs numeric, as doubles.
      kString = 3,   // string vs STRING column.
      kBoxed = 4,    // Separable but type-mixed: boxed compare.
      kGeneric = 5,  // Not separable: full EvalBool per pair.
    };
    Mode mode = Mode::kGeneric;
    int64_t i = 0;
    double d = 0.0;
    std::string s;
    Value boxed;
  };
  std::vector<Prep> preps;  // One per pred.correlated, in order.
};

/// Evaluates the base-only conjuncts and hoists each correlated
/// conjunct's base side for `base_row`.
BasePredState PrepareBaseRow(const CompiledPredicate& pred,
                             const Row& base_row);

/// Whether detail row `r` of `chunk` satisfies every correlated conjunct
/// against the prepared base row. `scratch` must be a row of
/// pred.detail_width cells (reused across calls). The base-only gate
/// (state.pass) is the caller's job.
bool MatchDetailRow(const CompiledPredicate& pred, const BasePredState& state,
                    const Row& base_row, const Chunk& chunk, size_t r,
                    Row* scratch);

}  // namespace skalla

#endif  // SKALLA_COLUMNAR_PREDICATE_EVAL_H_

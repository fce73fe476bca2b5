#include "core/local_eval.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "agg/accumulator.h"
#include "common/macros.h"
#include "expr/analysis.h"
#include "storage/hash_index.h"

namespace skalla {

namespace {

// One block's decomposed parts, their detail input columns, and the
// accumulator matrix (|B| rows x |parts|).
struct BlockState {
  std::vector<SubAggregate> parts;
  // Ranges into `parts` per AggSpec, for finalization.
  std::vector<std::pair<size_t, size_t>> agg_part_ranges;  // (start, len)
  std::vector<int> part_input_idx;  // Detail column per part; -1 for COUNT(*).
  std::vector<Accumulator> acc;     // base_rows * parts.size().
};

std::vector<Accumulator> NewAccumulators(const BlockState& state,
                                         size_t num_base) {
  std::vector<Accumulator> acc;
  acc.reserve(num_base * state.parts.size());
  for (size_t b = 0; b < num_base; ++b) {
    for (const SubAggregate& part : state.parts) acc.emplace_back(part.kind);
  }
  return acc;
}

Status InitBlockState(const GmdjBlock& block, const Schema& detail,
                      size_t num_base, BlockState* state) {
  for (const AggSpec& spec : block.aggs) {
    std::vector<SubAggregate> parts = Decompose(spec);
    state->agg_part_ranges.emplace_back(state->parts.size(), parts.size());
    for (SubAggregate& part : parts) {
      int input_idx = -1;
      if (!part.input.empty()) {
        SKALLA_ASSIGN_OR_RETURN(size_t idx, detail.RequireIndex(part.input));
        input_idx = static_cast<int>(idx);
      }
      state->part_input_idx.push_back(input_idx);
      state->parts.push_back(std::move(part));
    }
  }
  state->acc = NewAccumulators(*state, num_base);
  return Status::OK();
}

// Folds detail row `detail_row` into one base row's accumulator slice.
void UpdateRow(const BlockState& state, Accumulator* row_acc,
               const Row& detail_row) {
  static const Value kDummy;
  for (size_t p = 0; p < state.parts.size(); ++p) {
    const int idx = state.part_input_idx[p];
    row_acc[p].Update(idx < 0 ? kDummy : detail_row[static_cast<size_t>(idx)]);
  }
}

// Indexed mode: θ's equality atoms key a hash index over the detail
// relation; each base row folds its candidates that pass the residual,
// in ascending detail order.
Status EvalIndexedBlock(const Table& base, const Table& detail,
                        const ConditionAnalysis& analysis,
                        const EvalContext& context, BlockState* state,
                        std::vector<uint8_t>* matched) {
  const Schema& base_schema = *base.schema();
  const Schema& detail_schema = *detail.schema();
  std::vector<size_t> base_cols, detail_cols;
  for (const EquiAtom& atom : analysis.equi_atoms) {
    SKALLA_ASSIGN_OR_RETURN(size_t b_idx,
                            base_schema.RequireIndex(atom.base_col));
    SKALLA_ASSIGN_OR_RETURN(size_t d_idx,
                            detail_schema.RequireIndex(atom.detail_col));
    base_cols.push_back(b_idx);
    detail_cols.push_back(d_idx);
  }
  ExprPtr residual;
  if (analysis.residual != nullptr) {
    SKALLA_ASSIGN_OR_RETURN(
        residual, analysis.residual->Bind(&base_schema, &detail_schema));
  }
  const HashIndex index = HashIndex::Build(detail, std::move(detail_cols));
  const size_t n = state->parts.size();
  uint64_t hits = 0, matched_pairs = 0;
  for (size_t b = 0; b < base.num_rows(); ++b) {
    const Row& base_row = base.row(b);
    const std::vector<uint32_t>* candidates = index.Lookup(base_row, base_cols);
    if (candidates == nullptr) continue;
    hits += candidates->size();
    for (uint32_t r : *candidates) {
      const Row& detail_row = detail.row(r);
      if (residual != nullptr && !residual->EvalBool(&base_row, &detail_row)) {
        continue;
      }
      (*matched)[b] = 1;
      ++matched_pairs;
      UpdateRow(*state, state->acc.data() + b * n, detail_row);
    }
  }
  if (context.profile != nullptr) {
    context.profile->index_hits.fetch_add(hits, std::memory_order_relaxed);
    context.profile->rows_scanned.fetch_add(hits, std::memory_order_relaxed);
    context.profile->rows_matched.fetch_add(matched_pairs,
                                            std::memory_order_relaxed);
  }
  return Status::OK();
}

// Nested-loop mode: every (base row, detail row) pair evaluates the full
// θ. The detail relation folds in morsels of morsel_rows, each into a
// fresh partial that merges into the block state in morsel order — the
// Theorem 1 sub-aggregate merge, and exactly the decomposition the
// columnar scan path uses, so FLOAT64 sums agree with it bit for bit.
Status EvalNestedLoopBlock(const Table& base, const Table& detail,
                           const GmdjBlock& block,
                           const EvalContext& context, BlockState* state,
                           std::vector<uint8_t>* matched) {
  SKALLA_ASSIGN_OR_RETURN(
      ExprPtr theta, block.theta->Bind(base.schema().get(),
                                       detail.schema().get()));
  const size_t num_base = base.num_rows();
  const size_t num_detail = detail.num_rows();
  const size_t n = state->parts.size();
  uint64_t matched_pairs = 0;
  for (size_t lo = 0; lo < num_detail; lo += context.morsel_rows) {
    const size_t hi = std::min(lo + context.morsel_rows, num_detail);
    std::vector<Accumulator> partial = NewAccumulators(*state, num_base);
    for (size_t b = 0; b < num_base; ++b) {
      const Row& base_row = base.row(b);
      for (size_t r = lo; r < hi; ++r) {
        const Row& detail_row = detail.row(r);
        if (!theta->EvalBool(&base_row, &detail_row)) continue;
        (*matched)[b] = 1;
        ++matched_pairs;
        UpdateRow(*state, partial.data() + b * n, detail_row);
      }
    }
    for (size_t i = 0; i < partial.size(); ++i) {
      state->acc[i].MergeFrom(partial[i]);
    }
  }
  if (context.profile != nullptr) {
    context.profile->rows_scanned.fetch_add(
        static_cast<uint64_t>(num_base) * num_detail,
        std::memory_order_relaxed);
    context.profile->rows_matched.fetch_add(matched_pairs,
                                            std::memory_order_relaxed);
  }
  return Status::OK();
}

// One output row per base row: the base columns, then each block's
// finalized aggregates (or raw parts), then the optional __rng flag.
Table AssembleOutput(const Table& base, const GmdjOp& op,
                     const EvalContext& context, const SchemaPtr& out_schema,
                     const std::vector<BlockState>& states,
                     const std::vector<uint8_t>& matched) {
  Table out(out_schema);
  out.Reserve(base.num_rows());
  for (size_t b = 0; b < base.num_rows(); ++b) {
    Row row = base.row(b);
    row.reserve(out_schema->num_fields());
    for (size_t bi = 0; bi < op.blocks.size(); ++bi) {
      const BlockState& state = states[bi];
      const Accumulator* row_acc = state.acc.data() + b * state.parts.size();
      if (context.sub_aggregates) {
        for (size_t p = 0; p < state.parts.size(); ++p) {
          row.push_back(row_acc[p].Final());
        }
        continue;
      }
      for (size_t ai = 0; ai < op.blocks[bi].aggs.size(); ++ai) {
        auto [start, len] = state.agg_part_ranges[ai];
        std::vector<Value> parts;
        parts.reserve(len);
        for (size_t p = 0; p < len; ++p) {
          parts.push_back(row_acc[start + p].Final());
        }
        row.push_back(FinalizeAggregate(op.blocks[bi].aggs[ai], parts));
      }
    }
    if (context.compute_rng) {
      row.push_back(Value(int64_t{matched[b] ? 1 : 0}));
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

}  // namespace

Result<SchemaPtr> EvalOutputSchema(const GmdjOp& op, const Schema& base,
                                   const Schema& detail,
                                   const EvalContext& context) {
  if (context.sub_aggregates) {
    return op.PartialSchema(base, detail, context.compute_rng);
  }
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr out, op.OutputSchema(base, detail));
  if (!context.compute_rng) return out;
  return out->AddField(Field{kRngCountColumn, ValueType::kInt64});
}

Result<Table> EvalGmdj(const Table& base, const Table& detail,
                       const GmdjOp& op, const EvalContext& context) {
  SKALLA_RETURN_NOT_OK(ValidateEvalContext(context));
  SKALLA_ASSIGN_OR_RETURN(
      SchemaPtr out_schema,
      EvalOutputSchema(op, *base.schema(), *detail.schema(), context));
  // matched[b] = 1 iff RNG(b, R, θ_1 ∨ … ∨ θ_m) is non-empty.
  std::vector<uint8_t> matched(base.num_rows(), 0);
  std::vector<BlockState> states(op.blocks.size());
  for (size_t bi = 0; bi < op.blocks.size(); ++bi) {
    if (context.cancellation != nullptr) {
      SKALLA_RETURN_NOT_OK(context.cancellation->Check());
    }
    const GmdjBlock& block = op.blocks[bi];
    if (block.theta == nullptr) {
      return Status::InvalidArgument("GMDJ block has no condition");
    }
    SKALLA_RETURN_NOT_OK(InitBlockState(block, *detail.schema(),
                                        base.num_rows(), &states[bi]));
    ConditionAnalysis analysis = AnalyzeCondition(block.theta);
    if (context.engine != EvalEngine::kNestedLoop &&
        !analysis.equi_atoms.empty()) {
      SKALLA_RETURN_NOT_OK(EvalIndexedBlock(base, detail, analysis, context,
                                            &states[bi], &matched));
    } else {
      SKALLA_RETURN_NOT_OK(EvalNestedLoopBlock(base, detail, block, context,
                                               &states[bi], &matched));
    }
  }
  if (context.cancellation != nullptr) {
    SKALLA_RETURN_NOT_OK(context.cancellation->Check());
  }
  return AssembleOutput(base, op, context, out_schema, states, matched);
}

Result<Table> EvalGmdj(const Table& base, const DataProvider& detail,
                       const GmdjOp& op, const EvalContext& context) {
  if (const Table* resident = detail.ResidentTable(); resident != nullptr) {
    return EvalGmdj(base, *resident, op, context);
  }
  if (context.cancellation != nullptr) {
    SKALLA_RETURN_NOT_OK(context.cancellation->Check());
  }
  PageLoads loads;
  SKALLA_ASSIGN_OR_RETURN(Table materialized,
                          MaterializeProvider(detail, &loads));
  if (context.profile != nullptr) {
    context.profile->pages_loaded.fetch_add(loads.pages,
                                            std::memory_order_relaxed);
    context.profile->bytes_loaded.fetch_add(loads.bytes,
                                            std::memory_order_relaxed);
  }
  return EvalGmdj(base, materialized, op, context);
}

Result<Table> EvalCentralized(const GmdjExpr& expr, const Catalog& catalog,
                              const EvalContext& context) {
  SKALLA_ASSIGN_OR_RETURN(Table current, expr.base.Execute(catalog));
  // A reference evaluation always finalizes: partial output or the __rng
  // indicator only make sense site-side.
  EvalContext local = context;
  local.sub_aggregates = false;
  local.compute_rng = false;
  for (const GmdjOp& op : expr.ops) {
    SKALLA_ASSIGN_OR_RETURN(const DataProvider* detail,
                            catalog.GetProvider(op.detail_table));
    SKALLA_ASSIGN_OR_RETURN(current, EvalGmdj(current, *detail, op, local));
  }
  return current;
}

}  // namespace skalla

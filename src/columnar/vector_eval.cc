#include "columnar/vector_eval.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "columnar/agg_kernels.h"
#include "columnar/predicate_eval.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/local_eval.h"
#include "core/morsels.h"
#include "expr/analysis.h"
#include "relalg/key_groups.h"
#include "types/row.h"

namespace skalla {

namespace {

// --- Compilation -----------------------------------------------------------

// One block compiled against fixed base/detail schemas: equality-atom
// column pairings, the compiled predicate, and the type-specialized
// aggregate parts.
struct CompiledBlock {
  std::vector<size_t> base_cols;
  std::vector<size_t> detail_cols;
  bool has_equi = false;
  CompiledPredicate pred;
  std::vector<AggPart> parts;
  std::vector<std::pair<size_t, size_t>> agg_part_ranges;
  // Detail columns the block reads (equality keys, predicate columns,
  // aggregate inputs), ascending: the read set every pin names.
  std::vector<size_t> read_cols;
};

enum class BlockPath : uint8_t {
  kGrouped = 0,     // equality atoms, no correlated conjuncts
  kCandidates = 1,  // equality atoms + correlated conjuncts
  kScan = 2,        // no equality atoms
};

BlockPath PathOf(const CompiledBlock& block) {
  if (!block.has_equi) return BlockPath::kScan;
  return block.pred.correlated.empty() ? BlockPath::kGrouped
                                       : BlockPath::kCandidates;
}

Status CompileBlock(
    const GmdjBlock& block, const Schema& base_schema,
    const Schema& detail_schema,
    const std::function<std::optional<Interval>(const std::string&)>&
        col_range,
    CompiledBlock* exec) {
  if (block.theta == nullptr) {
    return Status::InvalidArgument("GMDJ block has no condition");
  }
  ConjunctClasses classes = ClassifyCondition(block.theta);
  for (const EquiAtom& atom : classes.equi_atoms) {
    SKALLA_ASSIGN_OR_RETURN(size_t b_idx,
                            base_schema.RequireIndex(atom.base_col));
    SKALLA_ASSIGN_OR_RETURN(size_t d_idx,
                            detail_schema.RequireIndex(atom.detail_col));
    exec->base_cols.push_back(b_idx);
    exec->detail_cols.push_back(d_idx);
  }
  exec->has_equi = !exec->base_cols.empty();
  SKALLA_ASSIGN_OR_RETURN(
      exec->pred,
      CompilePredicate(classes, base_schema, detail_schema, col_range));
  std::vector<size_t>& reads = exec->read_cols;
  reads = exec->detail_cols;
  for (const AggSpec& spec : block.aggs) {
    std::vector<SubAggregate> decomposed = Decompose(spec);
    exec->agg_part_ranges.emplace_back(exec->parts.size(), decomposed.size());
    for (SubAggregate& sub : decomposed) {
      SKALLA_ASSIGN_OR_RETURN(AggPart part,
                              CompileAggPart(std::move(sub), detail_schema));
      if (part.input_col >= 0) {
        reads.push_back(static_cast<size_t>(part.input_col));
      }
      exec->parts.push_back(std::move(part));
    }
  }
  AddPredicateReadSet(exec->pred, &reads);  // sorts and dedupes
  return Status::OK();
}

// --- Grouping --------------------------------------------------------------

static_assert(KeyGroups::kNoGroup == kNoSlot,
              "unselected rows must fold nowhere");

// --- Shared helpers --------------------------------------------------------

Status CheckColumnarPreconditions(const EvalContext& context) {
  SKALLA_RETURN_NOT_OK(ValidateEvalContext(context));
  if (context.cancellation != nullptr) {
    SKALLA_RETURN_NOT_OK(context.cancellation->Check());
  }
  return Status::OK();
}

// Per-part input columns resolved against one pinned chunk.
std::vector<const Column*> PartColumns(const std::vector<AggPart>& parts,
                                       const Chunk& chunk) {
  std::vector<const Column*> cols(parts.size(), nullptr);
  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].input_col >= 0) {
      cols[i] = &chunk.column(static_cast<size_t>(parts[i].input_col));
    }
  }
  return cols;
}

// --- Output assembly -------------------------------------------------------

// Read view of one evaluated block for output assembly: its part states
// plus a probe from base row to part slot (or -1 = no matching detail
// rows). count_probe_stats: grouped blocks count index_hits/rows_matched
// per matching base row at assembly (probing is where their matching
// happens); candidates/scan blocks counted per matched pair during the
// fold, row-engine style, so assembly must not double count.
struct EvaledBlockView {
  const std::vector<AggPart>* parts = nullptr;
  const std::vector<std::pair<size_t, size_t>>* agg_part_ranges = nullptr;
  std::function<int64_t(size_t, const Row&)> probe;
  bool count_probe_stats = true;
};

// Output assembly: probe each block per base row, finalize or emit
// sub-aggregates. The parallel
// variant writes rows into pre-sized slots in base-row chunks and
// appends in order, so output is byte-identical to the sequential pass.
Result<Table> AssembleColumnar(const Table& base, const GmdjOp& op,
                               const EvalContext& context,
                               const SchemaPtr& out_schema,
                               const std::vector<EvaledBlockView>& blocks,
                               ThreadPool* pool) {
  const size_t num_base = base.num_rows();
  // Group-probe counts batched per assembly chunk (one fetch_add per
  // chunk, not per row).
  struct ProbeCounts {
    uint64_t hits = 0;
    uint64_t matched = 0;
  };
  auto flush_counts = [&](const ProbeCounts& counts) {
    if (context.profile == nullptr) return;
    context.profile->index_hits.fetch_add(counts.hits,
                                          std::memory_order_relaxed);
    context.profile->rows_matched.fetch_add(counts.matched,
                                            std::memory_order_relaxed);
  };
  auto build_row = [&](size_t b, ProbeCounts* counts) {
    const Row& base_row = base.row(b);
    Row row = base_row;
    row.reserve(out_schema->num_fields());
    bool matched = false;
    bool counted_match = false;
    for (size_t bi = 0; bi < op.blocks.size(); ++bi) {
      const EvaledBlockView& exec = blocks[bi];
      int64_t group = exec.probe(b, base_row);
      if (group >= 0) {
        matched = true;
        if (exec.count_probe_stats) {
          ++counts->hits;
          counted_match = true;
        }
      }
      if (context.sub_aggregates) {
        for (const AggPart& part : *exec.parts) {
          if (group >= 0) {
            row.push_back(part.Final(static_cast<size_t>(group)));
          } else {
            row.push_back(InitialPartValue(part.spec));
          }
        }
      } else {
        for (size_t ai = 0; ai < op.blocks[bi].aggs.size(); ++ai) {
          auto [start, len] = (*exec.agg_part_ranges)[ai];
          std::vector<Value> cell_parts;
          cell_parts.reserve(len);
          for (size_t p = 0; p < len; ++p) {
            const AggPart& part = (*exec.parts)[start + p];
            cell_parts.push_back(group >= 0
                                     ? part.Final(static_cast<size_t>(group))
                                     : InitialPartValue(part.spec));
          }
          row.push_back(
              FinalizeAggregate(op.blocks[bi].aggs[ai], cell_parts));
        }
      }
    }
    if (context.compute_rng) {
      row.emplace_back(int64_t{matched ? 1 : 0});
    }
    if (counted_match) ++counts->matched;
    return row;
  };

  Table out(out_schema);
  out.Reserve(num_base);
  if (pool != nullptr && num_base > context.morsel_rows) {
    std::vector<Row> rows(num_base);
    const size_t chunks = (num_base - 1) / context.morsel_rows + 1;
    pool->ParallelFor(chunks, [&](size_t m) {
      if (context.cancellation != nullptr &&
          !context.cancellation->Check().ok()) {
        return;
      }
      const size_t lo = m * context.morsel_rows;
      const size_t hi = std::min(lo + context.morsel_rows, num_base);
      ProbeCounts counts;
      for (size_t b = lo; b < hi; ++b) rows[b] = build_row(b, &counts);
      flush_counts(counts);
    });
    if (context.cancellation != nullptr) {
      SKALLA_RETURN_NOT_OK(context.cancellation->Check());
    }
    for (size_t b = 0; b < num_base; ++b) {
      out.AppendUnchecked(std::move(rows[b]));
    }
  } else {
    ProbeCounts counts;
    for (size_t b = 0; b < num_base; ++b) {
      out.AppendUnchecked(build_row(b, &counts));
    }
    flush_counts(counts);
  }
  return out;
}

// Per-block evaluation state shared by the path implementations.
struct BlockExec {
  CompiledBlock compiled;
  // Grouped/candidates: dense groups over the detail key columns. They
  // own boxed copies of their keys, since the chunk a key was first met
  // in may be evicted between the build and the probe.
  KeyGroups groups{{}};
  // Candidates: selected global detail rows per group, ascending.
  std::vector<std::vector<uint32_t>> group_rows;
  // Candidates/scan: matched[b] = some detail row paired with base row b.
  std::vector<uint8_t> matched;
};

// --- Grouped path ----------------------------------------------------------

// Equality atoms only (plus detail-only / base-only conjuncts): streams
// the detail chunks once — per-chunk selection bitmap, fused dense group
// assignment, and one typed fold per part while the chunk is pinned.
// Chunks whose stats prove an all-false selection are skipped without
// pinning; their rows are exactly the rows the selection would have
// removed, so results are byte-identical with pruning on or off.
Status EvalGroupedBlock(const DataProvider& detail, BlockExec* exec,
                        const EvalContext& context) {
  const CompiledPredicate& pred = exec->compiled.pred;
  KeyGroups& groups = exec->groups;
  groups = KeyGroups(exec->compiled.detail_cols);
  std::vector<AggPart>& parts = exec->compiled.parts;
  std::vector<uint8_t> sel;
  std::vector<uint32_t> row_group;
  for (size_t ci = 0; ci < detail.num_chunks(); ++ci) {
    if (context.cancellation != nullptr) {
      SKALLA_RETURN_NOT_OK(context.cancellation->Check());
    }
    if (ShouldPruneChunk(pred, detail, ci, context)) {
      RecordPrunedChunk(context);
      continue;
    }
    SKALLA_ASSIGN_OR_RETURN(
        PinnedChunk pin,
        PinChunk(detail, ci, exec->compiled.read_cols, context));
    const Chunk& chunk = *pin;
    const uint8_t* selp = nullptr;
    if (pred.has_detail()) {
      EvalDetailSelection(pred, chunk, &sel);
      selp = sel.data();
    }
    groups.Assign(chunk, selp, &row_group);
    for (AggPart& part : parts) {
      EnsureSlots(&part, groups.size());
      const Column* in =
          part.input_col >= 0
              ? &chunk.column(static_cast<size_t>(part.input_col))
              : nullptr;
      AggPart::FoldDenseFn fold =
          selp != nullptr ? part.fold_dense_checked : part.fold_dense;
      fold(part, in, row_group.data(), chunk.num_rows());
    }
  }
  if (context.profile != nullptr) {
    context.profile->rows_scanned.fetch_add(detail.num_rows(),
                                            std::memory_order_relaxed);
  }
  return Status::OK();
}

// --- Candidates path -------------------------------------------------------

// Equality atoms + correlated conjuncts, three passes: (1) stream chunks
// building the group map + global candidate lists over selected rows
// (pruned chunks skipped without pinning — their rows are unselected
// either way);
// (2) per base row, hoist the correlated base sides and probe the map;
// (3) chunk-outer / base-morsel-inner folding, candidate lists sliced to
// the pinned chunk's row range — ascending global candidate order, so
// per-slot folds match the row oracle's indexed mode byte for byte.
// Base-row morsels partition the slot space, so concurrent folds never
// touch the same slot.
Status EvalCandidatesBlock(const Table& base, const DataProvider& detail,
                           BlockExec* exec, const EvalContext& context,
                           ThreadPool* pool) {
  const CompiledPredicate& pred = exec->compiled.pred;
  KeyGroups& groups = exec->groups;
  groups = KeyGroups(exec->compiled.detail_cols);
  std::vector<std::vector<uint32_t>>& group_rows = exec->group_rows;
  std::vector<uint8_t> chunk_any(detail.num_chunks(), 0);
  {
    std::vector<uint8_t> sel;
    std::vector<uint32_t> row_group;
    for (size_t ci = 0; ci < detail.num_chunks(); ++ci) {
      if (context.cancellation != nullptr) {
        SKALLA_RETURN_NOT_OK(context.cancellation->Check());
      }
      if (ShouldPruneChunk(pred, detail, ci, context)) {
        RecordPrunedChunk(context);
        continue;
      }
      SKALLA_ASSIGN_OR_RETURN(
          PinnedChunk pin,
          PinChunk(detail, ci, exec->compiled.read_cols, context));
      const Chunk& chunk = *pin;
      const size_t row_base = detail.chunk_row_begin(ci);
      const uint8_t* selp = nullptr;
      if (pred.has_detail()) {
        EvalDetailSelection(pred, chunk, &sel);
        selp = sel.data();
      }
      groups.Assign(chunk, selp, &row_group);
      group_rows.resize(groups.size());
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        if (row_group[r] == kNoSlot) continue;
        group_rows[row_group[r]].push_back(
            static_cast<uint32_t>(row_base + r));
        chunk_any[ci] = 1;
      }
    }
  }

  const size_t num_base = base.num_rows();
  std::vector<BasePredState> states(num_base);
  std::vector<int64_t> group_of(num_base, -1);
  {
    uint64_t hits = 0, scanned = 0;
    for (size_t b = 0; b < num_base; ++b) {
      const Row& base_row = base.row(b);
      states[b] = PrepareBaseRow(pred, base_row);
      if (!states[b].pass) continue;
      int64_t g = groups.Find(base_row, exec->compiled.base_cols);
      group_of[b] = g;
      if (g >= 0) {
        const size_t n = group_rows[static_cast<size_t>(g)].size();
        hits += n;
        scanned += n;
      }
    }
    if (context.profile != nullptr) {
      context.profile->index_hits.fetch_add(hits, std::memory_order_relaxed);
      context.profile->rows_scanned.fetch_add(scanned,
                                              std::memory_order_relaxed);
    }
  }

  std::vector<AggPart>& parts = exec->compiled.parts;
  for (AggPart& part : parts) EnsureSlots(&part, num_base);
  exec->matched.assign(num_base, 0);
  CancellationToken* cancel = context.cancellation;
  EvalProfile* profile = context.profile;
  for (size_t ci = 0; ci < detail.num_chunks(); ++ci) {
    if (!chunk_any[ci]) continue;
    if (cancel != nullptr) SKALLA_RETURN_NOT_OK(cancel->Check());
    SKALLA_ASSIGN_OR_RETURN(
        PinnedChunk pin,
        PinChunk(detail, ci, exec->compiled.read_cols, context));
    const Chunk& chunk = *pin;
    const uint32_t chunk_lo =
        static_cast<uint32_t>(detail.chunk_row_begin(ci));
    const uint32_t chunk_hi =
        static_cast<uint32_t>(chunk_lo + chunk.num_rows());
    std::vector<const Column*> part_cols = PartColumns(parts, chunk);
    RunMorsels(pool, MorselCount(num_base, context.morsel_rows), context,
               [&](size_t m) {
      if (cancel != nullptr && !cancel->Check().ok()) return;
      const size_t lo = m * context.morsel_rows;
      const size_t hi = std::min(lo + context.morsel_rows, num_base);
      uint64_t pairs = 0;
      Row scratch;
      for (size_t b = lo; b < hi; ++b) {
        int64_t g = group_of[b];
        if (g < 0) continue;
        const std::vector<uint32_t>& cand =
            group_rows[static_cast<size_t>(g)];
        auto begin = std::lower_bound(cand.begin(), cand.end(), chunk_lo);
        auto end = std::lower_bound(begin, cand.end(), chunk_hi);
        const Row& base_row = base.row(b);
        for (auto it = begin; it != end; ++it) {
          const size_t local = *it - chunk_lo;
          if (!MatchDetailRow(pred, states[b], base_row, chunk, local,
                              &scratch)) {
            continue;
          }
          exec->matched[b] = 1;
          ++pairs;
          for (size_t pi = 0; pi < parts.size(); ++pi) {
            parts[pi].fold_one(parts[pi], b, part_cols[pi], local);
          }
        }
      }
      if (profile != nullptr) {
        profile->rows_matched.fetch_add(pairs, std::memory_order_relaxed);
      }
    });
  }
  return Status::OK();
}

// --- Scan path -------------------------------------------------------------

// One morsel's private part partials + matched bitmap (scan path).
struct ScanPartial {
  std::vector<AggPart> parts;
  std::vector<uint8_t> matched;
};

ScanPartial MakeScanPartial(const std::vector<AggPart>& protos,
                            size_t num_base) {
  ScanPartial partial;
  partial.parts = protos;
  for (AggPart& part : partial.parts) EnsureSlots(&part, num_base);
  partial.matched.assign(num_base, 0);
  return partial;
}

// The chunk a worker last folded, kept pinned across its consecutive
// morsel segments. A morsel is much smaller than a chunk; unpinning per
// segment would, under a budget below one chunk, evict the pages at
// every unpin and reload them for the next morsel.
struct HeldChunk {
  size_t ci = SIZE_MAX;
  PinnedChunk pin;
};

// One HeldChunk per thread running scan morsels; the pins release when
// the scan ends.
class WorkerChunks {
 public:
  HeldChunk* ForThisThread() {
    std::lock_guard<std::mutex> lock(mu_);
    return &held_[std::this_thread::get_id()];  // map nodes are stable
  }

 private:
  std::mutex mu_;
  std::map<std::thread::id, HeldChunk> held_;
};

void MergeScanPartial(const ScanPartial& partial, std::vector<AggPart>* parts,
                      std::vector<uint8_t>* matched) {
  for (size_t pi = 0; pi < parts->size(); ++pi) {
    MergeParts(&(*parts)[pi], partial.parts[pi]);
  }
  for (size_t b = 0; b < partial.matched.size(); ++b) {
    (*matched)[b] |= partial.matched[b];
  }
}

// No equality atoms: a pre-pass computes the global selection chunk by
// chunk (pruned chunks zero-filled without pinning), then the morsel
// folds walk the chunk segments covering their row range — detail-outer
// / base-inner, same per-slot order — skipping segments with no selected
// rows without pinning. Morsel decomposition and partial-merge order are
// the row oracle's nested-loop ones (a pure function of morsel_rows), so
// results match it byte for byte at any thread count.
Status EvalScanBlock(const Table& base, const DataProvider& detail,
                     BlockExec* exec, const EvalContext& context,
                     ThreadPool* pool) {
  const CompiledPredicate& pred = exec->compiled.pred;
  const size_t num_base = base.num_rows();
  const size_t num_detail = detail.num_rows();
  std::vector<uint8_t> sel;
  const uint8_t* selp = nullptr;
  std::vector<uint8_t> chunk_any(detail.num_chunks(), 1);
  if (pred.has_detail()) {
    sel.assign(num_detail, 0);
    std::vector<uint8_t> chunk_sel;
    for (size_t ci = 0; ci < detail.num_chunks(); ++ci) {
      if (context.cancellation != nullptr) {
        SKALLA_RETURN_NOT_OK(context.cancellation->Check());
      }
      const size_t row_base = detail.chunk_row_begin(ci);
      if (ShouldPruneChunk(pred, detail, ci, context)) {
        RecordPrunedChunk(context);
        chunk_any[ci] = 0;
        continue;
      }
      SKALLA_ASSIGN_OR_RETURN(
          PinnedChunk pin,
          PinChunk(detail, ci, exec->compiled.read_cols, context));
      const Chunk& chunk = *pin;
      EvalDetailSelection(pred, chunk, &chunk_sel);
      uint8_t any = 0;
      for (size_t r = 0; r < chunk_sel.size(); ++r) {
        sel[row_base + r] = chunk_sel[r];
        any |= chunk_sel[r];
      }
      chunk_any[ci] = any;
    }
    selp = sel.data();
  }

  std::vector<BasePredState> states(num_base);
  for (size_t b = 0; b < num_base; ++b) {
    states[b] = PrepareBaseRow(pred, base.row(b));
  }
  std::vector<AggPart>& parts = exec->compiled.parts;
  const std::vector<AggPart> protos = parts;  // pristine, slot-less
  for (AggPart& part : parts) EnsureSlots(&part, num_base);
  exec->matched.assign(num_base, 0);

  const size_t morsel_rows = context.morsel_rows;
  const size_t morsels = MorselCount(num_detail, morsel_rows);
  CancellationToken* cancel = context.cancellation;
  EvalProfile* profile = context.profile;
  auto record = [&](size_t lo, size_t hi, uint64_t pairs) {
    if (profile == nullptr) return;
    profile->rows_scanned.fetch_add(
        static_cast<uint64_t>(num_base) * (hi - lo),
        std::memory_order_relaxed);
    profile->rows_matched.fetch_add(pairs, std::memory_order_relaxed);
  };
  WorkerChunks worker_chunks;
  auto fold = [&](ScanPartial* partial, size_t lo, size_t hi,
                  uint64_t* pairs) -> Status {
    HeldChunk* held = worker_chunks.ForThisThread();
    Row scratch;
    size_t r = lo;
    while (r < hi) {
      const size_t ci = detail.ChunkOfRow(r);
      const size_t chunk_lo = detail.chunk_row_begin(ci);
      const size_t seg_hi = std::min(hi, chunk_lo + detail.chunk_rows(ci));
      if (!chunk_any[ci]) {
        r = seg_hi;
        continue;
      }
      if (held->ci != ci) {
        held->pin.Release();
        held->ci = SIZE_MAX;
        SKALLA_ASSIGN_OR_RETURN(
            held->pin,
            PinChunk(detail, ci, exec->compiled.read_cols, context));
        held->ci = ci;
      }
      const Chunk& chunk = *held->pin;
      std::vector<const Column*> part_cols =
          PartColumns(partial->parts, chunk);
      for (; r < seg_hi; ++r) {
        if (selp != nullptr && !selp[r]) continue;
        const size_t local = r - chunk_lo;
        for (size_t b = 0; b < num_base; ++b) {
          if (!states[b].pass) continue;
          if (!MatchDetailRow(pred, states[b], base.row(b), chunk, local,
                              &scratch)) {
            continue;
          }
          partial->matched[b] = 1;
          ++*pairs;
          for (size_t pi = 0; pi < partial->parts.size(); ++pi) {
            partial->parts[pi].fold_one(partial->parts[pi], b, part_cols[pi],
                                        local);
          }
        }
      }
    }
    return Status::OK();
  };

  std::vector<Status> morsel_status(morsels);
  if (pool == nullptr || morsels <= 1) {
    RunMorsels(nullptr, morsels, context, [&](size_t m) {
      if (cancel != nullptr && !cancel->Check().ok()) return;
      ScanPartial partial = MakeScanPartial(protos, num_base);
      const size_t lo = m * morsel_rows;
      const size_t hi = std::min((m + 1) * morsel_rows, num_detail);
      uint64_t pairs = 0;
      morsel_status[m] = fold(&partial, lo, hi, &pairs);
      if (!morsel_status[m].ok()) return;
      record(lo, hi, pairs);
      MergeScanPartial(partial, &parts, &exec->matched);
    });
  } else {
    std::vector<ScanPartial> partials(morsels);
    RunMorsels(pool, morsels, context, [&](size_t m) {
      if (cancel != nullptr && !cancel->Check().ok()) return;
      partials[m] = MakeScanPartial(protos, num_base);
      const size_t lo = m * morsel_rows;
      const size_t hi = std::min((m + 1) * morsel_rows, num_detail);
      uint64_t pairs = 0;
      morsel_status[m] = fold(&partials[m], lo, hi, &pairs);
      if (!morsel_status[m].ok()) return;
      record(lo, hi, pairs);
    });
    for (const Status& status : morsel_status) {
      SKALLA_RETURN_NOT_OK(status);
    }
    for (const ScanPartial& partial : partials) {
      if (partial.parts.size() != parts.size()) continue;
      MergeScanPartial(partial, &parts, &exec->matched);
    }
    return Status::OK();
  }
  for (const Status& status : morsel_status) {
    SKALLA_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

// The base-only gate shared by the grouped probes: a base row whose
// base-only conjuncts fail pairs with nothing, whatever its key.
bool BaseOnlyPass(const CompiledPredicate& pred, const Row& base_row) {
  for (const ExprPtr& conjunct : pred.base_only) {
    if (!conjunct->EvalBool(&base_row, nullptr)) return false;
  }
  return true;
}

}  // namespace

Result<Table> EvalGmdjColumnar(const Table& base, const DataProvider& detail,
                               const GmdjOp& op, const EvalContext& context) {
  SKALLA_RETURN_NOT_OK(CheckColumnarPreconditions(context));
  const Schema& base_schema = *base.schema();
  const Schema& detail_schema = *detail.schema();
  SKALLA_ASSIGN_OR_RETURN(
      SchemaPtr out_schema,
      EvalOutputSchema(op, base_schema, detail_schema, context));

  std::function<std::optional<Interval>(const std::string&)> col_range =
      ColRangeFromProvider(detail);
  std::vector<BlockExec> blocks(op.blocks.size());
  for (size_t bi = 0; bi < op.blocks.size(); ++bi) {
    SKALLA_RETURN_NOT_OK(CompileBlock(op.blocks[bi], base_schema,
                                      detail_schema, col_range,
                                      &blocks[bi].compiled));
  }

  const size_t threads = ResolveEvalThreads(context.eval_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  for (BlockExec& exec : blocks) {
    if (context.cancellation != nullptr &&
        !context.cancellation->Check().ok()) {
      break;
    }
    switch (PathOf(exec.compiled)) {
      case BlockPath::kGrouped:
        SKALLA_RETURN_NOT_OK(EvalGroupedBlock(detail, &exec, context));
        break;
      case BlockPath::kCandidates:
        SKALLA_RETURN_NOT_OK(
            EvalCandidatesBlock(base, detail, &exec, context, pool.get()));
        break;
      case BlockPath::kScan:
        SKALLA_RETURN_NOT_OK(
            EvalScanBlock(base, detail, &exec, context, pool.get()));
        break;
    }
  }

  if (context.cancellation != nullptr) {
    SKALLA_RETURN_NOT_OK(context.cancellation->Check());
  }

  std::vector<EvaledBlockView> views(blocks.size());
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    BlockExec& exec = blocks[bi];
    views[bi].parts = &exec.compiled.parts;
    views[bi].agg_part_ranges = &exec.compiled.agg_part_ranges;
    if (PathOf(exec.compiled) == BlockPath::kGrouped) {
      views[bi].probe = [&exec](size_t, const Row& base_row) {
        if (!BaseOnlyPass(exec.compiled.pred, base_row)) {
          return int64_t{-1};
        }
        return exec.groups.Find(base_row, exec.compiled.base_cols);
      };
      views[bi].count_probe_stats = true;
    } else {
      views[bi].probe = [&exec](size_t b, const Row&) {
        return exec.matched[b] ? static_cast<int64_t>(b) : int64_t{-1};
      };
      views[bi].count_probe_stats = false;
    }
  }
  return AssembleColumnar(base, op, context, out_schema, views, pool.get());
}

bool FusesBaseQuery(const BaseQuery& base, const GmdjOp& op) {
  if (!base.distinct || base.where != nullptr || base.columns.empty() ||
      base.table != op.detail_table) {
    return false;
  }
  for (const GmdjBlock& block : op.blocks) {
    if (block.theta == nullptr) return false;
    ConjunctClasses classes = ClassifyCondition(block.theta);
    if (!classes.correlated.empty() || !classes.base_only.empty()) {
      return false;
    }
    std::vector<uint8_t> covered(base.columns.size(), 0);
    for (const EquiAtom& atom : classes.equi_atoms) {
      auto it = std::find(base.columns.begin(), base.columns.end(),
                          atom.base_col);
      if (atom.detail_col != atom.base_col || it == base.columns.end()) {
        return false;
      }
      covered[static_cast<size_t>(it - base.columns.begin())] = 1;
    }
    if (std::find(covered.begin(), covered.end(), 0) != covered.end()) {
      return false;
    }
  }
  return true;
}

Result<Table> EvalBaseAndGmdjColumnar(const BaseQuery& base,
                                      const DataProvider& detail,
                                      const GmdjOp& op,
                                      const EvalContext& context) {
  SKALLA_RETURN_NOT_OK(CheckColumnarPreconditions(context));
  if (!FusesBaseQuery(base, op)) {
    return Status::InvalidArgument(
        StrCat("base query '", base.ToString(),
               "' does not fuse into the GMDJ round over ", op.detail_table));
  }
  const Schema& detail_schema = *detail.schema();
  std::vector<size_t> key_cols;
  key_cols.reserve(base.columns.size());
  for (const std::string& name : base.columns) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, detail_schema.RequireIndex(name));
    key_cols.push_back(idx);
  }
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr base_schema,
                          base.OutputSchema(detail_schema));
  SKALLA_ASSIGN_OR_RETURN(
      SchemaPtr out_schema,
      EvalOutputSchema(op, *base_schema, detail_schema, context));
  std::function<std::optional<Interval>(const std::string&)> col_range =
      ColRangeFromProvider(detail);
  std::vector<BlockExec> blocks(op.blocks.size());
  for (size_t bi = 0; bi < op.blocks.size(); ++bi) {
    SKALLA_RETURN_NOT_OK(CompileBlock(op.blocks[bi], *base_schema,
                                      detail_schema, col_range,
                                      &blocks[bi].compiled));
  }

  // Group g is B's row g: every row opens or finds its key's group, so
  // the groups are the base query's first-occurrence DISTINCT. A block
  // folds a row into its group when the row passes the block's
  // detail-only conjuncts — the rows the grouped path would have put in
  // the group its probe of B's row g finds. A key holding a NaN equals
  // no key, so such a group's B row matches no detail row (its probe
  // would have missed): nothing folds into it.
  KeyGroups groups(key_cols);
  std::vector<uint8_t> unmatchable;
  // hit[bi][g]: block bi folded some row into group g.
  std::vector<std::vector<uint8_t>> hit(blocks.size());
  std::vector<uint8_t> live(blocks.size());
  std::vector<size_t> reads;
  std::vector<uint32_t> row_group;
  std::vector<uint32_t> block_group;
  std::vector<uint8_t> sel;
  for (size_t ci = 0; ci < detail.num_chunks(); ++ci) {
    if (context.cancellation != nullptr) {
      SKALLA_RETURN_NOT_OK(context.cancellation->Check());
    }
    // Key pages are read for every chunk (B has no WHERE to prune by);
    // a block's other pages only where its stats do not prune it.
    reads = key_cols;
    for (size_t bi = 0; bi < blocks.size(); ++bi) {
      const CompiledBlock& block = blocks[bi].compiled;
      live[bi] = !ShouldPruneChunk(block.pred, detail, ci, context);
      if (!live[bi]) {
        RecordPrunedChunk(context);
        continue;
      }
      reads.insert(reads.end(), block.read_cols.begin(),
                   block.read_cols.end());
    }
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
    SKALLA_ASSIGN_OR_RETURN(PinnedChunk pin,
                            PinChunk(detail, ci, reads, context));
    const Chunk& chunk = *pin;
    const size_t n = chunk.num_rows();
    groups.Assign(chunk, nullptr, &row_group);
    for (size_t g = unmatchable.size(); g < groups.size(); ++g) {
      const Row& key = groups.key(g);
      unmatchable.push_back(std::any_of(
          key.begin(), key.end(), [](const Value& v) { return !v.Equals(v); }));
    }
    block_group.resize(n);
    for (size_t bi = 0; bi < blocks.size(); ++bi) {
      if (!live[bi]) continue;
      CompiledBlock& block = blocks[bi].compiled;
      const uint8_t* selp = nullptr;
      if (block.pred.has_detail()) {
        EvalDetailSelection(block.pred, chunk, &sel);
        selp = sel.data();
      }
      std::vector<uint8_t>& block_hit = hit[bi];
      block_hit.resize(groups.size(), 0);
      bool skips = false;
      for (size_t r = 0; r < n; ++r) {
        const uint32_t g = row_group[r];
        if ((selp != nullptr && !selp[r]) || unmatchable[g]) {
          block_group[r] = kNoSlot;
          skips = true;
        } else {
          block_group[r] = g;
          block_hit[g] = 1;
        }
      }
      for (AggPart& part : block.parts) {
        EnsureSlots(&part, groups.size());
        const Column* in =
            part.input_col >= 0
                ? &chunk.column(static_cast<size_t>(part.input_col))
                : nullptr;
        AggPart::FoldDenseFn fold =
            skips ? part.fold_dense_checked : part.fold_dense;
        fold(part, in, block_group.data(), n);
      }
    }
  }
  if (context.cancellation != nullptr) {
    SKALLA_RETURN_NOT_OK(context.cancellation->Check());
  }
  if (context.profile != nullptr) {
    context.profile->rows_scanned.fetch_add(detail.num_rows(),
                                            std::memory_order_relaxed);
  }

  Table b(base_schema);
  std::vector<Row> keys = groups.TakeKeys();
  b.Reserve(keys.size());
  for (Row& key : keys) b.AppendUnchecked(std::move(key));
  std::vector<EvaledBlockView> views(blocks.size());
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    hit[bi].resize(b.num_rows(), 0);
    views[bi].parts = &blocks[bi].compiled.parts;
    views[bi].agg_part_ranges = &blocks[bi].compiled.agg_part_ranges;
    views[bi].probe = [&block_hit = hit[bi]](size_t row, const Row&) {
      return block_hit[row] ? static_cast<int64_t>(row) : int64_t{-1};
    };
  }
  const size_t threads = ResolveEvalThreads(context.eval_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  return AssembleColumnar(b, op, context, out_schema, views, pool.get());
}

}  // namespace skalla

#include "relalg/operators.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "columnar/predicate_eval.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "expr/analysis.h"
#include "relalg/key_groups.h"
#include "types/row.h"

namespace skalla {

Result<Table> Project(const Table& in,
                      const std::vector<std::string>& columns,
                      bool distinct) {
  std::vector<size_t> indices;
  indices.reserve(columns.size());
  for (const std::string& name : columns) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, in.schema()->RequireIndex(name));
    indices.push_back(idx);
  }
  Table out(in.schema()->Project(indices));
  out.Reserve(in.num_rows());
  for (size_t r = 0; r < in.num_rows(); ++r) {
    out.AppendUnchecked(ProjectRow(in.row(r), indices));
  }
  if (distinct) return Distinct(out);
  return out;
}

Result<Table> Select(const Table& in, const ExprPtr& predicate) {
  SKALLA_ASSIGN_OR_RETURN(ExprPtr bound,
                          predicate->Bind(nullptr, in.schema().get()));
  Table out(in.schema());
  for (size_t r = 0; r < in.num_rows(); ++r) {
    if (bound->EvalBool(nullptr, &in.row(r))) {
      out.AppendUnchecked(in.row(r));
    }
  }
  return out;
}

Result<Table> UnionAll(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) {
    return Status::InvalidArgument(
        StrCat("UNION ALL arity mismatch: ", a.num_columns(), " vs ",
               b.num_columns()));
  }
  Table out(a.schema());
  out.Reserve(a.num_rows() + b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) out.AppendUnchecked(a.row(r));
  for (size_t r = 0; r < b.num_rows(); ++r) out.AppendUnchecked(b.row(r));
  return out;
}

Table Distinct(const Table& in) {
  Table out(in.schema());
  std::unordered_map<uint64_t, std::vector<size_t>> seen;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    const Row& row = in.row(r);
    uint64_t h = HashRow(row);
    std::vector<size_t>& bucket = seen[h];
    bool duplicate = false;
    for (size_t prev : bucket) {
      if (RowEquals(out.row(prev), row)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      bucket.push_back(out.num_rows());
      out.AppendUnchecked(row);
    }
  }
  return out;
}

Result<Table> SortBy(const Table& in, const std::vector<std::string>& by) {
  std::vector<size_t> indices;
  indices.reserve(by.size());
  for (const std::string& name : by) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, in.schema()->RequireIndex(name));
    indices.push_back(idx);
  }
  Table out = in;
  out.SortRowsBy(indices);
  return out;
}

Result<Table> TopK(const Table& in, const std::string& column, size_t k,
                   bool descending) {
  SKALLA_ASSIGN_OR_RETURN(size_t key, in.schema()->RequireIndex(column));
  std::vector<size_t> order(in.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<size_t> all_columns(in.num_columns());
  for (size_t i = 0; i < all_columns.size(); ++i) all_columns[i] = i;
  auto better = [&](size_t a, size_t b) {
    int c = in.row(a)[key].Compare(in.row(b)[key]);
    if (c != 0) return descending ? c > 0 : c < 0;
    // Deterministic tie-break on the full row.
    return CompareRowKey(in.row(a), in.row(b), all_columns) < 0;
  };
  size_t keep = std::min(k, order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<int64_t>(keep), order.end(),
                    better);
  Table out(in.schema());
  out.Reserve(keep);
  for (size_t i = 0; i < keep; ++i) out.AppendUnchecked(in.row(order[i]));
  return out;
}

Result<Table> BaseQuery::Execute(const Catalog& catalog,
                                 const EvalContext& context) const {
  SKALLA_ASSIGN_OR_RETURN(const DataProvider* provider,
                          catalog.GetProvider(table));
  return Execute(*provider, context);
}

Result<Table> BaseQuery::Execute(const DataProvider& provider,
                                 const EvalContext& context) const {
  const SchemaPtr& schema = provider.schema();
  std::vector<size_t> indices;
  indices.reserve(columns.size());
  for (const std::string& name : columns) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, schema->RequireIndex(name));
    indices.push_back(idx);
  }
  // The WHERE splits like a GMDJ condition over an empty base side:
  // detail conjuncts become the per-chunk selection, constant-only ones
  // (base_only) decide once whether any row can pass.
  CompiledPredicate pred;
  bool constants_pass = true;
  if (where != nullptr) {
    // Binding the whole WHERE first rejects b.<col> references.
    SKALLA_RETURN_NOT_OK(where->Bind(nullptr, schema.get()).status());
    SKALLA_ASSIGN_OR_RETURN(SchemaPtr no_base, Schema::Make({}));
    SKALLA_ASSIGN_OR_RETURN(
        pred, CompilePredicate(ClassifyCondition(where), *no_base, *schema,
                               ColRangeFromProvider(provider)));
    const Row no_row;
    for (const ExprPtr& conjunct : pred.base_only) {
      if (!conjunct->EvalBool(&no_row, nullptr)) constants_pass = false;
    }
  }

  // Pins read the projection plus the WHERE's columns, nothing else.
  std::vector<size_t> reads = indices;
  AddPredicateReadSet(pred, &reads);  // sorts and dedupes

  Table out(schema->Project(indices));
  KeyGroups groups(indices);  // DISTINCT: out row g is group g's key
  uint64_t rows_scanned = 0;
  std::vector<uint8_t> sel;
  std::vector<uint32_t> row_groups;
  for (size_t ci = 0; constants_pass && ci < provider.num_chunks(); ++ci) {
    if (context.cancellation != nullptr) {
      SKALLA_RETURN_NOT_OK(context.cancellation->Check());
    }
    if (ShouldPruneChunk(pred, provider, ci, context)) {
      RecordPrunedChunk(context);
      continue;
    }
    SKALLA_ASSIGN_OR_RETURN(PinnedChunk pin,
                            PinChunk(provider, ci, reads, context));
    const Chunk& chunk = *pin;
    const size_t n = chunk.num_rows();
    rows_scanned += n;
    const uint8_t* selp = nullptr;
    if (pred.has_detail()) {
      EvalDetailSelection(pred, chunk, &sel);
      selp = sel.data();
    }
    if (distinct) {
      groups.Assign(chunk, selp, &row_groups);
      continue;
    }
    for (size_t r = 0; r < n; ++r) {
      if (selp != nullptr && !selp[r]) continue;
      Row row;
      row.reserve(indices.size());
      for (size_t c : indices) row.push_back(chunk.column(c).GetValue(r));
      out.AppendUnchecked(std::move(row));
    }
  }
  if (distinct) {
    std::vector<Row> keys = groups.TakeKeys();
    out.Reserve(keys.size());
    for (Row& key : keys) out.AppendUnchecked(std::move(key));
  }
  if (context.cancellation != nullptr) {
    SKALLA_RETURN_NOT_OK(context.cancellation->Check());
  }
  if (context.profile != nullptr) {
    context.profile->rows_scanned.fetch_add(rows_scanned,
                                            std::memory_order_relaxed);
    context.profile->engines_used.fetch_or(kEngineBitColumnar,
                                           std::memory_order_relaxed);
  }
  return out;
}

Result<SchemaPtr> BaseQuery::OutputSchema(const Schema& input) const {
  std::vector<size_t> indices;
  indices.reserve(columns.size());
  for (const std::string& name : columns) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, input.RequireIndex(name));
    indices.push_back(idx);
  }
  return input.Project(indices);
}

std::string BaseQuery::ToString() const {
  std::string out = StrCat("SELECT ", distinct ? "DISTINCT " : "",
                           Join(columns, ", "), " FROM ", table);
  if (where != nullptr) out += StrCat(" WHERE ", where->ToString());
  return out;
}

}  // namespace skalla

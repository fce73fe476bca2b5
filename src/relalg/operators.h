// Minimal relational operators over Tables: enough to compute the
// base-values queries 𝔅 of GMDJ expressions (projection/distinct/selection
// over the fact relation) and to combine partial results (union).

#ifndef SKALLA_RELALG_OPERATORS_H_
#define SKALLA_RELALG_OPERATORS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/eval_context.h"
#include "expr/expr.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace skalla {

/// π: projects `in` onto the named columns, optionally deduplicating.
Result<Table> Project(const Table& in, const std::vector<std::string>& columns,
                      bool distinct);

/// σ: rows of `in` satisfying `predicate`. The predicate references the
/// detail side (r.col) and is bound against `in`'s schema here.
Result<Table> Select(const Table& in, const ExprPtr& predicate);

/// Multiset union. Schemas must have identical field counts and types
/// (names may differ; the left schema wins).
Result<Table> UnionAll(const Table& a, const Table& b);

/// Deduplicates full rows.
Table Distinct(const Table& in);

/// Sorts by the named columns ascending.
Result<Table> SortBy(const Table& in, const std::vector<std::string>& by);

/// The k rows with the largest (descending = true) or smallest values of
/// `column`, ties broken by the remaining columns for determinism. The
/// classic "top talkers" post-processing step over a GMDJ result.
Result<Table> TopK(const Table& in, const std::string& column, size_t k,
                   bool descending = true);

/// The base-values query 𝔅 of a GMDJ expression: a (usually distinct)
/// projection of grouping columns from a named relation, with an optional
/// selection. Executable against any catalog — the whole warehouse for
/// centralized evaluation, or one site's partition for local evaluation.
struct BaseQuery {
  std::string table;
  std::vector<std::string> columns;
  bool distinct = true;
  ExprPtr where;  // Optional; references r.<col> of `table`.

  /// Reads the relation through catalog.GetProvider (resident tables
  /// through their MemoryDataProvider), so every relation takes the
  /// columnar scan below.
  Result<Table> Execute(const Catalog& catalog,
                        const EvalContext& context = {}) const;

  /// The columnar scan, one chunk at a time: chunks whose stats prove the
  /// WHERE false are skipped unpinned (context.chunk_pruning), the WHERE
  /// becomes a selection bitmap over the typed columns, and a
  /// first-occurrence typed distinct over the key columns boxes only the
  /// projected cells of each new key. Yields exactly the rows of
  /// Project(Select(table, where), columns, distinct), in the same order.
  /// Polls context.cancellation once per chunk and returns its status;
  /// fills context.profile's rows_scanned (rows of pinned chunks),
  /// chunks_pruned and engines_used.
  Result<Table> Execute(const DataProvider& provider,
                        const EvalContext& context = {}) const;

  /// Schema of the result given the source relation's schema.
  Result<SchemaPtr> OutputSchema(const Schema& input) const;

  std::string ToString() const;
};

}  // namespace skalla

#endif  // SKALLA_RELALG_OPERATORS_H_

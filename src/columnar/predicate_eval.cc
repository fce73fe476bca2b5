#include "columnar/predicate_eval.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/macros.h"
#include "obs/obs.h"

namespace skalla {

namespace {

// Scalar comparison; std::string operators agree with str().compare
// ordering, so this matches Value::Compare for same-typed operands.
template <typename T>
inline bool CmpOp(BinaryOp op, const T& a, const T& b) {
  switch (op) {
    case BinaryOp::kEq: return a == b;
    case BinaryOp::kNe: return a != b;
    case BinaryOp::kLt: return a < b;
    case BinaryOp::kLe: return a <= b;
    case BinaryOp::kGt: return a > b;
    case BinaryOp::kGe: return a >= b;
    default: return false;
  }
}

// Doubles follow Value::Compare, under which NaN orders equal to every
// number: NaN <= x and NaN >= x hold, while NaN < x, NaN > x and
// NaN = x do not. Preferred over the template for double operands.
inline bool CmpOp(BinaryOp op, double a, double b) {
  switch (op) {
    case BinaryOp::kEq: return a == b;
    case BinaryOp::kNe: return a != b;
    case BinaryOp::kLt: return a < b;
    case BinaryOp::kLe: return !(a > b);
    case BinaryOp::kGt: return a > b;
    case BinaryOp::kGe: return !(a < b);
    default: return false;
  }
}

// Boxed comparison of two non-null values, replicating EvalComparison.
inline bool CmpBoxed(BinaryOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinaryOp::kEq: return a.Equals(b);
    case BinaryOp::kNe: return !a.Equals(b);
    case BinaryOp::kLt: return a.Compare(b) < 0;
    case BinaryOp::kLe: return a.Compare(b) <= 0;
    case BinaryOp::kGt: return a.Compare(b) > 0;
    case BinaryOp::kGe: return a.Compare(b) >= 0;
    default: return false;
  }
}

// Cell of a numeric column as double, matching Value::AsDouble of the
// boxed cell.
inline double CellAsDouble(const Column& col, size_t r) {
  return col.type() == ValueType::kInt64
             ? static_cast<double>(col.Int64At(r))
             : col.Float64At(r);
}

std::vector<size_t> CollectDetailCols(const ExprPtr& expr,
                                      const Schema& detail_schema) {
  std::vector<std::string> names;
  expr->CollectColumns(ExprSide::kDetail, &names);
  std::vector<size_t> cols;
  for (const std::string& name : names) {
    int idx = detail_schema.IndexOf(name);
    if (idx >= 0) cols.push_back(static_cast<size_t>(idx));
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

bool IsBareDetailColumn(const ExprPtr& e) {
  return e->kind() == ExprKind::kColumnRef && e->side() == ExprSide::kDetail;
}

Result<DetailConjunct> CompileDetailConjunct(
    const ExprPtr& conjunct, const Schema& detail_schema,
    const std::function<std::optional<Interval>(const std::string&)>&
        col_range) {
  DetailConjunct out;
  SKALLA_ASSIGN_OR_RETURN(out.bound,
                          conjunct->Bind(nullptr, &detail_schema));
  out.ref_cols = CollectDetailCols(conjunct, detail_schema);
  out.selectivity = EstimateConjunctSelectivity(conjunct, col_range);

  // Specialize `r.X op literal` (either operand order) and `r.X IN {…}`.
  if (conjunct->kind() == ExprKind::kInSet &&
      IsBareDetailColumn(conjunct->operand()) && conjunct->value_set()) {
    out.kind = DetailConjunct::Kind::kInSet;
    out.col = detail_schema.IndexOf(conjunct->operand()->column_name());
    out.set = conjunct->value_set();
    return out;
  }
  if (conjunct->kind() == ExprKind::kBinary &&
      IsComparisonOp(conjunct->binary_op())) {
    BinaryOp op = conjunct->binary_op();
    ExprPtr col_side = conjunct->left();
    ExprPtr lit_side = conjunct->right();
    if (!IsBareDetailColumn(col_side)) {
      std::swap(col_side, lit_side);
      op = FlipComparison(op);
    }
    if (IsBareDetailColumn(col_side) &&
        lit_side->kind() == ExprKind::kLiteral &&
        !lit_side->literal().is_null()) {
      const int idx = detail_schema.IndexOf(col_side->column_name());
      const ValueType col_type =
          idx >= 0 ? detail_schema.field(idx).type : ValueType::kNull;
      const Value& lit = lit_side->literal();
      if (lit.is_int64() && col_type == ValueType::kInt64) {
        out.kind = DetailConjunct::Kind::kCmpInt;
        out.col = idx;
        out.op = op;
        out.ilit = lit.int64();
        out.dlit = static_cast<double>(lit.int64());
        out.prunable = op != BinaryOp::kNe;
        return out;
      }
      if (lit.is_numeric() && (col_type == ValueType::kInt64 ||
                               col_type == ValueType::kFloat64)) {
        out.kind = DetailConjunct::Kind::kCmpDouble;
        out.col = idx;
        out.op = op;
        out.dlit = lit.AsDouble();
        out.prunable = op != BinaryOp::kNe;
        return out;
      }
      if (lit.is_string() && col_type == ValueType::kString) {
        out.kind = DetailConjunct::Kind::kCmpString;
        out.col = idx;
        out.op = op;
        out.slit = lit.str();
        return out;
      }
    }
  }
  // NULL literals, NOT, arithmetic, type mismatches: kGeneric, already
  // set up via `bound`.
  return out;
}

Result<CorrelatedConjunct> CompileCorrelatedConjunct(
    const ExprPtr& conjunct, const Schema& base_schema,
    const Schema& detail_schema) {
  CorrelatedConjunct out;
  SKALLA_ASSIGN_OR_RETURN(out.bound,
                          conjunct->Bind(&base_schema, &detail_schema));
  out.ref_cols = CollectDetailCols(conjunct, detail_schema);
  std::optional<SeparableComparison> sep =
      ExtractSeparableComparison(conjunct);
  if (sep && IsBareDetailColumn(sep->detail_expr)) {
    const int idx = detail_schema.IndexOf(sep->detail_expr->column_name());
    if (idx >= 0) {
      SKALLA_ASSIGN_OR_RETURN(out.base_expr,
                              sep->base_expr->Bind(&base_schema, nullptr));
      out.separable = true;
      out.op = sep->op;
      out.detail_col = idx;
      out.detail_type = detail_schema.field(idx).type;
    }
  }
  return out;
}

}  // namespace

bool CompiledPredicate::has_prunable() const {
  for (const DetailConjunct& c : detail) {
    if (c.prunable) return true;
  }
  return false;
}

Result<CompiledPredicate> CompilePredicate(
    const ConjunctClasses& classes, const Schema& base_schema,
    const Schema& detail_schema,
    const std::function<std::optional<Interval>(const std::string&)>&
        col_range) {
  CompiledPredicate pred;
  pred.detail_width = detail_schema.num_fields();
  for (const ExprPtr& conjunct : classes.detail_only) {
    SKALLA_ASSIGN_OR_RETURN(
        DetailConjunct c,
        CompileDetailConjunct(conjunct, detail_schema, col_range));
    pred.detail.push_back(std::move(c));
  }
  // Most selective first; stable so equal estimates keep textual order.
  std::stable_sort(pred.detail.begin(), pred.detail.end(),
                   [](const DetailConjunct& a, const DetailConjunct& b) {
                     return a.selectivity < b.selectivity;
                   });
  for (const ExprPtr& conjunct : classes.correlated) {
    SKALLA_ASSIGN_OR_RETURN(
        CorrelatedConjunct c,
        CompileCorrelatedConjunct(conjunct, base_schema, detail_schema));
    pred.correlated.push_back(std::move(c));
  }
  for (const ExprPtr& conjunct : classes.base_only) {
    SKALLA_ASSIGN_OR_RETURN(ExprPtr bound,
                            conjunct->Bind(&base_schema, nullptr));
    pred.base_only.push_back(std::move(bound));
  }
  return pred;
}

std::function<std::optional<Interval>(const std::string&)>
ColRangeFromPartition(const PartitionInfo& info, size_t site) {
  return [&info, site](const std::string& column) -> std::optional<Interval> {
    const ColumnDistribution* dist = info.GetDistribution(site, column);
    if (dist == nullptr || !dist->min.has_value() || !dist->max.has_value()) {
      return std::nullopt;
    }
    return Interval{*dist->min, *dist->max};
  };
}

std::function<std::optional<Interval>(const std::string&)>
ColRangeFromProvider(const DataProvider& provider) {
  const DataProvider* p = &provider;
  auto cache =
      std::make_shared<std::map<std::string, std::optional<Interval>>>();
  return [p, cache](const std::string& name) -> std::optional<Interval> {
    auto it = cache->find(name);
    if (it != cache->end()) return it->second;
    std::optional<Interval> out;
    const int idx = p->schema()->IndexOf(name);
    if (idx >= 0) {
      bool complete = true, any = false;
      double lo = 0.0, hi = 0.0;
      for (size_t ci = 0; ci < p->num_chunks(); ++ci) {
        const ChunkColumnStats* stats =
            p->chunk_column_stats(ci, static_cast<size_t>(idx));
        if (stats == nullptr) {
          complete = false;
          break;
        }
        if (!stats->has_range) continue;  // All-null chunk: no range.
        if (!any) {
          lo = stats->min;
          hi = stats->max;
          any = true;
        } else {
          lo = std::min(lo, stats->min);
          hi = std::max(hi, stats->max);
        }
      }
      if (complete && any) out = Interval{lo, hi};
    }
    (*cache)[name] = out;
    return out;
  };
}

void EvalDetailSelection(const CompiledPredicate& pred,
                         const Chunk& chunk, std::vector<uint8_t>* sel) {
  const size_t n = chunk.num_rows();
  sel->assign(n, 1);
  Row scratch;
  for (const DetailConjunct& c : pred.detail) {
    uint8_t* s = sel->data();
    // Narrows survivors with one typed test per row.
    auto filter = [&](auto&& test) {
      for (size_t r = 0; r < n; ++r) {
        if (s[r]) s[r] = test(r) ? 1 : 0;
      }
    };
    switch (c.kind) {
      case DetailConjunct::Kind::kCmpInt: {
        const Column& col = chunk.column(c.col);
        filter([&](size_t r) {
          return !col.IsNull(r) && CmpOp(c.op, col.Int64At(r), c.ilit);
        });
        break;
      }
      case DetailConjunct::Kind::kCmpDouble: {
        const Column& col = chunk.column(c.col);
        filter([&](size_t r) {
          return !col.IsNull(r) && CmpOp(c.op, CellAsDouble(col, r), c.dlit);
        });
        break;
      }
      case DetailConjunct::Kind::kCmpString: {
        const Column& col = chunk.column(c.col);
        filter([&](size_t r) {
          return !col.IsNull(r) && CmpOp(c.op, col.StringAt(r), c.slit);
        });
        break;
      }
      case DetailConjunct::Kind::kInSet: {
        const Column& col = chunk.column(c.col);
        filter([&](size_t r) {
          return !col.IsNull(r) && c.set->Contains(col.GetValue(r));
        });
        break;
      }
      case DetailConjunct::Kind::kGeneric: {
        scratch.assign(pred.detail_width, Value::Null());
        filter([&](size_t r) {
          for (size_t col : c.ref_cols) {
            scratch[col] = chunk.column(col).GetValue(r);
          }
          return c.bound->EvalBool(nullptr, &scratch);
        });
        break;
      }
    }
  }
}

bool ChunkCannotSatisfy(const DetailConjunct& c,
                        const ChunkColumnStats& stats) {
  // An all-null column fails every comparison.
  if (!stats.has_range) return true;
  // Stats are doubles; widen one ulp so a lossily-rounded int64 bound
  // can never exclude a chunk that contains a satisfying row.
  const double lo =
      std::nextafter(stats.min, -std::numeric_limits<double>::infinity());
  const double hi =
      std::nextafter(stats.max, std::numeric_limits<double>::infinity());
  switch (c.op) {
    case BinaryOp::kEq: return c.dlit < lo || c.dlit > hi;
    case BinaryOp::kLt: return lo >= c.dlit;
    case BinaryOp::kLe: return lo > c.dlit;
    case BinaryOp::kGt: return hi <= c.dlit;
    case BinaryOp::kGe: return hi < c.dlit;
    default: return false;
  }
}

bool ShouldPruneChunk(const CompiledPredicate& pred,
                      const DataProvider& provider, size_t ci,
                      const EvalContext& context) {
  if (!context.chunk_pruning) return false;
  for (const DetailConjunct& c : pred.detail) {
    if (!c.prunable) continue;
    const ChunkColumnStats* stats =
        provider.chunk_column_stats(ci, static_cast<size_t>(c.col));
    if (stats != nullptr && ChunkCannotSatisfy(c, *stats)) return true;
  }
  return false;
}

void RecordPrunedChunk(const EvalContext& context) {
  if (context.profile != nullptr) {
    context.profile->chunks_pruned.fetch_add(1, std::memory_order_relaxed);
  }
  SKALLA_COUNTER_ADD("skalla.storage.chunks_pruned", 1);
}

Result<PinnedChunk> PinChunk(const DataProvider& provider, size_t ci,
                             const std::vector<size_t>& columns,
                             const EvalContext& context) {
  SKALLA_ASSIGN_OR_RETURN(PinnedChunk pin, provider.Pin(ci, columns));
  if (context.profile != nullptr && pin.loads().pages > 0) {
    context.profile->pages_loaded.fetch_add(pin.loads().pages,
                                            std::memory_order_relaxed);
    context.profile->bytes_loaded.fetch_add(pin.loads().bytes,
                                            std::memory_order_relaxed);
  }
  return pin;
}

void AddPredicateReadSet(const CompiledPredicate& pred,
                         std::vector<size_t>* out) {
  for (const DetailConjunct& c : pred.detail) {
    if (c.col >= 0) out->push_back(static_cast<size_t>(c.col));
    out->insert(out->end(), c.ref_cols.begin(), c.ref_cols.end());
  }
  for (const CorrelatedConjunct& c : pred.correlated) {
    if (c.detail_col >= 0) out->push_back(static_cast<size_t>(c.detail_col));
    out->insert(out->end(), c.ref_cols.begin(), c.ref_cols.end());
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

BasePredState PrepareBaseRow(const CompiledPredicate& pred,
                             const Row& base_row) {
  BasePredState state;
  for (const ExprPtr& conjunct : pred.base_only) {
    if (!conjunct->EvalBool(&base_row, nullptr)) {
      state.pass = false;
      break;
    }
  }
  if (!state.pass) return state;
  state.preps.resize(pred.correlated.size());
  for (size_t i = 0; i < pred.correlated.size(); ++i) {
    const CorrelatedConjunct& c = pred.correlated[i];
    BasePredState::Prep& prep = state.preps[i];
    if (!c.separable) {
      prep.mode = BasePredState::Prep::Mode::kGeneric;
      continue;
    }
    Value bv = c.base_expr->Eval(&base_row, nullptr);
    if (bv.is_null()) {
      prep.mode = BasePredState::Prep::Mode::kFalse;
    } else if (bv.is_int64() && c.detail_type == ValueType::kInt64) {
      prep.mode = BasePredState::Prep::Mode::kInt;
      prep.i = bv.int64();
    } else if (bv.is_numeric() && (c.detail_type == ValueType::kInt64 ||
                                   c.detail_type == ValueType::kFloat64)) {
      prep.mode = BasePredState::Prep::Mode::kDouble;
      prep.d = bv.AsDouble();
    } else if (bv.is_string() && c.detail_type == ValueType::kString) {
      prep.mode = BasePredState::Prep::Mode::kString;
      prep.s = bv.str();
    } else {
      prep.mode = BasePredState::Prep::Mode::kBoxed;
      prep.boxed = std::move(bv);
    }
  }
  return state;
}

bool MatchDetailRow(const CompiledPredicate& pred, const BasePredState& state,
                    const Row& base_row, const Chunk& chunk, size_t r,
                    Row* scratch) {
  for (size_t i = 0; i < pred.correlated.size(); ++i) {
    const CorrelatedConjunct& c = pred.correlated[i];
    const BasePredState::Prep& prep = state.preps[i];
    switch (prep.mode) {
      case BasePredState::Prep::Mode::kFalse:
        return false;
      case BasePredState::Prep::Mode::kInt: {
        const Column& col = chunk.column(c.detail_col);
        if (col.IsNull(r) || !CmpOp(c.op, prep.i, col.Int64At(r))) {
          return false;
        }
        break;
      }
      case BasePredState::Prep::Mode::kDouble: {
        const Column& col = chunk.column(c.detail_col);
        if (col.IsNull(r) || !CmpOp(c.op, prep.d, CellAsDouble(col, r))) {
          return false;
        }
        break;
      }
      case BasePredState::Prep::Mode::kString: {
        const Column& col = chunk.column(c.detail_col);
        if (col.IsNull(r) || !CmpOp(c.op, prep.s, col.StringAt(r))) {
          return false;
        }
        break;
      }
      case BasePredState::Prep::Mode::kBoxed: {
        const Column& col = chunk.column(c.detail_col);
        if (col.IsNull(r)) return false;
        if (!CmpBoxed(c.op, prep.boxed, col.GetValue(r))) return false;
        break;
      }
      case BasePredState::Prep::Mode::kGeneric: {
        if (scratch->size() != pred.detail_width) {
          scratch->assign(pred.detail_width, Value::Null());
        }
        for (size_t col : c.ref_cols) {
          (*scratch)[col] = chunk.column(col).GetValue(r);
        }
        if (!c.bound->EvalBool(&base_row, scratch)) return false;
        break;
      }
    }
  }
  return true;
}

}  // namespace skalla

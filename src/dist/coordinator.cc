#include "dist/coordinator.h"

#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/obs.h"
#include "types/row.h"

namespace skalla {

namespace {

AggKind MergeAggKind(MergeKind merge) {
  switch (merge) {
    case MergeKind::kMin:
      return AggKind::kMin;
    case MergeKind::kMax:
      return AggKind::kMax;
    case MergeKind::kSum:
      break;
  }
  return AggKind::kSum;
}

// Grows `part` to `n` slots. A FLOAT64 sum starts at -0.0, the identity
// of +, so its first partial is taken as it is (as MergePartial adopts
// it into a NULL cell): a lone -0.0 stays -0.0.
void GrowSlots(AggPart* part, size_t n) {
  const size_t old = part->num_slots();
  EnsureSlots(part, n);
  if (part->spec.kind == AggKind::kSum &&
      part->input_type == ValueType::kFloat64) {
    for (size_t g = old; g < n; ++g) part->dvals[g] = -0.0;
  }
}

// Whether fragment cell (col, r) and X's boxed cell are the same cell:
// both NULL, or the same type with the same bits (NaN payloads and -0.0
// included) or the same string bytes.
bool SameCell(const Column& col, size_t r, const Value& v) {
  if (col.IsNull(r)) return v.is_null();
  switch (col.type()) {
    case ValueType::kInt64:
      return v.is_int64() && v.int64() == col.Int64At(r);
    case ValueType::kFloat64: {
      if (!v.is_float64()) return false;
      const double a = col.Float64At(r);
      const double b = v.float64();
      return std::memcmp(&a, &b, sizeof(double)) == 0;
    }
    case ValueType::kString:
      return v.is_string() && v.str() == col.StringAt(r);
    case ValueType::kNull:
      break;
  }
  return false;
}

Row BoxRow(const Chunk& h, size_t r) {
  Row row;
  row.reserve(h.num_columns());
  for (size_t c = 0; c < h.num_columns(); ++c) {
    row.push_back(h.column(c).GetValue(r));
  }
  return row;
}

// A COUNT part's merged count: no partial arrived means 0.
int64_t CountAt(const AggPart& p, size_t g) { return p.any[g] ? p.ivals[g] : 0; }

double SumAsDouble(const AggPart& p, size_t g) {
  return p.input_type == ValueType::kInt64 ? static_cast<double>(p.ivals[g])
                                           : p.dvals[g];
}

}  // namespace

Status Coordinator::CheckFragment(const Chunk& h, const Schema& schema) const {
  if (h.num_columns() != schema.num_fields()) {
    return Status::InvalidArgument(
        StrCat("fragment arity ", h.num_columns(), ", expected ",
               schema.num_fields()));
  }
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const ValueType got = h.schema()->field(c).type;
    if (got != schema.field(c).type) {
      return Status::InvalidArgument(
          StrCat("fragment column '", schema.field(c).name, "' is ",
                 ValueTypeToString(got), ", expected ",
                 ValueTypeToString(schema.field(c).type)));
    }
  }
  return Status::OK();
}

// --- Base-values round ----------------------------------------------------

Status Coordinator::InitBase(SchemaPtr base_schema) {
  base_schema_ = std::move(base_schema);
  std::vector<size_t> all(base_schema_->num_fields());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  base_groups_.emplace(std::move(all));
  x_ = Table(base_schema_);
  in_base_ = true;
  in_round_ = false;
  return Status::OK();
}

Status Coordinator::MergeBaseFragment(const Chunk& fragment) {
  if (!in_base_) {
    return Status::Internal("MergeBaseFragment outside a base round");
  }
  SKALLA_RETURN_NOT_OK(CheckFragment(fragment, *base_schema_));
  SKALLA_TRACE_SPAN(merge_span, "coord.merge_base", "coordinator");
  SKALLA_SPAN_ATTR(merge_span, "rows",
                   static_cast<uint64_t>(fragment.num_rows()));
  SKALLA_OBS_ONLY(Stopwatch merge_timer;)
  base_groups_->Assign(fragment, nullptr, &row_slots_);
  SKALLA_HISTOGRAM_RECORD("skalla.coord.merge_us",
                          static_cast<double>(merge_timer.ElapsedMicros()));
  return Status::OK();
}

Status Coordinator::FinalizeBase() {
  if (!in_base_) return Status::Internal("FinalizeBase outside a base round");
  x_ = Table(base_schema_, base_groups_->TakeKeys());
  base_groups_.reset();
  in_base_ = false;
  return Status::OK();
}

// --- GMDJ round -----------------------------------------------------------

Status Coordinator::BeginRound(const GmdjOp& op,
                               const Schema& upstream_schema,
                               const Schema& detail_schema,
                               bool from_scratch) {
  if (in_round_) {
    return Status::Internal("BeginRound during an unfinished round");
  }
  in_base_ = false;
  base_groups_.reset();
  from_scratch_ = from_scratch;
  upstream_width_ = upstream_schema.num_fields();

  std::vector<SubAggregate> parts;
  agg_specs_.clear();
  agg_first_part_.clear();
  std::vector<Field> fields = upstream_schema.fields();
  for (const GmdjBlock& block : op.blocks) {
    for (const AggSpec& spec : block.aggs) {
      agg_specs_.push_back(spec);
      agg_first_part_.push_back(parts.size());
      for (SubAggregate& part : Decompose(spec)) {
        SKALLA_ASSIGN_OR_RETURN(ValueType type,
                                PartOutputType(part, detail_schema));
        fields.push_back(Field{part.part_name, type});
        parts.push_back(std::move(part));
      }
    }
  }
  SKALLA_ASSIGN_OR_RETURN(working_schema_, Schema::Make(std::move(fields)));

  // Each part folds its fragment column under its merge kind.
  parts_.clear();
  for (size_t p = 0; p < parts.size(); ++p) {
    SubAggregate merge{MergeAggKind(parts[p].merge),
                       working_schema_->field(upstream_width_ + p).name,
                       parts[p].part_name, parts[p].merge};
    SKALLA_ASSIGN_OR_RETURN(AggPart part,
                            CompileAggPart(std::move(merge), *working_schema_));
    parts_.push_back(std::move(part));
  }

  key_indices_.clear();
  for (const std::string& key : key_columns_) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, upstream_schema.RequireIndex(key));
    key_indices_.push_back(idx);
  }
  fragments_.clear();
  origins_.clear();

  if (from_scratch_) {
    groups_.emplace(key_indices_);
    num_groups_ = 0;
  } else {
    if (!x_.schema()->Equals(upstream_schema)) {
      return Status::Internal(
          StrCat("coordinator structure schema ", x_.schema()->ToString(),
                 " does not match stage upstream schema ",
                 upstream_schema.ToString()));
    }
    groups_.reset();
    num_groups_ = x_.num_rows();
  }
  for (AggPart& part : parts_) GrowSlots(&part, num_groups_);
  in_round_ = true;
  return Status::OK();
}

Status Coordinator::WalkX(const Chunk& h) {
  const size_t n = h.num_rows();
  const size_t x_rows = x_.num_rows();
  row_slots_.resize(n);
  size_t next = 0;
  for (size_t r = 0; r < n; ++r) {
    for (; next < x_rows; ++next) {
      const Row& x_row = x_.row(next);
      bool same = true;
      for (size_t c = 0; c < upstream_width_ && same; ++c) {
        same = SameCell(h.column(c), r, x_row[c]);
      }
      if (same) break;
    }
    if (next == x_rows) {
      return Status::Internal(
          StrCat("site shipped unknown group ", RowToString(BoxRow(h, r))));
    }
    row_slots_[r] = static_cast<uint32_t>(next++);
  }
  return Status::OK();
}

Status Coordinator::MergeFragment(ChunkPtr h) {
  if (!in_round_) return Status::Internal("MergeFragment outside a round");
  SKALLA_RETURN_NOT_OK(CheckFragment(*h, *working_schema_));
  SKALLA_TRACE_SPAN(merge_span, "coord.merge", "coordinator");
  SKALLA_SPAN_ATTR(merge_span, "rows", static_cast<uint64_t>(h->num_rows()));
  SKALLA_OBS_ONLY(Stopwatch merge_timer;)
  const size_t n = h->num_rows();
  if (from_scratch_) {
    groups_->Assign(*h, nullptr, &row_slots_);
    // Groups are numbered in order of creation, so the first row that
    // names the next new group is the one that created it.
    const auto fragment = static_cast<uint32_t>(fragments_.size());
    for (size_t r = 0; r < n; ++r) {
      if (row_slots_[r] == num_groups_) {
        origins_.emplace_back(fragment, static_cast<uint32_t>(r));
        ++num_groups_;
      }
    }
    fragments_.push_back(h);
    for (AggPart& part : parts_) GrowSlots(&part, num_groups_);
  } else {
    SKALLA_RETURN_NOT_OK(WalkX(*h));
  }
  for (AggPart& part : parts_) {
    part.fold_dense(part, &h->column(static_cast<size_t>(part.input_col)),
                    row_slots_.data(), n);
  }
  SKALLA_HISTOGRAM_RECORD("skalla.coord.merge_us",
                          static_cast<double>(merge_timer.ElapsedMicros()));
  return Status::OK();
}

Status Coordinator::FinalizeRound() {
  if (!in_round_) return Status::Internal("FinalizeRound outside a round");
  const size_t groups = num_groups_;
  SKALLA_TRACE_SPAN(finalize_span, "coord.finalize", "coordinator");
  SKALLA_SPAN_ATTR(finalize_span, "groups", static_cast<uint64_t>(groups));
  std::vector<Field> fields;
  fields.reserve(upstream_width_ + agg_specs_.size());
  for (size_t i = 0; i < upstream_width_; ++i) {
    fields.push_back(working_schema_->field(i));
  }
  // Output types: algebraic aggregates finalize to FLOAT64; distributive
  // (single-part) aggregates keep their part column type.
  for (size_t ai = 0; ai < agg_specs_.size(); ++ai) {
    ValueType type;
    switch (agg_specs_[ai].kind) {
      case AggKind::kAvg:
      case AggKind::kVarPop:
      case AggKind::kStdDevPop:
      case AggKind::kSumSq:
        type = ValueType::kFloat64;
        break;
      default:
        type = working_schema_->field(upstream_width_ + agg_first_part_[ai])
                   .type;
        break;
    }
    fields.push_back(Field{agg_specs_[ai].output, type});
  }
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                          Schema::Make(std::move(fields)));
  const size_t width = out_schema->num_fields();

  // The upstream cells: X's own rows, moved; or each group's first
  // arrival: its key cells as KeyGroups boxed them, the other cells
  // boxed from the fragment that created the group.
  std::vector<Row> rows(groups);
  if (!from_scratch_) {
    for (size_t g = 0; g < groups; ++g) {
      rows[g] = std::move(x_.mutable_row(g));
      rows[g].reserve(width);
    }
  } else {
    std::vector<int64_t> key_of(upstream_width_, -1);
    for (size_t k = 0; k < key_indices_.size(); ++k) {
      key_of[key_indices_[k]] = static_cast<int64_t>(k);
    }
    std::vector<Row> keys = groups_->TakeKeys();
    for (size_t g = 0; g < groups; ++g) {
      const Chunk& h = *fragments_[origins_[g].first];
      const size_t r = origins_[g].second;
      rows[g].reserve(width);
      for (size_t c = 0; c < upstream_width_; ++c) {
        if (key_of[c] >= 0) {
          rows[g].push_back(std::move(keys[g][key_of[c]]));
        } else {
          rows[g].push_back(h.column(c).GetValue(r));
        }
      }
    }
  }

  // The aggregates, one column at a time, with FinalizeAggregate's
  // rules: COUNT over nothing is 0; AVG/VAR/STDDEV with no sum or a zero
  // count are NULL.
  for (size_t ai = 0; ai < agg_specs_.size(); ++ai) {
    const AggSpec& spec = agg_specs_[ai];
    const AggPart& p0 = parts_[agg_first_part_[ai]];
    switch (spec.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        for (size_t g = 0; g < groups; ++g) {
          rows[g].emplace_back(CountAt(p0, g));
        }
        break;
      case AggKind::kSum:
      case AggKind::kMin:
      case AggKind::kMax:
      case AggKind::kSumSq:
        for (size_t g = 0; g < groups; ++g) rows[g].push_back(p0.Final(g));
        break;
      case AggKind::kAvg: {
        const AggPart& cnt = parts_[agg_first_part_[ai] + 1];
        for (size_t g = 0; g < groups; ++g) {
          const int64_t n = CountAt(cnt, g);
          if (!p0.any[g] || n == 0) {
            rows[g].emplace_back();
          } else {
            rows[g].emplace_back(SumAsDouble(p0, g) / static_cast<double>(n));
          }
        }
        break;
      }
      case AggKind::kVarPop:
      case AggKind::kStdDevPop: {
        const AggPart& sumsq = parts_[agg_first_part_[ai] + 1];
        const AggPart& cnt = parts_[agg_first_part_[ai] + 2];
        for (size_t g = 0; g < groups; ++g) {
          const int64_t count = CountAt(cnt, g);
          if (!p0.any[g] || !sumsq.any[g] || count == 0) {
            rows[g].emplace_back();
            continue;
          }
          const double n = static_cast<double>(count);
          const double mean = SumAsDouble(p0, g) / n;
          double var = sumsq.dvals[g] / n - mean * mean;
          if (var < 0.0) var = 0.0;  // Guard against rounding.
          rows[g].emplace_back(spec.kind == AggKind::kVarPop ? var
                                                             : std::sqrt(var));
        }
        break;
      }
    }
  }
  x_ = Table(std::move(out_schema), std::move(rows));
  parts_.clear();
  groups_.reset();
  fragments_.clear();
  origins_.clear();
  in_round_ = false;
  return Status::OK();
}

}  // namespace skalla

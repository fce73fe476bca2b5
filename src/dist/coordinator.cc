#include "dist/coordinator.h"

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/obs.h"
#include "types/row.h"

namespace skalla {

// --- Base-values round ----------------------------------------------------

Status Coordinator::InitBase(SchemaPtr base_schema) {
  base_schema_ = std::move(base_schema);
  base_ = Rows{Table(base_schema_), {}};
  x_ = Table(base_schema_);
  in_base_ = true;
  in_round_ = false;
  return Status::OK();
}

Status Coordinator::MergeBaseFragment(const Table& fragment) {
  if (!in_base_) {
    return Status::Internal("MergeBaseFragment outside a base round");
  }
  if (fragment.num_columns() != base_schema_->num_fields()) {
    return Status::InvalidArgument(
        StrCat("base fragment arity ", fragment.num_columns(),
               " does not match base schema arity ",
               base_schema_->num_fields()));
  }
  SKALLA_TRACE_SPAN(merge_span, "coord.merge_base", "coordinator");
  SKALLA_SPAN_ATTR(merge_span, "rows",
                   static_cast<uint64_t>(fragment.num_rows()));
  SKALLA_OBS_ONLY(Stopwatch merge_timer;)
  for (size_t r = 0; r < fragment.num_rows(); ++r) {
    const Row& row = fragment.row(r);
    std::vector<uint32_t>& bucket = base_.map[HashRow(row)];
    bool duplicate = false;
    for (uint32_t prev : bucket) {
      if (RowEquals(base_.rows.row(prev), row)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      bucket.push_back(static_cast<uint32_t>(base_.rows.num_rows()));
      base_.rows.AppendUnchecked(row);
    }
  }
  SKALLA_HISTOGRAM_RECORD("skalla.coord.merge_us",
                          static_cast<double>(merge_timer.ElapsedMicros()));
  return Status::OK();
}

Status Coordinator::FinalizeBase() {
  if (!in_base_) return Status::Internal("FinalizeBase outside a base round");
  x_ = std::move(base_.rows);
  base_ = Rows();
  in_base_ = false;
  return Status::OK();
}

// --- GMDJ round -----------------------------------------------------------

int64_t Coordinator::LookupKey(const Rows& s, const Row& key_row,
                               uint64_t hash) const {
  auto it = s.map.find(hash);
  if (it == s.map.end()) return -1;
  for (uint32_t row_id : it->second) {
    if (RowKeyEquals(key_row, key_indices_, s.rows.row(row_id),
                     key_indices_)) {
      return row_id;
    }
  }
  return -1;
}

Status Coordinator::BeginRound(const GmdjOp& op,
                               const Schema& upstream_schema,
                               const Schema& detail_schema,
                               bool from_scratch) {
  if (in_round_) {
    return Status::Internal("BeginRound during an unfinished round");
  }
  in_base_ = false;
  base_ = Rows();
  in_round_ = true;
  from_scratch_ = from_scratch;
  round_op_ = op;
  upstream_width_ = upstream_schema.num_fields();

  parts_.clear();
  agg_part_ranges_.clear();
  agg_specs_.clear();
  std::vector<Field> fields = upstream_schema.fields();
  for (const GmdjBlock& block : round_op_.blocks) {
    for (const AggSpec& spec : block.aggs) {
      agg_specs_.push_back(&spec);
      std::vector<SubAggregate> parts = Decompose(spec);
      agg_part_ranges_.emplace_back(parts_.size(), parts.size());
      for (SubAggregate& part : parts) {
        SKALLA_ASSIGN_OR_RETURN(ValueType type,
                                PartOutputType(part, detail_schema));
        fields.push_back(Field{part.part_name, type});
        parts_.push_back(std::move(part));
      }
    }
  }
  SKALLA_ASSIGN_OR_RETURN(working_schema_, Schema::Make(std::move(fields)));

  key_indices_.clear();
  for (const std::string& key : key_columns_) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, upstream_schema.RequireIndex(key));
    key_indices_.push_back(idx);
  }

  work_ = Rows{Table(working_schema_), {}};

  if (!from_scratch_) {
    if (!x_.schema()->Equals(upstream_schema)) {
      return Status::Internal(
          StrCat("coordinator structure schema ", x_.schema()->ToString(),
                 " does not match stage upstream schema ",
                 upstream_schema.ToString()));
    }
    // Seed the working structure with X's rows, in X's order.
    work_.rows.Reserve(x_.num_rows());
    for (size_t r = 0; r < x_.num_rows(); ++r) {
      Row row = x_.row(r);
      row.reserve(row.size() + parts_.size());
      for (const SubAggregate& part : parts_) {
        row.push_back(InitialPartValue(part));
      }
      work_.map[HashRowKey(row, key_indices_)].push_back(
          static_cast<uint32_t>(r));
      work_.rows.AppendUnchecked(std::move(row));
    }
  }
  return Status::OK();
}

Status Coordinator::MergeFragment(const Table& h) {
  if (!in_round_) return Status::Internal("MergeFragment outside a round");
  const size_t expected = upstream_width_ + parts_.size();
  if (h.num_columns() != expected) {
    return Status::InvalidArgument(
        StrCat("partial result arity ", h.num_columns(), ", expected ",
               expected));
  }
  SKALLA_TRACE_SPAN(merge_span, "coord.merge", "coordinator");
  SKALLA_SPAN_ATTR(merge_span, "rows", static_cast<uint64_t>(h.num_rows()));
  SKALLA_OBS_ONLY(Stopwatch merge_timer;)
  for (size_t r = 0; r < h.num_rows(); ++r) {
    const Row& incoming = h.row(r);
    const uint64_t hash = HashRowKey(incoming, key_indices_);
    int64_t row_id = LookupKey(work_, incoming, hash);
    if (row_id < 0) {
      if (!from_scratch_) {
        return Status::Internal(
            StrCat("site shipped unknown group ", RowToString(incoming)));
      }
      Row fresh(incoming.begin(),
                incoming.begin() + static_cast<int64_t>(upstream_width_));
      fresh.reserve(expected);
      for (const SubAggregate& part : parts_) {
        fresh.push_back(InitialPartValue(part));
      }
      row_id = static_cast<int64_t>(work_.rows.num_rows());
      work_.map[hash].push_back(static_cast<uint32_t>(row_id));
      work_.rows.AppendUnchecked(std::move(fresh));
    }
    Row& target = work_.rows.mutable_row(static_cast<size_t>(row_id));
    for (size_t p = 0; p < parts_.size(); ++p) {
      size_t col = upstream_width_ + p;
      target[col] =
          MergePartial(target[col], incoming[col], parts_[p].merge);
    }
  }
  SKALLA_HISTOGRAM_RECORD("skalla.coord.merge_us",
                          static_cast<double>(merge_timer.ElapsedMicros()));
  return Status::OK();
}

Status Coordinator::FinalizeRound() {
  if (!in_round_) return Status::Internal("FinalizeRound outside a round");
  const Table& working = work_.rows;
  SKALLA_TRACE_SPAN(finalize_span, "coord.finalize", "coordinator");
  SKALLA_SPAN_ATTR(finalize_span, "groups",
                   static_cast<uint64_t>(working.num_rows()));
  std::vector<Field> fields;
  fields.reserve(upstream_width_ + agg_specs_.size());
  for (size_t i = 0; i < upstream_width_; ++i) {
    fields.push_back(working_schema_->field(i));
  }
  // Output types: algebraic aggregates finalize to FLOAT64; distributive
  // (single-part) aggregates keep their part column type.
  for (size_t ai = 0; ai < agg_specs_.size(); ++ai) {
    const size_t start = agg_part_ranges_[ai].first;
    ValueType type;
    switch (agg_specs_[ai]->kind) {
      case AggKind::kAvg:
      case AggKind::kVarPop:
      case AggKind::kStdDevPop:
      case AggKind::kSumSq:
        type = ValueType::kFloat64;
        break;
      default:
        type = working_schema_->field(upstream_width_ + start).type;
        break;
    }
    fields.push_back(Field{agg_specs_[ai]->output, type});
  }
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                          Schema::Make(std::move(fields)));
  Table out(out_schema);
  out.Reserve(working.num_rows());
  for (size_t r = 0; r < working.num_rows(); ++r) {
    const Row& w = working.row(r);
    Row row(w.begin(), w.begin() + static_cast<int64_t>(upstream_width_));
    row.reserve(out_schema->num_fields());
    for (size_t ai = 0; ai < agg_specs_.size(); ++ai) {
      auto [start, len] = agg_part_ranges_[ai];
      std::vector<Value> parts;
      parts.reserve(len);
      for (size_t p = 0; p < len; ++p) {
        parts.push_back(w[upstream_width_ + start + p]);
      }
      row.push_back(FinalizeAggregate(*agg_specs_[ai], parts));
    }
    out.AppendUnchecked(std::move(row));
  }
  x_ = std::move(out);
  work_ = Rows();
  in_round_ = false;
  return Status::OK();
}

}  // namespace skalla

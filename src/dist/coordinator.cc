#include "dist/coordinator.h"

#include <algorithm>
#include <mutex>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/obs.h"
#include "types/row.h"

namespace skalla {

void Coordinator::RunSharded(const std::function<void(size_t)>& fn) {
  if (num_shards_ == 1) {
    fn(0);
    return;
  }
  if (merge_pool_ == nullptr) {
    // ParallelFor runs shard 0 inline, so num_shards - 1 workers suffice.
    merge_pool_ = std::make_unique<ThreadPool>(num_shards_ - 1);
  }
  merge_pool_->ParallelFor(num_shards_, fn);
}

std::vector<Coordinator::HashedRows> Coordinator::BucketRows(
    const Table& fragment,
    const std::function<uint64_t(const Row&)>& hash_row) const {
  std::vector<HashedRows> buckets(num_shards_);
  for (HashedRows& b : buckets) {
    b.reserve(fragment.num_rows() / num_shards_ + 1);
  }
  for (size_t r = 0; r < fragment.num_rows(); ++r) {
    uint64_t h = hash_row(fragment.row(r));
    buckets[h % num_shards_].emplace_back(static_cast<uint32_t>(r), h);
  }
  return buckets;
}

Table Coordinator::ConcatShards(std::vector<Shard>& shards,
                                SchemaPtr schema) {
  size_t total = 0;
  for (const Shard& s : shards) total += s.rows.num_rows();
  Table out(std::move(schema));
  out.Reserve(total);
  if (shards.size() == 1) {
    Shard& s = shards[0];
    for (size_t r = 0; r < s.rows.num_rows(); ++r) {
      out.AppendUnchecked(std::move(s.rows.mutable_row(r)));
    }
    return out;
  }
  // Each shard's rows are already in stream order; a k-way cursor merge
  // on seq restores the exact order of the sequential merge.
  std::vector<size_t> cursor(shards.size(), 0);
  for (size_t emitted = 0; emitted < total; ++emitted) {
    size_t best = shards.size();
    uint64_t best_seq = 0;
    for (size_t s = 0; s < shards.size(); ++s) {
      if (cursor[s] >= shards[s].rows.num_rows()) continue;
      uint64_t seq = shards[s].seq[cursor[s]];
      if (best == shards.size() || seq < best_seq) {
        best = s;
        best_seq = seq;
      }
    }
    out.AppendUnchecked(
        std::move(shards[best].rows.mutable_row(cursor[best])));
    ++cursor[best];
  }
  return out;
}

// --- Base-values round ----------------------------------------------------

Status Coordinator::InitBase(SchemaPtr base_schema) {
  base_schema_ = std::move(base_schema);
  base_shards_.assign(num_shards_, Shard{});
  for (Shard& s : base_shards_) s.rows = Table(base_schema_);
  base_seq_ = 0;
  x_ = Table(base_schema_);
  in_base_ = true;
  in_round_ = false;
  return Status::OK();
}

void Coordinator::MergeBaseFragmentShard(size_t shard, const Table& fragment,
                                         const HashedRows& rows,
                                         uint64_t base_seq) {
  SKALLA_TRACE_SPAN(shard_span, "coord.merge.shard", "coordinator");
  SKALLA_SPAN_ATTR(shard_span, "shard", static_cast<uint64_t>(shard));
  SKALLA_SPAN_ATTR(shard_span, "rows", static_cast<uint64_t>(rows.size()));
  SKALLA_OBS_ONLY(Stopwatch shard_timer;)
  Shard& s = base_shards_[shard];
  for (const auto& [r, h] : rows) {
    const Row& row = fragment.row(r);
    std::vector<uint32_t>& bucket = s.map[h];
    bool duplicate = false;
    for (uint32_t prev : bucket) {
      if (RowEquals(s.rows.row(prev), row)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      bucket.push_back(static_cast<uint32_t>(s.rows.num_rows()));
      s.seq.push_back(base_seq + r);
      s.rows.AppendUnchecked(row);
    }
  }
  SKALLA_HISTOGRAM_RECORD("skalla.coord.merge_shard_us",
                          static_cast<double>(shard_timer.ElapsedMicros()));
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
  std::vector<HashedRows> buckets =
      BucketRows(fragment, [](const Row& row) { return HashRow(row); });
  uint64_t base_seq = base_seq_;
  base_seq_ += fragment.num_rows();
  RunSharded([&](size_t shard) {
    MergeBaseFragmentShard(shard, fragment, buckets[shard], base_seq);
  });
  SKALLA_HISTOGRAM_RECORD("skalla.coord.merge_us",
                          static_cast<double>(merge_timer.ElapsedMicros()));
  return Status::OK();
}

Status Coordinator::FinalizeBase() {
  if (!in_base_) return Status::Internal("FinalizeBase outside a base round");
  x_ = ConcatShards(base_shards_, base_schema_);
  base_shards_.clear();
  in_base_ = false;
  return Status::OK();
}

// --- GMDJ round -----------------------------------------------------------

int64_t Coordinator::LookupKeyInShard(const Shard& s, const Row& key_row,
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
  base_shards_.clear();
  in_round_ = true;
  from_scratch_ = from_scratch;
  round_op_ = op;
  upstream_width_ = upstream_schema.num_fields();
  merge_seq_ = 0;

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

  work_shards_.assign(num_shards_, Shard{});
  for (Shard& s : work_shards_) s.rows = Table(working_schema_);

  if (!from_scratch_) {
    if (!x_.schema()->Equals(upstream_schema)) {
      return Status::Internal(
          StrCat("coordinator structure schema ", x_.schema()->ToString(),
                 " does not match stage upstream schema ",
                 upstream_schema.ToString()));
    }
    // Seed the shards with X's rows (seq = X row index, so concatenation
    // restores X's order), splitting by key hash as fragments will.
    std::vector<HashedRows> buckets = BucketRows(x_, [this](const Row& row) {
      return HashRowKey(row, key_indices_);
    });
    RunSharded([&](size_t shard) {
      Shard& s = work_shards_[shard];
      s.rows.Reserve(buckets[shard].size());
      for (const auto& [r, h] : buckets[shard]) {
        Row row = x_.row(r);
        row.reserve(row.size() + parts_.size());
        for (const SubAggregate& part : parts_) {
          row.push_back(InitialPartValue(part));
        }
        s.map[h].push_back(static_cast<uint32_t>(s.rows.num_rows()));
        s.seq.push_back(r);
        s.rows.AppendUnchecked(std::move(row));
      }
    });
  }
  return Status::OK();
}

Status Coordinator::MergeFragmentShard(size_t shard, const Table& h,
                                       const HashedRows& rows,
                                       uint64_t base_seq) {
  SKALLA_TRACE_SPAN(shard_span, "coord.merge.shard", "coordinator");
  SKALLA_SPAN_ATTR(shard_span, "shard", static_cast<uint64_t>(shard));
  SKALLA_SPAN_ATTR(shard_span, "rows", static_cast<uint64_t>(rows.size()));
  SKALLA_OBS_ONLY(Stopwatch shard_timer;)
  Shard& s = work_shards_[shard];
  const size_t expected = upstream_width_ + parts_.size();
  for (const auto& [r, hash] : rows) {
    const Row& incoming = h.row(r);
    int64_t row_id = LookupKeyInShard(s, incoming, hash);
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
      row_id = static_cast<int64_t>(s.rows.num_rows());
      s.map[hash].push_back(static_cast<uint32_t>(row_id));
      s.seq.push_back(base_seq + r);
      s.rows.AppendUnchecked(std::move(fresh));
    }
    Row& target = s.rows.mutable_row(static_cast<size_t>(row_id));
    for (size_t p = 0; p < parts_.size(); ++p) {
      size_t col = upstream_width_ + p;
      target[col] =
          MergePartial(target[col], incoming[col], parts_[p].merge);
    }
  }
  SKALLA_HISTOGRAM_RECORD("skalla.coord.merge_shard_us",
                          static_cast<double>(shard_timer.ElapsedMicros()));
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
  std::vector<HashedRows> buckets = BucketRows(h, [this](const Row& row) {
    return HashRowKey(row, key_indices_);
  });
  uint64_t base_seq = merge_seq_;
  merge_seq_ += h.num_rows();
  std::vector<Status> shard_status(num_shards_);
  RunSharded([&](size_t shard) {
    shard_status[shard] =
        MergeFragmentShard(shard, h, buckets[shard], base_seq);
  });
  for (Status& s : shard_status) {
    SKALLA_RETURN_NOT_OK(s);
  }
  SKALLA_HISTOGRAM_RECORD("skalla.coord.merge_us",
                          static_cast<double>(merge_timer.ElapsedMicros()));
  return Status::OK();
}

Status Coordinator::FinalizeRound() {
  if (!in_round_) return Status::Internal("FinalizeRound outside a round");
  size_t groups = 0;
  for (const Shard& s : work_shards_) groups += s.rows.num_rows();
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
    auto [start, len] = agg_part_ranges_[ai];
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
    (void)len;
  }
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                          Schema::Make(std::move(fields)));
  // Super-aggregate each shard in place (shard-parallel), then
  // concatenate in stream order.
  std::vector<Shard> out_shards(num_shards_);
  RunSharded([&](size_t shard) {
    SKALLA_TRACE_SPAN(shard_span, "coord.finalize.shard", "coordinator");
    SKALLA_SPAN_ATTR(shard_span, "shard", static_cast<uint64_t>(shard));
    Shard& in = work_shards_[shard];
    Shard& fin = out_shards[shard];
    fin.rows = Table(out_schema);
    fin.rows.Reserve(in.rows.num_rows());
    fin.seq = std::move(in.seq);
    for (size_t r = 0; r < in.rows.num_rows(); ++r) {
      const Row& w = in.rows.row(r);
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
      fin.rows.AppendUnchecked(std::move(row));
    }
  });
  x_ = ConcatShards(out_shards, out_schema);
  work_shards_.clear();
  in_round_ = false;
  return Status::OK();
}

}  // namespace skalla

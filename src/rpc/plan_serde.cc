#include "rpc/plan_serde.h"

#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "types/value_set.h"

namespace skalla {
namespace rpc {

namespace {

// Deep-but-degenerate expression trees (a parser can nest thousands of
// parentheses) must not overflow the decoder's stack.
constexpr int kMaxExprDepth = 512;

constexpr uint8_t kAbsent = 0;
constexpr uint8_t kPresent = 1;

Result<ExprPtr> ReadExprImpl(ByteReader* reader, int depth);

void WriteExprImpl(std::vector<uint8_t>* out, const Expr& expr) {
  out->push_back(static_cast<uint8_t>(expr.kind()));
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      WriteValue(out, expr.literal());
      return;
    case ExprKind::kColumnRef:
      out->push_back(static_cast<uint8_t>(expr.side()));
      WriteString(out, expr.column_name());
      return;
    case ExprKind::kUnary:
      out->push_back(static_cast<uint8_t>(expr.unary_op()));
      WriteExprImpl(out, *expr.operand());
      return;
    case ExprKind::kBinary:
      out->push_back(static_cast<uint8_t>(expr.binary_op()));
      WriteExprImpl(out, *expr.left());
      WriteExprImpl(out, *expr.right());
      return;
    case ExprKind::kInSet: {
      WriteExprImpl(out, *expr.operand());
      const auto& set = expr.value_set();
      PutVarint(out, set == nullptr ? 0 : set->size());
      if (set != nullptr) {
        set->ForEach([out](const Value& v) { WriteValue(out, v); });
      }
      return;
    }
  }
}

Result<ExprPtr> ReadExprImpl(ByteReader* reader, int depth) {
  if (depth > kMaxExprDepth) {
    return Status::IOError("expression tree too deep");
  }
  SKALLA_ASSIGN_OR_RETURN(uint8_t kind_tag, reader->ReadByte());
  switch (static_cast<ExprKind>(kind_tag)) {
    case ExprKind::kLiteral: {
      SKALLA_ASSIGN_OR_RETURN(Value v, ReadValue(reader));
      return Expr::Literal(std::move(v));
    }
    case ExprKind::kColumnRef: {
      SKALLA_ASSIGN_OR_RETURN(uint8_t side, reader->ReadByte());
      if (side > static_cast<uint8_t>(ExprSide::kDetail)) {
        return Status::IOError(StrCat("bad expr side tag ", int{side}));
      }
      SKALLA_ASSIGN_OR_RETURN(std::string name, ReadString(reader));
      return Expr::ColumnRef(static_cast<ExprSide>(side), std::move(name));
    }
    case ExprKind::kUnary: {
      SKALLA_ASSIGN_OR_RETURN(uint8_t op, reader->ReadByte());
      if (op > static_cast<uint8_t>(UnaryOp::kNeg)) {
        return Status::IOError(StrCat("bad unary op tag ", int{op}));
      }
      SKALLA_ASSIGN_OR_RETURN(ExprPtr operand,
                              ReadExprImpl(reader, depth + 1));
      return Expr::Unary(static_cast<UnaryOp>(op), std::move(operand));
    }
    case ExprKind::kBinary: {
      SKALLA_ASSIGN_OR_RETURN(uint8_t op, reader->ReadByte());
      if (op > static_cast<uint8_t>(BinaryOp::kOr)) {
        return Status::IOError(StrCat("bad binary op tag ", int{op}));
      }
      SKALLA_ASSIGN_OR_RETURN(ExprPtr left, ReadExprImpl(reader, depth + 1));
      SKALLA_ASSIGN_OR_RETURN(ExprPtr right, ReadExprImpl(reader, depth + 1));
      return Expr::Binary(static_cast<BinaryOp>(op), std::move(left),
                          std::move(right));
    }
    case ExprKind::kInSet: {
      SKALLA_ASSIGN_OR_RETURN(ExprPtr operand,
                              ReadExprImpl(reader, depth + 1));
      SKALLA_ASSIGN_OR_RETURN(uint64_t count, reader->ReadVarint());
      auto set = std::make_shared<ValueSet>();
      for (uint64_t i = 0; i < count; ++i) {
        SKALLA_ASSIGN_OR_RETURN(Value v, ReadValue(reader));
        set->Insert(v);
      }
      return Expr::InSet(std::move(operand), std::move(set));
    }
    default:
      return Status::IOError(StrCat("bad expr kind tag ", int{kind_tag}));
  }
}

Result<uint8_t> ReadFlags(ByteReader* reader) { return reader->ReadByte(); }

// A RoundProfile's span subtree is bounded by the instrumentation (a few
// spans per morsel at worst); anything beyond this is a corrupt payload.
constexpr uint64_t kMaxProfileSpans = 1u << 20;
constexpr uint64_t kMaxSpanAttrs = 1u << 12;

}  // namespace

void WriteTraceContext(std::vector<uint8_t>* out, const TraceContext& ctx) {
  PutVarint(out, ctx.trace_id);
  PutVarint(out, ctx.parent_span_id);
  PutVarint(out, ctx.query_id);
}

Result<TraceContext> ReadTraceContext(ByteReader* reader) {
  TraceContext ctx;
  SKALLA_ASSIGN_OR_RETURN(ctx.trace_id, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(ctx.parent_span_id, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(ctx.query_id, reader->ReadVarint());
  return ctx;
}

void WriteRoundProfile(std::vector<uint8_t>* out,
                       const RoundProfile& profile) {
  PutVarint(out, ZigzagEncode(profile.site_id));
  PutVarint(out, profile.wall_us);
  PutVarint(out, profile.eval_us);
  PutVarint(out, profile.morsel_us);
  PutVarint(out, profile.rows_scanned);
  PutVarint(out, profile.rows_matched);
  PutVarint(out, profile.index_hits);
  PutVarint(out, profile.bytes_in);
  PutVarint(out, profile.bytes_out);
  PutVarint(out, profile.result_rows);
  PutVarint(out, profile.duplicate_rounds);
  PutVarint(out, profile.chaos_faults);
  PutVarint(out, profile.engines_used);
  PutVarint(out, profile.chunks_pruned);
  PutVarint(out, profile.pages_loaded);
  PutVarint(out, profile.bytes_loaded);
  PutVarint(out, profile.fused ? 1 : 0);
  PutVarint(out, profile.spans.size());
  for (const obs::TraceEvent& e : profile.spans) {
    WriteString(out, e.name);
    WriteString(out, e.category);
    PutVarint(out, ZigzagEncode(e.ts_us));
    PutVarint(out, ZigzagEncode(e.dur_us));
    PutVarint(out, e.id);
    PutVarint(out, e.parent_id);
    PutVarint(out, e.tid);
    PutVarint(out, e.attrs.size());
    for (const auto& [key, value] : e.attrs) {
      WriteString(out, key);
      WriteString(out, value);
    }
  }
}

Result<RoundProfile> ReadRoundProfile(ByteReader* reader) {
  RoundProfile profile;
  SKALLA_ASSIGN_OR_RETURN(uint64_t site_raw, reader->ReadVarint());
  profile.site_id = static_cast<int>(ZigzagDecode(site_raw));
  SKALLA_ASSIGN_OR_RETURN(profile.wall_us, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.eval_us, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.morsel_us, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.rows_scanned, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.rows_matched, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.index_hits, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.bytes_in, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.bytes_out, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.result_rows, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.duplicate_rounds, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.chaos_faults, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(uint64_t engines_raw, reader->ReadVarint());
  if (engines_raw > 0xFF) {
    return Status::IOError("implausible engine set");
  }
  profile.engines_used = static_cast<uint8_t>(engines_raw);
  SKALLA_ASSIGN_OR_RETURN(profile.chunks_pruned, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.pages_loaded, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(profile.bytes_loaded, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(uint64_t fused, reader->ReadVarint());
  if (fused > 1) return Status::IOError("bad fused flag");
  profile.fused = fused != 0;
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_spans, reader->ReadVarint());
  if (num_spans > kMaxProfileSpans) {
    return Status::IOError("implausible profile span count");
  }
  profile.spans.reserve(num_spans);
  for (uint64_t i = 0; i < num_spans; ++i) {
    obs::TraceEvent e;
    SKALLA_ASSIGN_OR_RETURN(e.name, ReadString(reader));
    SKALLA_ASSIGN_OR_RETURN(e.category, ReadString(reader));
    SKALLA_ASSIGN_OR_RETURN(uint64_t ts_raw, reader->ReadVarint());
    e.ts_us = ZigzagDecode(ts_raw);
    SKALLA_ASSIGN_OR_RETURN(uint64_t dur_raw, reader->ReadVarint());
    e.dur_us = ZigzagDecode(dur_raw);
    SKALLA_ASSIGN_OR_RETURN(e.id, reader->ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(e.parent_id, reader->ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(uint64_t tid, reader->ReadVarint());
    e.tid = static_cast<uint32_t>(tid);
    SKALLA_ASSIGN_OR_RETURN(uint64_t num_attrs, reader->ReadVarint());
    if (num_attrs > kMaxSpanAttrs) {
      return Status::IOError("implausible span attribute count");
    }
    e.attrs.reserve(num_attrs);
    for (uint64_t a = 0; a < num_attrs; ++a) {
      SKALLA_ASSIGN_OR_RETURN(std::string key, ReadString(reader));
      SKALLA_ASSIGN_OR_RETURN(std::string value, ReadString(reader));
      e.attrs.emplace_back(std::move(key), std::move(value));
    }
    profile.spans.push_back(std::move(e));
  }
  return profile;
}

void WriteString(std::vector<uint8_t>* out, std::string_view s) {
  PutVarint(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

Result<std::string> ReadString(ByteReader* reader) {
  SKALLA_ASSIGN_OR_RETURN(uint64_t len, reader->ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(const uint8_t* bytes, reader->ReadBytes(len));
  return std::string(reinterpret_cast<const char*>(bytes), len);
}

void WriteExpr(std::vector<uint8_t>* out, const ExprPtr& expr) {
  if (expr == nullptr) {
    out->push_back(kAbsent);
    return;
  }
  out->push_back(kPresent);
  WriteExprImpl(out, *expr);
}

Result<ExprPtr> ReadExpr(ByteReader* reader) {
  SKALLA_ASSIGN_OR_RETURN(uint8_t marker, reader->ReadByte());
  if (marker == kAbsent) return ExprPtr(nullptr);
  if (marker != kPresent) {
    return Status::IOError(StrCat("bad expr presence marker ", int{marker}));
  }
  return ReadExprImpl(reader, 0);
}

void WriteSchema(std::vector<uint8_t>* out, const Schema& schema) {
  PutVarint(out, schema.num_fields());
  for (const Field& f : schema.fields()) {
    WriteString(out, f.name);
    out->push_back(static_cast<uint8_t>(f.type));
  }
}

Result<SchemaPtr> ReadSchema(ByteReader* reader) {
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_fields, reader->ReadVarint());
  if (num_fields > 1u << 20) {
    return Status::IOError("implausible field count");
  }
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint64_t i = 0; i < num_fields; ++i) {
    SKALLA_ASSIGN_OR_RETURN(std::string name, ReadString(reader));
    SKALLA_ASSIGN_OR_RETURN(uint8_t type, reader->ReadByte());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::IOError(StrCat("bad field type tag ", int{type}));
    }
    fields.push_back(Field{std::move(name), static_cast<ValueType>(type)});
  }
  return Schema::Make(std::move(fields));
}

void WriteStatusPayload(std::vector<uint8_t>* out, const Status& status) {
  out->push_back(static_cast<uint8_t>(status.code()));
  WriteString(out, status.message());
}

Status ReadStatusPayload(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload.data(), payload.size());
  Result<uint8_t> code = reader.ReadByte();
  if (!code.ok()) {
    return Status::IOError("truncated status payload");
  }
  if (*code > static_cast<uint8_t>(StatusCode::kFailedPrecondition)) {
    return Status::IOError(StrCat("bad status code tag ", int{*code}));
  }
  Result<std::string> message = ReadString(&reader);
  if (!message.ok()) {
    return Status::IOError("truncated status payload");
  }
  return Status(static_cast<StatusCode>(*code), std::move(*message));
}

void WriteBaseQuery(std::vector<uint8_t>* out, const BaseQuery& query) {
  WriteString(out, query.table);
  PutVarint(out, query.columns.size());
  for (const std::string& column : query.columns) WriteString(out, column);
  out->push_back(query.distinct ? 1 : 0);
  WriteExpr(out, query.where);
}

Result<BaseQuery> ReadBaseQuery(ByteReader* reader) {
  BaseQuery query;
  SKALLA_ASSIGN_OR_RETURN(query.table, ReadString(reader));
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_columns, reader->ReadVarint());
  query.columns.reserve(num_columns);
  for (uint64_t i = 0; i < num_columns; ++i) {
    SKALLA_ASSIGN_OR_RETURN(std::string column, ReadString(reader));
    query.columns.push_back(std::move(column));
  }
  SKALLA_ASSIGN_OR_RETURN(uint8_t distinct, reader->ReadByte());
  query.distinct = distinct != 0;
  SKALLA_ASSIGN_OR_RETURN(query.where, ReadExpr(reader));
  return query;
}

void WriteGmdjOp(std::vector<uint8_t>* out, const GmdjOp& op) {
  WriteString(out, op.detail_table);
  PutVarint(out, op.blocks.size());
  for (const GmdjBlock& block : op.blocks) {
    PutVarint(out, block.aggs.size());
    for (const AggSpec& agg : block.aggs) {
      out->push_back(static_cast<uint8_t>(agg.kind));
      WriteString(out, agg.input);
      WriteString(out, agg.output);
    }
    WriteExpr(out, block.theta);
  }
}

Result<GmdjOp> ReadGmdjOp(ByteReader* reader) {
  GmdjOp op;
  SKALLA_ASSIGN_OR_RETURN(op.detail_table, ReadString(reader));
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_blocks, reader->ReadVarint());
  op.blocks.reserve(num_blocks);
  for (uint64_t b = 0; b < num_blocks; ++b) {
    GmdjBlock block;
    SKALLA_ASSIGN_OR_RETURN(uint64_t num_aggs, reader->ReadVarint());
    block.aggs.reserve(num_aggs);
    for (uint64_t a = 0; a < num_aggs; ++a) {
      AggSpec spec;
      SKALLA_ASSIGN_OR_RETURN(uint8_t kind, reader->ReadByte());
      if (kind > static_cast<uint8_t>(AggKind::kSumSq)) {
        return Status::IOError(StrCat("bad aggregate kind tag ", int{kind}));
      }
      spec.kind = static_cast<AggKind>(kind);
      SKALLA_ASSIGN_OR_RETURN(spec.input, ReadString(reader));
      SKALLA_ASSIGN_OR_RETURN(spec.output, ReadString(reader));
      block.aggs.push_back(std::move(spec));
    }
    SKALLA_ASSIGN_OR_RETURN(block.theta, ReadExpr(reader));
    op.blocks.push_back(std::move(block));
  }
  return op;
}

std::vector<uint8_t> EncodeEndPlanRequest(uint64_t query_id) {
  std::vector<uint8_t> out;
  PutVarint(&out, query_id);
  return out;
}

Result<uint64_t> DecodeEndPlanRequest(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload.data(), payload.size());
  SKALLA_ASSIGN_OR_RETURN(uint64_t query_id, reader.ReadVarint());
  if (reader.remaining() != 0) {
    return Status::IOError("trailing bytes after end-plan request");
  }
  return query_id;
}

std::vector<uint8_t> EncodeGmdjRoundRequest(
    const GmdjRoundRequest& req,
    const std::vector<uint8_t>& base_table_bytes) {
  std::vector<uint8_t> out;
  uint8_t flags = 0;
  if (req.sub_aggregates) flags |= 1;
  if (req.apply_rng) flags |= 2;
  if (req.ship_result) flags |= 4;
  if (req.has_base) flags |= 8;
  if (req.has_base_query) flags |= 16;
  out.push_back(flags);
  PutVarint(&out, req.deadline_ms);
  WriteTraceContext(&out, req.trace);
  WriteString(&out, req.label);
  WriteGmdjOp(&out, req.op);
  if (req.has_base_query) WriteBaseQuery(&out, req.base_query);
  if (req.has_base) {
    out.insert(out.end(), base_table_bytes.begin(), base_table_bytes.end());
  }
  return out;
}

Result<GmdjRoundRequest> DecodeGmdjRoundRequest(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload.data(), payload.size());
  SKALLA_ASSIGN_OR_RETURN(uint8_t flags, ReadFlags(&reader));
  GmdjRoundRequest req;
  req.sub_aggregates = (flags & 1) != 0;
  req.apply_rng = (flags & 2) != 0;
  req.ship_result = (flags & 4) != 0;
  req.has_base = (flags & 8) != 0;
  req.has_base_query = (flags & 16) != 0;
  if (req.has_base && req.has_base_query) {
    return Status::IOError(
        "gmdj-round request carries both X and a base query");
  }
  SKALLA_ASSIGN_OR_RETURN(req.deadline_ms, reader.ReadVarint());
  SKALLA_ASSIGN_OR_RETURN(req.trace, ReadTraceContext(&reader));
  SKALLA_ASSIGN_OR_RETURN(req.label, ReadString(&reader));
  SKALLA_ASSIGN_OR_RETURN(req.op, ReadGmdjOp(&reader));
  if (req.has_base_query) {
    SKALLA_ASSIGN_OR_RETURN(req.base_query, ReadBaseQuery(&reader));
  }
  size_t table_offset = payload.size() - reader.remaining();
  if (req.has_base) {
    req.base_table_bytes = payload.size() - table_offset;
    SKALLA_ASSIGN_OR_RETURN(
        req.base, ReadTable(payload.data() + table_offset,
                            payload.size() - table_offset));
  } else if (reader.remaining() != 0) {
    return Status::IOError("trailing bytes after gmdj-round request");
  }
  return req;
}

std::vector<uint8_t> EncodeCatalogResponse(
    const std::vector<CatalogEntry>& entries) {
  std::vector<uint8_t> out;
  PutVarint(&out, entries.size());
  for (const CatalogEntry& entry : entries) {
    WriteString(&out, entry.name);
    WriteSchema(&out, *entry.schema);
  }
  return out;
}

Result<std::vector<CatalogEntry>> DecodeCatalogResponse(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload.data(), payload.size());
  SKALLA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  std::vector<CatalogEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CatalogEntry entry;
    SKALLA_ASSIGN_OR_RETURN(entry.name, ReadString(&reader));
    SKALLA_ASSIGN_OR_RETURN(entry.schema, ReadSchema(&reader));
    entries.push_back(std::move(entry));
  }
  if (reader.remaining() != 0) {
    return Status::IOError("trailing bytes after catalog response");
  }
  return entries;
}

std::vector<uint8_t> EncodeHello(int site_id) {
  std::vector<uint8_t> out;
  PutVarint(&out, ZigzagEncode(site_id));
  return out;
}

Result<int> DecodeHello(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload.data(), payload.size());
  SKALLA_ASSIGN_OR_RETURN(uint64_t raw, reader.ReadVarint());
  return static_cast<int>(ZigzagDecode(raw));
}

std::vector<uint8_t> EncodeRoundResult(
    const RoundProfile& profile, const std::vector<uint8_t>* table_bytes) {
  std::vector<uint8_t> out;
  out.push_back(table_bytes != nullptr ? 1 : 0);
  WriteRoundProfile(&out, profile);
  if (table_bytes != nullptr) {
    out.insert(out.end(), table_bytes->begin(), table_bytes->end());
  }
  return out;
}

Result<RoundResult> DecodeRoundResult(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload.data(), payload.size());
  SKALLA_ASSIGN_OR_RETURN(uint8_t flags, ReadFlags(&reader));
  RoundResult result;
  result.has_table = (flags & 1) != 0;
  SKALLA_ASSIGN_OR_RETURN(result.profile, ReadRoundProfile(&reader));
  size_t table_offset = payload.size() - reader.remaining();
  if (result.has_table) {
    result.table_bytes = payload.size() - table_offset;
    SKALLA_ASSIGN_OR_RETURN(
        result.table, ReadTableColumns(payload.data() + table_offset,
                                       payload.size() - table_offset));
  } else if (reader.remaining() != 0) {
    return Status::IOError("trailing bytes after round result");
  }
  return result;
}

std::vector<uint8_t> EncodeStatsResult(const StatsResult& stats) {
  std::vector<uint8_t> out;
  PutVarint(&out, ZigzagEncode(stats.site_id));
  WriteString(&out, stats.metrics_json);
  return out;
}

Result<StatsResult> DecodeStatsResult(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload.data(), payload.size());
  StatsResult stats;
  SKALLA_ASSIGN_OR_RETURN(uint64_t raw, reader.ReadVarint());
  stats.site_id = static_cast<int>(ZigzagDecode(raw));
  SKALLA_ASSIGN_OR_RETURN(stats.metrics_json, ReadString(&reader));
  if (reader.remaining() != 0) {
    return Status::IOError("trailing bytes after stats result");
  }
  return stats;
}

}  // namespace rpc
}  // namespace skalla

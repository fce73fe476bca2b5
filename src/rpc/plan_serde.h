// Binary encoding of the query-shaped halves of the rpc protocol:
// expressions, base queries, GMDJ operators, schemas, and statuses. Table
// payloads reuse net/serde (the bytes the paper's accounting counts);
// this module covers everything else a site must decode to evaluate a
// round it has never seen.
//
// All encodings are varint/tag based, little-endian, and carry no frame
// header — framing (magic, version, checksum) is rpc/frame.h's job.

#ifndef SKALLA_RPC_PLAN_SERDE_H_
#define SKALLA_RPC_PLAN_SERDE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/gmdj.h"
#include "dist/executor.h"
#include "expr/expr.h"
#include "net/serde.h"
#include "obs/trace.h"
#include "relalg/operators.h"
#include "storage/table.h"
#include "types/schema.h"

namespace skalla {
namespace rpc {

// --- Primitives ----------------------------------------------------------

void WriteString(std::vector<uint8_t>* out, std::string_view s);
Result<std::string> ReadString(ByteReader* reader);

/// Expression trees (named column references; resolved indices are not
/// shipped — sites Bind against their local schemas). A null ExprPtr
/// encodes as an absence marker and decodes back to nullptr.
void WriteExpr(std::vector<uint8_t>* out, const ExprPtr& expr);
Result<ExprPtr> ReadExpr(ByteReader* reader);

void WriteSchema(std::vector<uint8_t>* out, const Schema& schema);
Result<SchemaPtr> ReadSchema(ByteReader* reader);

/// Status <-> kError payload. Decoding reproduces the original code, so a
/// site-side NotFound surfaces at the coordinator as NotFound — not as a
/// generic transport error. A malformed payload decodes to an IOError
/// (an error either way; the caller just propagates it).
void WriteStatusPayload(std::vector<uint8_t>* out, const Status& status);
Status ReadStatusPayload(const std::vector<uint8_t>& payload);

// --- Plan pieces ---------------------------------------------------------

void WriteBaseQuery(std::vector<uint8_t>* out, const BaseQuery& query);
Result<BaseQuery> ReadBaseQuery(ByteReader* reader);

void WriteGmdjOp(std::vector<uint8_t>* out, const GmdjOp& op);
Result<GmdjOp> ReadGmdjOp(ByteReader* reader);

// --- Tracing / profiling payloads ----------------------------------------

/// Trace context a coordinator propagates with every round request so a
/// site's spans and metrics land in the same distributed trace. All
/// fields zero = untraced (sites skip span capture). Wire format: three
/// varints after deadline_ms in every round request (protocol version 4;
/// always present, zeros when tracing is off).
struct TraceContext {
  uint64_t trace_id = 0;        // Coordinator tracer identity (diagnostic).
  uint64_t parent_span_id = 0;  // Coordinator span the round runs under.
  uint64_t query_id = 0;        // Coordinator query id (tags site telemetry).
};
void WriteTraceContext(std::vector<uint8_t>* out, const TraceContext& ctx);
Result<TraceContext> ReadTraceContext(ByteReader* reader);

/// What one site measured evaluating one round (the SiteRoundProfile
/// counters the coordinator keeps), plus the span subtree that rides
/// along. Travels back inside every kRoundResult payload, self-delimiting
/// so the table payload can follow it. Wire order (all varints, site_id
/// zigzag): site_id through chaos_faults as declared, then engines_used
/// (protocol v6), chunks_pruned (v8), pages_loaded and bytes_loaded (v9),
/// fused as 0/1 (v10), then the spans.
struct RoundProfile : SiteRoundProfile {
  /// The site's span subtree for this round (empty when untraced). Span
  /// ids/parents are site-local; the coordinator remaps them on import.
  std::vector<obs::TraceEvent> spans;
};
void WriteRoundProfile(std::vector<uint8_t>* out, const RoundProfile& profile);
Result<RoundProfile> ReadRoundProfile(ByteReader* reader);

// --- Request/response payloads -------------------------------------------

/// kEndPlan: releases the site-side round state of one query (varint
/// query id). A site creates that state on the first round that reads or
/// leaves a carried structure, so the coordinator sends kEndPlan only to
/// the endpoints it sent such a round to. Best-effort — sites also cap
/// and evict the state map, so a coordinator that dies mid-query leaks
/// nothing permanently.
std::vector<uint8_t> EncodeEndPlanRequest(uint64_t query_id);
/// Rejects truncated payloads and trailing bytes.
Result<uint64_t> DecodeEndPlanRequest(const std::vector<uint8_t>& payload);

/// kGmdjRound: evaluate one GMDJ operator. When has_base, the request
/// tail carries the (coordinator-filtered) base structure, encoded with
/// net/serde exactly as a synchronized round ships it back. When
/// has_base_query (a Prop. 2 plan's first round, or the synchronized
/// base round, whose operator has no blocks), the site computes its base
/// B_i from the carried base query and evaluates the operator over it in
/// the same request (Site::EvalBaseAndGmdjRound). Otherwise the
/// site evaluates against its carried-over local structure (Theorem 5
/// unsynchronized continuation). apply_rng mirrors Prop. 1: the site
/// drops |RNG| = 0 groups before shipping.
struct GmdjRoundRequest {
  GmdjOp op;
  std::string label;  // round label, e.g. "md2" (diagnostics)
  bool sub_aggregates = false;
  bool apply_rng = false;
  bool ship_result = true;
  bool has_base = false;
  /// Flag bit 16; the serialized BaseQuery follows the operator
  /// (protocol version 10). Never set together with has_base.
  bool has_base_query = false;
  BaseQuery base_query;  // meaningful when has_base_query
  /// Round deadline in milliseconds, 0 = none (varint after the flags
  /// byte, protocol version 3). The site arms a CancellationToken for
  /// the round's evaluation; a fired deadline surfaces as a
  /// kDeadlineExceeded error response.
  uint64_t deadline_ms = 0;
  /// Distributed trace propagation (protocol version 4).
  TraceContext trace;
  Table base;  // meaningful when has_base
  /// Decoder-filled: size of the serialized base table tail in bytes
  /// (0 when !has_base). Lets the site report bytes_in without
  /// re-serializing the table. Not part of the wire format.
  uint64_t base_table_bytes = 0;
};

/// `base_table_bytes` must be WriteTable output (ignored unless
/// req.has_base); the caller serializes the table itself so it can
/// account those exact bytes.
std::vector<uint8_t> EncodeGmdjRoundRequest(
    const GmdjRoundRequest& req, const std::vector<uint8_t>& base_table_bytes);
Result<GmdjRoundRequest> DecodeGmdjRoundRequest(
    const std::vector<uint8_t>& payload);

/// kCatalogResponse: the site's table names and schemas, so the
/// coordinator can run schema inference without local partitions.
struct CatalogEntry {
  std::string name;
  SchemaPtr schema;
};
std::vector<uint8_t> EncodeCatalogResponse(
    const std::vector<CatalogEntry>& entries);
Result<std::vector<CatalogEntry>> DecodeCatalogResponse(
    const std::vector<uint8_t>& payload);

/// kHello: site id handshake.
std::vector<uint8_t> EncodeHello(int site_id);
Result<int> DecodeHello(const std::vector<uint8_t>& payload);

/// kRoundResult: the protocol-v4 response to every round request —
/// a flags byte (bit 0: a table payload follows), the round's
/// RoundProfile, then the raw net/serde table bytes when shipped. The
/// table tail is byte-identical to what a v3 kTableResult carried, so
/// `payload.size() - table offset` preserves the byte-accounting
/// contract (bytes_to_coord counts table payload bytes only). The table
/// decodes straight into typed columns (ReadTableColumns): the fragment
/// the coordinator merges is never boxed.
struct RoundResult {
  RoundProfile profile;
  bool has_table = false;
  ChunkPtr table;                // set when has_table
  uint64_t table_bytes = 0;      // decoder-filled size of the table tail
};

/// `table_bytes` must be WriteTable output; pass nullptr for a round
/// that ships no table (kAck-style unsynchronized rounds).
std::vector<uint8_t> EncodeRoundResult(const RoundProfile& profile,
                                       const std::vector<uint8_t>* table_bytes);
Result<RoundResult> DecodeRoundResult(const std::vector<uint8_t>& payload);

/// kStatsResult: one site's metrics snapshot (MetricsRegistry JSON).
struct StatsResult {
  int site_id = 0;
  std::string metrics_json;
};
std::vector<uint8_t> EncodeStatsResult(const StatsResult& stats);
Result<StatsResult> DecodeStatsResult(const std::vector<uint8_t>& payload);

}  // namespace rpc
}  // namespace skalla

#endif  // SKALLA_RPC_PLAN_SERDE_H_

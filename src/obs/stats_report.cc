#include "obs/stats_report.h"

#include "common/string_util.h"
#include "core/eval_context.h"
#include "obs/obs.h"

namespace skalla {
namespace obs {

namespace {

// One annotated stage line: the measured RoundStats columns.
std::string RoundLine(const RoundStats& r) {
  std::string out;
  out += StrPrintf(
      "    analyzed: %llu bytes / %llu tuples down, %llu bytes / %llu "
      "tuples up\n",
      static_cast<unsigned long long>(r.bytes_to_sites),
      static_cast<unsigned long long>(r.tuples_to_sites),
      static_cast<unsigned long long>(r.bytes_to_coord),
      static_cast<unsigned long long>(r.tuples_to_coord));
  out += StrPrintf(
      "              site max %.3f ms (sum %.3f ms), coord %.3f ms, comm "
      "%.3f ms -> response %.3f ms\n",
      r.site_time_max * 1e3, r.site_time_sum * 1e3, r.coord_time * 1e3,
      r.comm_time * 1e3, r.ResponseTime() * 1e3);
  if (r.sites_skipped > 0 || r.site_retries > 0) {
    out += StrPrintf("              sites skipped %zu, retries %zu\n",
                     r.sites_skipped, r.site_retries);
  }
  if (r.wall_time > 0) {
    out += StrPrintf(
        "              wall (overlapped) %.3f ms, fan-out wait %.3f ms\n",
        r.wall_time * 1e3, r.fanout_wait * 1e3);
  }
  if (r.wire_bytes > 0) {
    out += StrPrintf("              wire %llu bytes (frame headers incl.)\n",
                     static_cast<unsigned long long>(r.wire_bytes));
  }
  return out;
}

// Per-site breakdown under a round, one line per SiteRoundProfile (sites
// skipped or lost this round have none).
std::string SiteProfileLines(const RoundStats& r) {
  std::string out;
  if (r.site_profiles.empty()) return out;
  out +=
      "              site    wall_ms    eval_ms  morsel_ms    scanned"
      "    matched   idx_hits   bytes_in  bytes_out       rows\n";
  for (const SiteRoundProfile& p : r.site_profiles) {
    out += StrPrintf(
        "              %4d  %9.3f  %9.3f  %9.3f  %9llu  %9llu  %9llu"
        "  %9llu  %9llu  %9llu",
        p.site_id, p.wall_us / 1e3, p.eval_us / 1e3, p.morsel_us / 1e3,
        static_cast<unsigned long long>(p.rows_scanned),
        static_cast<unsigned long long>(p.rows_matched),
        static_cast<unsigned long long>(p.index_hits),
        static_cast<unsigned long long>(p.bytes_in),
        static_cast<unsigned long long>(p.bytes_out),
        static_cast<unsigned long long>(p.result_rows));
    if (p.engines_used != 0) {
      out += StrCat("  [", EngineSetToString(p.engines_used), "]");
    }
    if (r.fused_base) {
      out += p.fused ? "  [fused]" : StrCat("  [base, then ", r.label, "]");
    }
    if (p.chunks_pruned > 0) {
      out += StrPrintf("  (pruned %llu chunks)",
                       static_cast<unsigned long long>(p.chunks_pruned));
    }
    if (p.pages_loaded > 0) {
      out += StrPrintf("  (loaded %llu pages, %llu B)",
                       static_cast<unsigned long long>(p.pages_loaded),
                       static_cast<unsigned long long>(p.bytes_loaded));
    }
    if (p.duplicate_rounds > 0 || p.chaos_faults > 0) {
      out += StrPrintf("  (dup %llu, chaos %llu)",
                       static_cast<unsigned long long>(p.duplicate_rounds),
                       static_cast<unsigned long long>(p.chaos_faults));
    }
    out += "\n";
  }
  return out;
}

}  // namespace

std::string FormatStatsReport(const DistributedPlan& plan,
                              const ExecStats& stats, size_t num_sites,
                              const StatsReportOptions& options) {
  std::string out = "EXPLAIN ANALYZE\n";
  if (stats.query_id > 0) {
    out += StrPrintf("  query id: %llu\n",
                     static_cast<unsigned long long>(stats.query_id));
  }

  if (stats.from_cache) {
    out += StrPrintf(
        "  cache: HIT (sub-aggregate cache) — 0 evaluation rounds, 0 "
        "bytes transferred\n"
        "  total: 0 bytes, 0 tuples, 0 sync rounds over %zu stages + "
        "base\n",
        plan.stages.size());
    return out;
  }

  // A Prop. 2 plan sends no base round: its first GMDJ round computes
  // each site's base.
  const size_t base_rounds = plan.sync_base ? 1 : 0;
  if (stats.rounds.size() != plan.stages.size() + base_rounds) {
    out += StrPrintf(
        "  (stats have %zu rounds for a plan with %zu stages%s; was this "
        "ExecStats produced by this plan?)\n",
        stats.rounds.size(), plan.stages.size(),
        plan.sync_base ? " + base" : "");
    out += stats.ToString();
    return out;
  }

  out += StrCat("  base: ", plan.base.ToString(),
                plan.sync_base ? " [sync]" : " [no-sync, fused into md1]",
                "\n");
  if (plan.sync_base) {
    out += RoundLine(stats.rounds[0]);
    out += SiteProfileLines(stats.rounds[0]);
  }
  for (size_t k = 0; k < plan.stages.size(); ++k) {
    const RoundStats& round = stats.rounds[k + base_rounds];
    out += StrCat("  stage ", k + 1, ": ",
                  plan.stages[k].ToString(num_sites), "\n");
    out += RoundLine(round);
    out += SiteProfileLines(round);
  }

  out += StrPrintf(
      "  total: %llu bytes (%llu down, %llu up), %llu tuples, %zu sync "
      "rounds, response %.3f ms\n",
      static_cast<unsigned long long>(stats.TotalBytes()),
      static_cast<unsigned long long>(stats.TotalBytesToSites()),
      static_cast<unsigned long long>(stats.TotalBytesToCoord()),
      static_cast<unsigned long long>(stats.TotalTuplesTransferred()),
      stats.NumSyncRounds(), stats.ResponseTime() * 1e3);
  if (stats.engines_used != 0) {
    out += StrCat("  engines: ", EngineSetToString(stats.engines_used), "\n");
  }
  if (stats.total_wire_bytes > 0) {
    out += StrPrintf(
        "  wire: %llu bytes on the wire\n",
        static_cast<unsigned long long>(stats.total_wire_bytes));
  }

  if (options.include_trace_tree) {
    if (TracingCompiledIn() && Tracer::Global().enabled()) {
      out += "  trace:\n";
      std::string tree = Tracer::Global().ToTreeString();
      // Indent the tree under the report.
      size_t start = 0;
      while (start < tree.size()) {
        size_t end = tree.find('\n', start);
        if (end == std::string::npos) end = tree.size();
        out += "    " + tree.substr(start, end - start) + "\n";
        start = end + 1;
      }
    } else {
      out += TracingCompiledIn()
                 ? "  trace: (tracer disabled; enable with .trace)\n"
                 : "  trace: (built with SKALLA_TRACING=OFF)\n";
    }
  }
  return out;
}

}  // namespace obs
}  // namespace skalla

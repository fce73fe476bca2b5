// EXPLAIN ANALYZE: joins the distributed plan tree with the per-round
// ExecStats the executor measured (and, when tracing is enabled, the
// recorded span tree) into one annotated report — what EXPLAIN predicts,
// ANALYZE confirms.
//
// Every per-stage number is taken from the same RoundStats the executor
// filled in, so the report's byte/tuple columns sum exactly to the
// ExecStats totals (tested in tests/exec_stats_test.cc).

#ifndef SKALLA_OBS_STATS_REPORT_H_
#define SKALLA_OBS_STATS_REPORT_H_

#include <string>

#include "dist/executor.h"
#include "dist/plan.h"

namespace skalla {
namespace obs {

struct StatsReportOptions {
  /// Append the recorded span tree (Tracer::Global().ToTreeString())
  /// under the per-stage table. Only meaningful when the build has
  /// SKALLA_TRACING and the global tracer is enabled.
  bool include_trace_tree = false;
};

/// Renders the EXPLAIN ANALYZE report for an executed plan. `stats` must
/// come from executing `plan`: with a synchronized base, rounds[0] is the
/// base round and rounds[k+1] annotates plan.stages[k]; a Prop. 2 plan
/// has no base round, so rounds[k] annotates plan.stages[k] and the
/// first stage's site lines say whether each site ran the base query
/// fused into that round ([fused]) or as a scan before it ([base, then
/// md1]). A mismatched pair yields a diagnostic header instead of
/// per-stage rows.
std::string FormatStatsReport(const DistributedPlan& plan,
                              const ExecStats& stats, size_t num_sites,
                              const StatsReportOptions& options = {});

}  // namespace obs
}  // namespace skalla

#endif  // SKALLA_OBS_STATS_REPORT_H_

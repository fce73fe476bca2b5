#include "opt/explain.h"

#include "common/string_util.h"

namespace skalla {

std::string ExplainPlan(const GmdjExpr& expr, const DistributedPlan& plan,
                        size_t num_sites, const OptimizerOptions& options,
                        const CostModel* model) {
  std::string out;
  out += StrCat("QUERY: ", expr.ToString(), "\n");
  out += StrCat("OPTIMIZATIONS REQUESTED: ", options.ToString(), "\n");
  out += plan.ToString(num_sites);

  // Narrate which structural optimizations actually fired.
  std::vector<std::string> notes;
  if (expr.ops.size() > plan.stages.size()) {
    notes.push_back(StrCat("coalescing merged ", expr.ops.size(),
                           " operators into ", plan.stages.size(),
                           " stage(s)"));
  }
  if (!plan.sync_base) {
    notes.push_back(
        "Prop. 2: base-values synchronization skipped (each site "
        "computes its base locally, inside the first round)");
  }
  size_t skipped = 0;
  for (const PlanStage& stage : plan.stages) {
    if (!stage.sync_after) ++skipped;
  }
  if (skipped > 0) {
    notes.push_back(StrCat("Cor. 1: ", skipped,
                           " inter-GMDJ synchronization(s) skipped "
                           "(partition-attribute entailment)"));
  }
  for (size_t k = 0; k < plan.stages.size(); ++k) {
    const PlanStage& stage = plan.stages[k];
    if (stage.indep_group_reduction) {
      notes.push_back(StrCat("stage ", k + 1,
                             ": sites ship only |RNG| > 0 groups "
                             "(Prop. 1)"));
    }
    if (!stage.site_base_filters.empty()) {
      size_t filtered = 0;
      for (const ExprPtr& f : stage.site_base_filters) {
        if (f != nullptr) ++filtered;
      }
      notes.push_back(StrCat("stage ", k + 1, ": ¬ψ filters derived for ",
                             filtered, "/", num_sites,
                             " site(s) (Theorem 4)"));
    }
  }
  if (notes.empty()) {
    out += "  (no distributed optimizations applied)\n";
  } else {
    for (const std::string& note : notes) {
      out += StrCat("  * ", note, "\n");
    }
  }

  if (model != nullptr) {
    auto estimate = model->Estimate(plan);
    if (estimate.ok()) {
      out += "PREDICTED TRANSFER:\n";
      out += estimate->ToString();
    } else {
      out += StrCat("PREDICTED TRANSFER: unavailable (",
                    estimate.status().message(), ")\n");
    }
  }
  return out;
}

}  // namespace skalla

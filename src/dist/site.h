// Site: a local data warehouse adjacent to a collection point. Each site
// holds a partition of every fact relation (its local Catalog) and is
// fully capable of evaluating GMDJ operators against its local data.

#ifndef SKALLA_DIST_SITE_H_
#define SKALLA_DIST_SITE_H_

#include <memory>
#include <mutex>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "core/evaluate.h"
#include "core/gmdj.h"
#include "relalg/operators.h"
#include "storage/catalog.h"

namespace skalla {

/// One Skalla site. Stateless across rounds: its SiteService
/// (rpc/site_service.h) holds the per-query structure an unsynchronized
/// round leaves for the next one.
///
/// Concurrency: a site evaluates one round at a time. Every entry point
/// that touches local data takes the site's round lock, which copies of
/// a Site share. In production it never contends:
/// DistributedWarehouse::MakeExecutor builds fresh Sites from the site
/// catalogs for each executor, and the SiteService that owns a Site
/// already serializes every call into it (SiteService::mu_), which is
/// the per-site round queue concurrent queries wait in.
class Site {
 public:
  /// `engine` is the GMDJ kernel the site evaluates rounds with: the
  /// columnar kernel, or one of the row oracle's modes, which tests use
  /// as a reference. Results are byte-identical across engines.
  Site(int id, Catalog catalog, EvalEngine engine = EvalEngine::kColumnar)
      : id_(id),
        catalog_(std::move(catalog)),
        engine_(engine),
        round_mu_(std::make_shared<std::mutex>()) {}

  int id() const { return id_; }
  const Catalog& catalog() const { return catalog_; }
  EvalEngine engine() const { return engine_; }

  /// Evaluates the base-values query against the local partition. The
  /// scan polls `context.cancellation` per chunk and fills
  /// `context.profile` (BaseQuery::Execute).
  Result<Table> ExecuteBaseQuery(const BaseQuery& query,
                                 const EvalContext& context = {}) const {
    std::lock_guard<std::mutex> round(*round_mu_);
    return query.Execute(catalog_, context);
  }

  /// Evaluates one GMDJ operator against the local detail partition for
  /// the given base-values relation. All engine routing lives in
  /// core::EvaluateGmdj — `context.engine` picks the kernel (the site
  /// service sets it to engine()), and the engine actually used lands in
  /// `context.profile->engines_used`.
  Result<Table> EvalGmdjRound(const Table& base, const GmdjOp& op,
                              const EvalContext& context) const {
    std::lock_guard<std::mutex> round(*round_mu_);
    return EvaluateGmdj(base, op, catalog_, context);
  }

  /// The fused first round of a Prop. 2 plan: the base query's local
  /// result B_i and the GMDJ operator over it, in one request and — when
  /// the shapes allow — one pass over the partition
  /// (core::EvaluateBaseAndGmdj, which also holds the fallback).
  Result<Table> EvalBaseAndGmdjRound(const BaseQuery& base, const GmdjOp& op,
                                     const EvalContext& context) const {
    std::lock_guard<std::mutex> round(*round_mu_);
    return EvaluateBaseAndGmdj(base, op, catalog_, context);
  }

  /// The local partition of the named detail relation.
  Result<const Table*> DetailTable(std::string_view name) const {
    return catalog_.Get(name);
  }

 private:
  int id_;
  Catalog catalog_;
  EvalEngine engine_;
  // Round lock; shared_ptr so copies of this Site share it.
  std::shared_ptr<std::mutex> round_mu_;
};

}  // namespace skalla

#endif  // SKALLA_DIST_SITE_H_

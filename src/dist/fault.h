// Fault injection for the distributed executor: chaos hooks that make
// site-round evaluations fail on demand, plus the retry policy knobs in
// ExecutorOptions that recover from such transient failures. A local
// warehouse's data survives a site-process crash (it is the durable copy
// adjacent to the collection point), so re-running the round at the
// recovered site is the natural recovery strategy; when a partition is
// replicated, the same round can instead fail over to a replica (see
// docs/FAULTS.md for the full retry -> failover -> degrade ladder).

#ifndef SKALLA_DIST_FAULT_H_
#define SKALLA_DIST_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"

namespace skalla {

/// Decides whether a site operation fails. Implementations must be
/// thread-safe: parallel executors call concurrently.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Called before site `site` evaluates round `round`. A non-OK status
  /// simulates a site failure for this attempt.
  virtual Status BeforeSiteRound(int site, const std::string& round) = 0;

  /// Called after every attempt with the attempt's outcome in `status`.
  /// Returning non-OK from a *successful* attempt simulates a lost
  /// response: the coordinator discards the site's result and the retry
  /// machinery re-runs the round (idempotent, like a re-sent rpc round).
  /// The default injects nothing.
  virtual Status AfterSiteRound(int site, const std::string& round,
                                const Status& status) {
    (void)site;
    (void)round;
    (void)status;
    return Status::OK();
  }
};

/// Fails the first `failures` attempts of every (site, round) pair — the
/// classic transient-crash model: the site comes back and the retry
/// succeeds. The (site, round) bookkeeping entry is dropped on the
/// attempt that passes, so long-lived injectors do not grow without
/// bound across rounds.
class TransientFaultInjector : public FaultInjector {
 public:
  explicit TransientFaultInjector(int failures = 1)
      : failures_(failures) {}

  Status BeforeSiteRound(int site, const std::string& round) override;

  /// Total failures injected so far.
  int64_t injected() const { return injected_.load(); }

  /// (site, round) pairs currently tracked — zero once every started
  /// pair has recovered (regression guard for unbounded growth).
  size_t tracked_entries() const;

 private:
  int failures_;
  std::atomic<int64_t> injected_{0};
  mutable std::mutex mu_;
  std::map<std::pair<int, std::string>, int> attempts_;
};

/// Fails every attempt at one site — the permanent-loss model; execution
/// must fail over to a replica, degrade, or surface the error once
/// retries are exhausted.
class PermanentSiteFailure : public FaultInjector {
 public:
  explicit PermanentSiteFailure(int site) : site_(site) {}

  Status BeforeSiteRound(int site, const std::string& round) override;

 private:
  int site_;
};

/// Deterministic chaos: a seeded probability x fault-type schedule over
/// (site, round, attempt, phase) tuples. Every decision is a pure
/// function of the seed and those coordinates — never of wall-clock time
/// or thread interleaving — so a chaos run is exactly reproducible from
/// its seed even under a concurrent site fan-out.
///
/// Fault classes:
///   - request faults  (BeforeSiteRound, probability before_fail_prob)
///   - response faults (AfterSiteRound on success, after_fail_prob) —
///     the site computed, the answer was lost
///   - dead sites: every attempt at a listed site fails permanently
///     (exercises failover / kDegrade)
///
/// At most `max_faults_per_site_round` faults are injected per
/// (site, round) pair, so any retry budget >= that bound always
/// recovers (dead sites excepted).
struct ChaosConfig {
  uint64_t seed = 0;
  double before_fail_prob = 0.0;
  double after_fail_prob = 0.0;
  int max_faults_per_site_round = 2;
  std::vector<int> dead_sites;
};

class ChaosInjector : public FaultInjector {
 public:
  explicit ChaosInjector(ChaosConfig config) : config_(std::move(config)) {}

  Status BeforeSiteRound(int site, const std::string& round) override;
  Status AfterSiteRound(int site, const std::string& round,
                        const Status& status) override;

  /// Total faults injected so far (dead-site failures included).
  int64_t injected() const { return injected_.load(); }

  /// Forgets per-(site, round) attempt history, so the next query replays
  /// the same schedule from the same seed.
  void Reset();

 private:
  Status MaybeInject(int site, const std::string& round, int phase,
                     double probability);

  ChaosConfig config_;
  std::atomic<int64_t> injected_{0};
  std::mutex mu_;
  // (site, round, phase) -> attempts seen; bounded by the distinct
  // tuples touched and cleared only by Reset(), so the per-phase fault
  // budget holds across a whole retry chain.
  std::map<std::tuple<int, std::string, int>, int> attempts_;
};

}  // namespace skalla

#endif  // SKALLA_DIST_FAULT_H_

// QueryScheduler: admits, runs, and cancels many queries concurrently
// against one executor (and therefore one pool of sites). The serving
// core of skalla-coord and QuerySession.
//
// Admission is FIFO with a fixed width: at most max_concurrent_queries
// plans execute at once; the rest wait in the queue, their deadline
// budget ticking (queue wait is part of the query's latency, so a query
// whose budget expires while queued fails with DeadlineExceeded without
// ever reaching the sites). How many workers a site evaluates a round
// with is the site's own decision, not the scheduler's.
//
// Repeated queries are answered from the SubAggregateCache (cache.h)
// when the plan fingerprint and partition epoch match a resident entry:
// the promise resolves with the cached table, the stats show zero
// rounds and from_cache = true, and the sites never hear about it. The
// lookup runs in Submit, on the caller's thread, so a hit is resolved
// before Submit returns — it bypasses the FIFO queue and cannot be
// cancelled. A worker looks up again before executing, so a query
// queued behind an identical miss still hits.
//
// Concurrency safety is the executor's contract (RpcExecutor::Execute
// with distinct QueryRuns): the executor interleaves tagged frames per
// site connection, and in-process sites also serialize rounds on their
// Site round locks. The scheduler adds no cross-query ordering beyond
// admission.

#ifndef SKALLA_SERVE_SCHEDULER_H_
#define SKALLA_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/cancellation.h"
#include "dist/executor.h"
#include "dist/plan.h"
#include "rpc/rpc_executor.h"
#include "serve/cache.h"

namespace skalla {
namespace serve {

struct SchedulerOptions {
  /// Admission width: plans executing at once. 0 = 1.
  size_t max_concurrent_queries = 4;

  /// SubAggregateCache capacity in serialized result bytes; 0 disables
  /// result caching.
  uint64_t cache_max_bytes = 64ull << 20;

  /// External component of the partition epoch, added to the scheduler's
  /// own counter — wire a warehouse's data_epoch here (QuerySession::
  /// Open does) so reloading a table's storage invalidates cached
  /// results without anyone calling BumpPartitionEpoch. Entries cached
  /// under an older external epoch stop being served immediately; they
  /// are physically evicted at the next BumpPartitionEpoch or by
  /// capacity pressure. Must be safe to call from any thread.
  std::function<uint64_t()> partition_epoch_source;
};

/// Per-submission knobs (the serving-layer analogue of QueryRun; zero
/// means "scheduler decides").
struct QueryOptions {
  /// Per-query deadline in milliseconds, counted from Submit (queue wait
  /// included); 0 = the executor's ExecutorOptions::query_deadline_ms,
  /// also counted from Submit.
  uint64_t query_deadline_ms = 0;
  bool use_cache = true;  // lookup AND fill
};

/// What a served query resolves to: the final base-result structure and
/// its accounting (from_cache = true for cache hits).
struct QueryResult {
  Table table;
  ExecStats stats;
};

class QueryScheduler {
 public:
  /// `executor` is borrowed, not owned, and must outlive the scheduler.
  QueryScheduler(rpc::RpcExecutor* executor, SchedulerOptions options);

  /// Drains: queued queries are cancelled, running ones are allowed to
  /// finish, workers join.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  struct Submission {
    uint64_t query_id = 0;
    std::future<Result<QueryResult>> result;
  };

  /// Answers the plan from the cache when its result is resident (the
  /// returned future is then already ready), else enqueues it; returns
  /// without waiting for execution, with the assigned query id and the
  /// future the answer resolves through. Thread-safe.
  Submission Submit(DistributedPlan plan, QueryOptions options = {});

  /// Cancels the query: a queued one resolves Cancelled without running;
  /// a running one stops at the next morsel/round boundary through the
  /// QueryRun cancellation chain. Returns false when the id is unknown
  /// or already finished — a cache hit is finished when Submit returns.
  bool Cancel(uint64_t query_id);

  /// Marks the partition data changed: subsequent lookups miss, stale
  /// cache entries are dropped.
  void BumpPartitionEpoch();
  uint64_t partition_epoch() const;

  const SubAggregateCache& cache() const { return cache_; }

  /// Queries admitted and not yet finished (excludes queued).
  size_t running_queries() const;
  /// Queries waiting for admission.
  size_t queued_queries() const;

 private:
  struct Ticket {
    uint64_t query_id = 0;
    DistributedPlan plan;
    uint64_t fingerprint = 0;  // PlanFingerprint(plan), computed in Submit
    QueryOptions options;
    std::promise<Result<QueryResult>> promise;
    CancellationToken cancel;
    Stopwatch queued_at;
  };

  void WorkerLoop();
  // Runs one admitted ticket to its answer inside its serve.query span.
  // The caller retires the ticket and only then fulfils the promise, so
  // a caller woken by get() finds the span ended and the query gone
  // from running_queries() and Cancel.
  Result<QueryResult> Serve(const std::shared_ptr<Ticket>& ticket);
  // A cache hit's answer: the cached table, from_cache, zero rounds.
  static QueryResult HitAnswer(const Ticket& ticket, Table table);

  rpc::RpcExecutor* const executor_;
  const SchedulerOptions options_;
  SubAggregateCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Ticket>> queue_;
  std::map<uint64_t, std::shared_ptr<Ticket>> live_;  // queued + running
  uint64_t epoch_ = 1;
  size_t running_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace skalla

#endif  // SKALLA_SERVE_SCHEDULER_H_

#include "serve/scheduler.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace skalla {
namespace serve {

QueryScheduler::QueryScheduler(rpc::RpcExecutor* executor,
                               SchedulerOptions options)
    : executor_(executor),
      options_(options),
      cache_(options.cache_max_bytes) {
  const size_t width = std::max<size_t>(1, options_.max_concurrent_queries);
  workers_.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryScheduler::~QueryScheduler() {
  std::deque<std::shared_ptr<Ticket>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    orphaned.swap(queue_);
    for (const auto& ticket : orphaned) {
      live_.erase(ticket->query_id);
    }
  }
  work_cv_.notify_all();
  for (const auto& ticket : orphaned) {
    ticket->promise.set_value(
        Status::Cancelled("scheduler shut down before the query ran"));
  }
  for (std::thread& worker : workers_) worker.join();
}

QueryScheduler::Submission QueryScheduler::Submit(DistributedPlan plan,
                                                  QueryOptions options) {
  auto ticket = std::make_shared<Ticket>();
  ticket->query_id = obs::NextQueryId();
  ticket->plan = std::move(plan);
  ticket->options = options;

  Submission submission;
  submission.query_id = ticket->query_id;
  submission.result = ticket->promise.get_future();

  bool admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    admitted = !shutdown_;
  }
  if (admitted) {
    ticket->fingerprint = PlanFingerprint(ticket->plan);
    // A hit resolves here, on the caller's thread: it neither waits in
    // the queue behind misses nor enters live_ (so it cannot be
    // cancelled). A miss is counted once, when a worker serves it.
    std::optional<Table> hit;
    if (ticket->options.use_cache) {
      hit = cache_.Lookup(ticket->fingerprint, partition_epoch(),
                          /*count_miss=*/false);
    }
    if (hit.has_value()) {
      obs::QueryIdScope query_scope(ticket->query_id);
      SKALLA_TRACE_SPAN(serve_span, "serve.query", "serve");
      SKALLA_SPAN_ATTR(serve_span, "query_id", ticket->query_id);
      SKALLA_SPAN_ATTR(serve_span, "queue_wait_us", 0.0);
      SKALLA_SPAN_ATTR(serve_span, "outcome", "cache_hit");
      SKALLA_HISTOGRAM_RECORD("skalla.serve.queue_wait_us", 0.0);
      SKALLA_COUNTER_ADD("skalla.serve.submitted", 1);
      // The span ends before the answer is visible.
      SKALLA_SPAN_END(serve_span);
      ticket->promise.set_value(HitAnswer(*ticket, std::move(*hit)));
      return submission;
    }
    std::lock_guard<std::mutex> lock(mu_);
    admitted = !shutdown_;
    if (admitted) {
      queue_.push_back(ticket);
      live_[ticket->query_id] = ticket;
    }
  }
  if (!admitted) {
    ticket->promise.set_value(
        Status::Cancelled("scheduler is shut down; query not admitted"));
    return submission;
  }
  SKALLA_COUNTER_ADD("skalla.serve.submitted", 1);
  work_cv_.notify_one();
  return submission;
}

bool QueryScheduler::Cancel(uint64_t query_id) {
  std::shared_ptr<Ticket> ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(query_id);
    if (it == live_.end()) return false;
    ticket = it->second;
  }
  // The worker observes the latched token: a queued ticket resolves
  // Cancelled without running, a running one stops at the next
  // morsel/round boundary via the QueryRun parent chain.
  ticket->cancel.Cancel(
      Status::Cancelled(StrCat("query ", query_id, " cancelled")));
  SKALLA_COUNTER_ADD("skalla.serve.cancelled", 1);
  return true;
}

void QueryScheduler::BumpPartitionEpoch() {
  uint64_t next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next = ++epoch_;
  }
  if (options_.partition_epoch_source) {
    next += options_.partition_epoch_source();
  }
  cache_.EvictBefore(next);
}

uint64_t QueryScheduler::partition_epoch() const {
  uint64_t external = options_.partition_epoch_source
                          ? options_.partition_epoch_source()
                          : 0;
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_ + external;
}

size_t QueryScheduler::running_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

size_t QueryScheduler::queued_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

QueryResult QueryScheduler::HitAnswer(const Ticket& ticket, Table table) {
  QueryResult answer;
  answer.table = std::move(table);
  answer.stats.query_id = ticket.query_id;
  answer.stats.from_cache = true;
  return answer;
}

void QueryScheduler::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Ticket> ticket;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ with a drained queue
      ticket = queue_.front();
      queue_.pop_front();
      ++running_;
    }
    Result<QueryResult> answer = Serve(ticket);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      live_.erase(ticket->query_id);
    }
    ticket->promise.set_value(std::move(answer));
  }
}

Result<QueryResult> QueryScheduler::Serve(
    const std::shared_ptr<Ticket>& ticket) {
  const double queue_wait_s = ticket->queued_at.ElapsedSeconds();
  obs::QueryIdScope query_scope(ticket->query_id);
  SKALLA_TRACE_SPAN(serve_span, "serve.query", "serve");
  SKALLA_SPAN_ATTR(serve_span, "query_id", ticket->query_id);
  SKALLA_SPAN_ATTR(serve_span, "queue_wait_us", queue_wait_s * 1e6);
  SKALLA_HISTOGRAM_RECORD("skalla.serve.queue_wait_us", queue_wait_s * 1e6);

  if (ticket->cancel.cancelled()) {
    SKALLA_SPAN_ATTR(serve_span, "outcome", "cancelled_in_queue");
    return ticket->cancel.Check();
  }

  // Queue wait consumes the deadline budget: the query's latency clock
  // started at Submit, not at admission — for the executor's default
  // deadline as much as for a per-query one.
  const uint64_t deadline_ms =
      ticket->options.query_deadline_ms > 0
          ? ticket->options.query_deadline_ms
          : executor_->options().query_deadline_ms;
  uint64_t remaining_ms = 0;
  if (deadline_ms > 0) {
    const uint64_t waited_ms = static_cast<uint64_t>(queue_wait_s * 1e3);
    if (waited_ms >= deadline_ms) {
      SKALLA_SPAN_ATTR(serve_span, "outcome", "deadline_in_queue");
      return Status::DeadlineExceeded(
          StrCat("query deadline (", deadline_ms,
                 " ms) expired after ", waited_ms, " ms in the queue"));
    }
    remaining_ms = deadline_ms - waited_ms;
  }

  // Looked up again: an identical miss queued ahead may have filled the
  // entry since Submit.
  const uint64_t epoch = partition_epoch();
  if (ticket->options.use_cache) {
    std::optional<Table> hit = cache_.Lookup(ticket->fingerprint, epoch);
    if (hit.has_value()) {
      SKALLA_SPAN_ATTR(serve_span, "outcome", "cache_hit");
      return HitAnswer(*ticket, std::move(*hit));
    }
  }

  QueryResult answer;
  answer.stats.query_id = ticket->query_id;

  QueryRun run;
  run.query_id = ticket->query_id;
  run.cancellation = &ticket->cancel;
  run.query_deadline_ms = remaining_ms;
  Result<Table> result = executor_->Execute(ticket->plan, run, &answer.stats);
  if (!result.ok()) {
    SKALLA_SPAN_ATTR(serve_span, "outcome", "error");
    return result.status();
  }
  SKALLA_SPAN_ATTR(serve_span, "outcome", "ok");
  answer.table = std::move(*result);
  // Only exact answers are cacheable: a degraded (partial) result must
  // not be replayed after the lost sites come back.
  if (ticket->options.use_cache && answer.stats.complete()) {
    cache_.Insert(ticket->fingerprint, epoch, answer.table);
  }
  return answer;
}

}  // namespace serve
}  // namespace skalla

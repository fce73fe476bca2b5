// MetricsRegistry: named counters, gauges, and fixed-bucket histograms
// for the executor and network layers, dumpable as JSON for the bench
// harness (BENCH_*.json trajectories).
//
// Naming scheme: dotted lowercase paths, subsystem first —
//   skalla.round.bytes_to_coord     counter   bytes shipped up per plan
//   skalla.round.bytes_to_sites     counter   bytes shipped down
//   skalla.site.eval_us             histogram per-site round eval time
//   skalla.coord.merge_us           histogram per-fragment merge time
//   skalla.net.retries              counter   site-round retry attempts
//
// All instruments are lock-free on the update path (atomics); the
// registry mutex is taken only on first lookup of a name and during
// dumps. Instruments are never deleted: references returned by the
// Get* functions stay valid for the registry's lifetime.

#ifndef SKALLA_OBS_METRICS_H_
#define SKALLA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace skalla {
namespace obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value-wins floating-point metric.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts samples <= bounds[i]; one
/// overflow bucket counts the rest. Bounds are set at creation and
/// immutable afterwards.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  /// Drops all samples in place (bounds are kept, references stay valid).
  void Reset();

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i`; i == bounds().size() is the overflow bucket.
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Default bucket bounds for microsecond latencies: 1us .. 10s,
  /// decade-spaced with a 1-2-5 pattern.
  static std::vector<double> LatencyBucketsUs();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Name -> instrument registry. One global instance serves the process;
/// tests may construct private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by the SKALLA_METRIC_* macros.
  static MetricsRegistry& Global();

  /// Finds or creates the named instrument. A name identifies exactly
  /// one kind: requesting an existing name as a different kind aborts
  /// (instrumentation bug, not a user error).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `bounds` applies only on first creation.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  /// Serializes every instrument as a JSON object keyed by name.
  /// Counters/gauges map to numbers; histograms to
  /// {"count","sum","mean","buckets":[{"le",n},...]}.
  std::string ToJson() const;

  /// Writes ToJson() to `path`. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

  /// Zeroes all counters and gauges and drops histogram samples.
  /// (Instrument references stay valid.)
  void Reset();

 private:
  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Instrument> instruments_;
};

}  // namespace obs
}  // namespace skalla

#endif  // SKALLA_OBS_METRICS_H_

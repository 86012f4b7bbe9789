#pragma once
// Named metrics: counters, gauges and log2-bucketed histograms.
//
// The registry subsumes the ad-hoc RunStats / TableStats / Comm counters:
// the runtime, comm layer and tile table publish into it under a
// dotted-name convention (`<component>.<metric>[_<unit>]`, see
// docs/observability.md), and the whole registry dumps as one JSON or
// text document.  Instruments are created once (mutex-guarded name
// lookup) and then updated with single relaxed atomics, so they are safe
// and cheap on hot paths; callers cache the returned references.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dpgen::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time level; also tracks the maximum level ever set.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Histogram over nonnegative values with power-of-two bucket boundaries:
/// bucket b counts observations in [2^(b-1), 2^b) (bucket 0 holds 0).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(std::int64_t v);

  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t min() const { return min_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::int64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
  /// the log2 bucket holding the target rank, clamped to [min, max].
  /// Exact at the bucket boundaries; within a factor of 2 inside.
  double quantile(double q) const;

 private:
  std::atomic<std::int64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Registry of named instruments.  Each run owns one (obs::Session), so
/// its document covers that run only.  Instruments live as long as the
/// registry, so callers may cache the returned references.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// {"counters":{...},"gauges":{...},"histograms":{...}}
  std::string to_json() const;
  /// One `name value` line per instrument (Prometheus-flavoured).
  std::string to_text() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dpgen::obs

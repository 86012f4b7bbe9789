#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "support/str.hpp"

namespace dpgen::obs {

namespace {

int bucket_index(std::int64_t v) {
  if (v <= 0) return 0;
  int b = 0;
  while (v > 0 && b < Histogram::kBuckets - 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

void atomic_min(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Quantiles are estimates (log2-bucket interpolation); a short fixed
/// precision keeps the dumps diffable.
std::string quantile_str(const Histogram& h, double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", h.quantile(q));
  return buf;
}

}  // namespace

void Histogram::observe(std::int64_t v) {
  if (v < 0) v = 0;
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    // First observation seeds min/max (races only tighten them below).
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::quantile(double q) const {
  const std::int64_t n = count();
  if (n <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Target rank, 1-based: the smallest observation whose cumulative count
  // reaches q * n.
  std::int64_t target = static_cast<std::int64_t>(q * static_cast<double>(n));
  if (target < 1) target = 1;
  if (target > n) target = n;
  std::int64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t in_bucket = bucket(b);
    if (in_bucket == 0) continue;
    if (cum + in_bucket < target) {
      cum += in_bucket;
      continue;
    }
    // Bucket b covers [2^(b-1), 2^b) (bucket 0 holds exactly 0);
    // interpolate the rank's position linearly across that range.
    if (b == 0) return std::max<double>(0.0, static_cast<double>(min()));
    const double lo = static_cast<double>(std::int64_t{1} << (b - 1));
    const double hi = lo * 2.0;
    const double frac = (static_cast<double>(target - cum) - 0.5) /
                        static_cast<double>(in_bucket);
    double v = lo + frac * (hi - lo);
    v = std::min(v, static_cast<double>(max()));
    v = std::max(v, static_cast<double>(min()));
    return v;
  }
  return static_cast<double>(max());
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += cat(first ? "" : ",", "\n    \"", name, "\": ", c->value());
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += cat(first ? "" : ",", "\n    \"", name, "\": {\"value\": ",
               g->value(), ", \"max\": ", g->max(), "}");
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += cat(first ? "" : ",", "\n    \"", name, "\": {\"count\": ",
               h->count(), ", \"sum\": ", h->sum(), ", \"min\": ", h->min(),
               ", \"max\": ", h->max(),
               ", \"p50\": ", quantile_str(*h, 0.50),
               ", \"p95\": ", quantile_str(*h, 0.95),
               ", \"p99\": ", quantile_str(*h, 0.99), ", \"buckets\": [");
    // Trailing zero buckets are elided; the boundary of bucket b is 2^b.
    int last = -1;
    for (int b = 0; b < Histogram::kBuckets; ++b)
      if (h->bucket(b) != 0) last = b;
    for (int b = 0; b <= last; ++b)
      out += cat(b ? ", " : "", h->bucket(b));
    out += "]}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::to_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_)
    out += cat(name, " ", c->value(), "\n");
  for (const auto& [name, g] : gauges_) {
    out += cat(name, " ", g->value(), "\n");
    out += cat(name, ".max ", g->max(), "\n");
  }
  for (const auto& [name, h] : histograms_) {
    out += cat(name, ".count ", h->count(), "\n");
    out += cat(name, ".sum ", h->sum(), "\n");
    out += cat(name, ".min ", h->min(), "\n");
    out += cat(name, ".max ", h->max(), "\n");
    out += cat(name, ".p50 ", quantile_str(*h, 0.50), "\n");
    out += cat(name, ".p95 ", quantile_str(*h, 0.95), "\n");
    out += cat(name, ".p99 ", quantile_str(*h, 0.99), "\n");
  }
  return out;
}

}  // namespace dpgen::obs

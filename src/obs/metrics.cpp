#include "obs/metrics.hpp"

#include <cmath>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace zero::obs {

void Histogram::Observe(double v) {
  if (!std::isfinite(v)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++count_;
  sum_ += v;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
  ++buckets_[BucketFor(v)];
}

int Histogram::BucketFor(double v) {
  if (v <= 1.0) return 0;
  // ceil(log2 v) maps (2^(b-1), 2^b] -> b, matching QuantileLocked's
  // interpolation ranges; the epsilon keeps exact powers in their bucket.
  const int b = static_cast<int>(std::ceil(std::log2(v) - 1e-9));
  return b >= kBuckets ? kBuckets - 1 : b;
}

double Histogram::QuantileLocked(double q) const {
  if (count_ == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= target && buckets_[b] > 0) {
      // Interpolate inside bucket b's range (lo, hi]. Bucket 0 spans
      // (min_, 1]; clamp against the observed min/max so quantiles never
      // leave the data range.
      const double hi = b == 0 ? 1.0 : std::exp2(static_cast<double>(b));
      const double lo = b == 0 ? 0.0 : hi / 2.0;
      const std::uint64_t before = seen - buckets_[b];
      const double frac =
          (static_cast<double>(target - before)) /
          static_cast<double>(buckets_[b]);
      double est = lo + frac * (hi - lo);
      if (est < min_) est = min_;
      if (est > max_) est = max_;
      return est;
    }
  }
  return max_;
}

Histogram::Summary Histogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Summary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.mean = sum_ / static_cast<double>(count_);
  s.p50 = QuantileLocked(0.50);
  s.p95 = QuantileLocked(0.95);
  s.p99 = QuantileLocked(0.99);
  return s;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
  for (std::uint64_t& b : buckets_) b = 0;
}

// std::map keeps snapshot key order deterministic; unique_ptr values are
// never erased, so handles returned to instrument sites stay valid for
// the life of the registry (the process, for Metrics()).
struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;

  template <typename Map>
  static bool Holds(const Map& map, std::string_view name) {
    return map.find(name) != map.end();
  }
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}

MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    ZERO_CHECK(!Impl::Holds(im.gauges, name) &&
                   !Impl::Holds(im.histograms, name),
               "metric \"" + std::string(name) +
                   "\" already registered as a different kind");
    it = im.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto it = im.gauges.find(name);
  if (it == im.gauges.end()) {
    ZERO_CHECK(!Impl::Holds(im.counters, name) &&
                   !Impl::Holds(im.histograms, name),
               "metric \"" + std::string(name) +
                   "\" already registered as a different kind");
    it = im.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    ZERO_CHECK(!Impl::Holds(im.counters, name) &&
                   !Impl::Holds(im.gauges, name),
               "metric \"" + std::string(name) +
                   "\" already registered as a different kind");
    it = im.histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::ResetValues() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  for (auto& [name, c] : im.counters) c->Reset();
  for (auto& [name, g] : im.gauges) g->Reset();
  for (auto& [name, h] : im.histograms) h->Reset();
}

std::string MetricsRegistry::SnapshotJson() const {
  Impl& im = impl();
  json::Value counters = json::Value::MakeObject();
  json::Value gauges = json::Value::MakeObject();
  json::Value histograms = json::Value::MakeObject();
  {
    std::lock_guard<std::mutex> lock(im.mutex);
    for (const auto& [name, c] : im.counters) {
      counters.Set(name, json::Value(static_cast<double>(c->value())));
    }
    for (const auto& [name, g] : im.gauges) {
      gauges.Set(name, json::Value(g->value()));
    }
    for (const auto& [name, h] : im.histograms) {
      const Histogram::Summary s = h->Snapshot();
      json::Value o = json::Value::MakeObject();
      o.Set("count", json::Value(static_cast<double>(s.count)));
      o.Set("sum", json::Value(s.sum));
      o.Set("min", json::Value(s.min));
      o.Set("max", json::Value(s.max));
      o.Set("mean", json::Value(s.mean));
      o.Set("p50", json::Value(s.p50));
      o.Set("p95", json::Value(s.p95));
      o.Set("p99", json::Value(s.p99));
      histograms.Set(name, std::move(o));
    }
  }
  json::Value root = json::Value::MakeObject();
  root.Set("counters", std::move(counters));
  root.Set("gauges", std::move(gauges));
  root.Set("histograms", std::move(histograms));
  return root.Dump(2);
}

void MetricsRegistry::VisitCounters(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  for (const auto& [name, c] : im.counters) fn(name, *c);
}

void MetricsRegistry::VisitGauges(
    const std::function<void(const std::string&, const Gauge&)>& fn) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  for (const auto& [name, g] : im.gauges) fn(name, *g);
}

void MetricsRegistry::VisitHistograms(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  for (const auto& [name, h] : im.histograms) fn(name, *h);
}

MetricsRegistry& Metrics() {
  static MetricsRegistry* reg = new MetricsRegistry();  // leaked on purpose
  return *reg;
}

}  // namespace zero::obs

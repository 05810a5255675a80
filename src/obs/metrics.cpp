#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace pdn3d::obs {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: need at least one bucket bound");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly increasing");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v, std::uint64_t n) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(v * static_cast<double>(n), std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

QuantileWindow::QuantileWindow(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

void QuantileWindow::observe(double v) {
  std::lock_guard lock(mutex_);
  ring_[next_] = v;
  next_ = (next_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++total_;
}

namespace {

// Linear interpolation between the floor/ceil ranks of q*(n-1) over a sorted
// window. Callers guarantee non-empty input.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

QuantileWindow::Snapshot QuantileWindow::snapshot() const {
  std::vector<double> window;
  Snapshot snap;
  {
    std::lock_guard lock(mutex_);
    snap.count = total_;
    window.assign(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(size_));
  }
  snap.window_count = window.size();
  if (window.empty()) return snap;
  std::sort(window.begin(), window.end());
  snap.min = window.front();
  snap.max = window.back();
  for (double v : window) snap.sum += v;
  snap.p50 = quantile_sorted(window, 0.50);
  snap.p90 = quantile_sorted(window, 0.90);
  snap.p95 = quantile_sorted(window, 0.95);
  snap.p99 = quantile_sorted(window, 0.99);
  return snap;
}

void QuantileWindow::reset() {
  std::lock_guard lock(mutex_);
  next_ = 0;
  size_ = 0;
  total_ = 0;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::vector<double> upper_bounds) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  }
  return *it->second;
}

QuantileWindow& MetricsRegistry::window(std::string_view name, std::size_t capacity) {
  std::lock_guard lock(mutex_);
  auto it = windows_.find(name);
  if (it == windows_.end()) {
    it = windows_.emplace(std::string(name), std::make_unique<QuantileWindow>(capacity)).first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters.emplace(name, c->value());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace(name, g->value());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.upper_bounds = h->upper_bounds();
    data.bucket_counts = h->bucket_counts();
    data.count = h->count();
    data.sum = h->sum();
    snap.histograms.emplace(name, std::move(data));
  }
  for (const auto& [name, w] : windows_) snap.windows.emplace(name, w->snapshot());
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, w] : windows_) w->reset();
}

Counter& counter(std::string_view name) { return MetricsRegistry::instance().counter(name); }
Gauge& gauge(std::string_view name) { return MetricsRegistry::instance().gauge(name); }
Histogram& histogram(std::string_view name, std::vector<double> upper_bounds) {
  return MetricsRegistry::instance().histogram(name, std::move(upper_bounds));
}
QuantileWindow& window(std::string_view name, std::size_t capacity) {
  return MetricsRegistry::instance().window(name, capacity);
}

std::vector<double> linear_buckets(double start, double step, std::size_t count) {
  if (count == 0 || step <= 0.0) throw std::invalid_argument("linear_buckets: bad arguments");
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(start + step * static_cast<double>(i));
  return out;
}

std::vector<double> exponential_buckets(double start, double factor, std::size_t count) {
  if (count == 0 || start <= 0.0 || factor <= 1.0) {
    throw std::invalid_argument("exponential_buckets: bad arguments");
  }
  std::vector<double> out;
  out.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

std::vector<double> time_buckets() {
  // 1 us .. ~178 s in quarter-decade (x ~1.78) steps: 33 buckets.
  return exponential_buckets(1e-6, 1.778279410038923, 33);
}

}  // namespace pdn3d::obs

#pragma once

/// @file metrics.hpp
/// @brief Process-wide metrics registry: named counters, gauges, and
/// fixed-bucket histograms.
///
/// Designed to stay on in hot loops: every update is a relaxed atomic
/// operation on pre-registered storage, and the registry lookup is paid once
/// per call site via a function-local static reference:
///
///   static auto& iters = obs::counter("cg.iterations");
///   iters.add(result.iterations);
///
/// Naming convention (docs/OBSERVABILITY.md): `subsystem.noun_verb`, with an
/// optional trailing label segment for per-variant counters
/// (`solver.rung_attempts.ic-pcg`). Snapshots are sorted by name, so two
/// snapshots of the same state serialize identically (diffable run reports).
///
/// All mutators are thread-safe: concurrent sweeps and service workers bump
/// the same counter without tearing.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pdn3d::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= upper_bounds[i];
/// one implicit overflow bucket counts the rest. Bounds are fixed at
/// registration, so observe() is two relaxed atomic adds plus a small scan.
class Histogram {
 public:
  /// @p upper_bounds must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Record @p v, @p n times over in one update. Buckets and count match n
  /// single observations; so does the sum whenever v * n is exact (whole
  /// numbers, e.g. a per-cycle depth tallied by a loop and published once).
  void observe(double v, std::uint64_t n = 1);

  [[nodiscard]] const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; size() == upper_bounds().size() + 1 (overflow last).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Windowed latency recorder: a ring of the most recent observations with
/// exact quantile snapshots over that window. Complements Histogram (which is
/// cumulative and bucket-quantized): the window answers "what are p50/p95/p99
/// *right now*", which is what a live `stats` scrape wants, while the
/// histogram keeps the full-run distribution for reports.
///
/// observe() is a short mutex-guarded ring write -- fine at request
/// granularity (one observation per served request), not meant for per-row
/// inner loops. snapshot() copies and sorts the window (O(n log n), n =
/// window capacity), so scrape cost is bounded and independent of run length.
///
/// Quantile semantics (docs/OBSERVABILITY.md): nearest-rank with linear
/// interpolation over the sorted window -- quantile(q) interpolates between
/// the floor/ceil ranks of q*(n-1). An empty window reports all-zero
/// quantiles with window_count == 0; a single sample reports that sample for
/// every quantile.
class QuantileWindow {
 public:
  /// @p capacity ring slots (observations kept); clamped to >= 1.
  explicit QuantileWindow(std::size_t capacity);

  void observe(double v);

  struct Snapshot {
    std::uint64_t count = 0;        ///< observations ever (not just windowed)
    std::size_t window_count = 0;   ///< observations currently in the window
    double min = 0.0, max = 0.0;    ///< over the window
    double sum = 0.0;               ///< over the window
    double p50 = 0.0, p90 = 0.0, p95 = 0.0, p99 = 0.0;
  };
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<double> ring_;
  std::size_t next_ = 0;   ///< ring write cursor
  std::size_t size_ = 0;   ///< valid entries (== capacity once wrapped)
  std::uint64_t total_ = 0;
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> upper_bounds;
    std::vector<std::uint64_t> bucket_counts;  ///< overflow bucket last
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
  std::map<std::string, QuantileWindow::Snapshot> windows;
};

/// Owns every metric for the process. References returned by
/// counter()/gauge()/histogram() are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create by name. A name permanently binds to its first-seen
  /// metric kind; re-registering a histogram name keeps the original bounds
  /// (same rule for a window's capacity).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds);
  QuantileWindow& window(std::string_view name, std::size_t capacity);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every metric's value; registered names (and references) survive.
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<QuantileWindow>, std::less<>> windows_;
};

/// Shorthands for the process-wide registry.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name, std::vector<double> upper_bounds);
/// Default window capacity is 1024 recent observations.
QuantileWindow& window(std::string_view name, std::size_t capacity = 1024);

/// Bucket helpers. exponential_buckets(1, 2, 10) = {1, 2, 4, ..., 512}.
[[nodiscard]] std::vector<double> linear_buckets(double start, double step, std::size_t count);
[[nodiscard]] std::vector<double> exponential_buckets(double start, double factor,
                                                      std::size_t count);
/// Default wall-time buckets in seconds: 1 us .. ~100 s, quarter-decade steps.
[[nodiscard]] std::vector<double> time_buckets();

}  // namespace pdn3d::obs

#pragma once

/// @file trace.hpp
/// @brief Hierarchical wall-time trace spans.
///
/// A TraceSpan is a scope guard: construction stamps the start time and
/// pushes the span onto a thread-local stack; destruction pops it, folds the
/// duration into per-path aggregate statistics (always, bounded by the number
/// of distinct paths), and appends a raw event to a capped global buffer for
/// Chrome `chrome://tracing` / Perfetto export. A span's *path* is its
/// parent's path + "/" + its own name, so nesting shows up as
/// "cooptimize/solve_point/solver/solve" without any global registration.
/// The stack is per thread; exec::ThreadPool carries the submitting thread's
/// open path to its workers (ScopedSpanRoot), so a pool task's spans nest
/// under the span that opened the region rather than starting new roots.
///
/// Usage in instrumented code:
///
///   PDN3D_TRACE_SPAN("lut/build");                 // anonymous scope guard
///   PDN3D_TRACE_SPAN_NAMED(span, "solver/solve");  // named, for attributes
///   span.attribute("rung", "ic-pcg");
///
/// Overhead per span is two steady_clock reads plus one short mutex-guarded
/// aggregate update -- negligible against the millisecond-scale solves it
/// wraps (docs/OBSERVABILITY.md, "Overhead").

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace pdn3d::obs {

/// One completed span, as exported to Chrome trace JSON.
struct SpanRecord {
  std::string path;   ///< slash-joined ancestry, e.g. "lut/build/solver/solve"
  std::string name;   ///< leaf name as written at the call site
  std::uint64_t start_us = 0;     ///< microseconds since the process trace epoch
  std::uint64_t duration_us = 0;  ///< wall time
  int thread_index = 0;           ///< dense per-process thread id
  int depth = 0;                  ///< nesting depth (0 = root)
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// Aggregate statistics for one span path.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< inclusive wall time
  double self_s = 0.0;   ///< total minus direct children
  double min_s = 0.0;
  double max_s = 0.0;
};

/// Global sink for completed spans. Aggregates are exact; raw events are kept
/// up to a capacity (default 65536) after which they are counted as dropped
/// -- the profile table stays correct either way.
class TraceStore {
 public:
  static TraceStore& instance();

  /// Runtime switch (default on). Disabled spans cost two branch checks.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const;

  /// Cap on buffered raw events (existing overflow events stay dropped).
  void set_event_capacity(std::size_t capacity);

  [[nodiscard]] std::vector<SpanRecord> events() const;
  [[nodiscard]] std::map<std::string, SpanStats> stats() const;
  [[nodiscard]] std::uint64_t dropped_events() const;
  /// Spans destroyed while a descendant was still open (API misuse).
  [[nodiscard]] std::uint64_t unbalanced_spans() const;

  /// Drop all recorded events and statistics (not the enabled flag).
  void clear();

  /// Chrome trace_event JSON: {"traceEvents": [{"ph":"X", ...}, ...]}.
  /// Load via chrome://tracing or https://ui.perfetto.dev.
  [[nodiscard]] json::Value chrome_trace() const;

  /// Human-readable hot-span table, heaviest self-time first.
  [[nodiscard]] std::string profile_table(std::size_t top_n = 15) const;

  // Internal: called by TraceSpan on scope exit.
  void record(SpanRecord record, double child_seconds);
  void note_unbalanced();

 private:
  TraceStore() = default;

  mutable std::mutex mutex_;
  bool enabled_ = true;
  std::size_t capacity_ = 65536;
  std::vector<SpanRecord> events_;
  std::map<std::string, SpanStats> stats_;
  std::uint64_t dropped_ = 0;
  std::uint64_t unbalanced_ = 0;
};

/// RAII span. Must be destroyed in reverse construction order within a
/// thread (automatic with scope guards); violations are detected and counted
/// by TraceStore::unbalanced_spans().
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a key/value shown in the Chrome trace "args" block.
  void attribute(std::string_view key, std::string_view value);
  void attribute(std::string_view key, double value);
  void attribute(std::string_view key, std::uint64_t value);

 private:
  bool active_ = false;
  std::size_t frame_index_ = 0;  ///< position in the thread-local open stack
};

/// Where a span opened now on this thread would nest: the innermost open
/// span's path and the depth the new span would get. Empty path and depth 0
/// at the root.
struct SpanContext {
  std::string path;
  int depth = 0;
};

/// This thread's current SpanContext (the innermost open span, else the
/// inherited root set by a ScopedSpanRoot, else the root).
[[nodiscard]] SpanContext current_span_context();

/// Scope guard that roots this thread's spans under @p context while no span
/// of its own is open: a span opened with an empty stack gets the path
/// context.path + "/" + name and depth context.depth. exec::ThreadPool sets
/// one on each worker for the length of a region, so the spans of a pool task
/// nest under the span that submitted the region. Their time is not folded
/// into that span's child time (they run concurrently with it, on another
/// thread), so its self time stays its own thread's uncovered wall time.
class ScopedSpanRoot {
 public:
  explicit ScopedSpanRoot(SpanContext context);
  ~ScopedSpanRoot();

  ScopedSpanRoot(const ScopedSpanRoot&) = delete;
  ScopedSpanRoot& operator=(const ScopedSpanRoot&) = delete;

 private:
  SpanContext saved_;
};

/// Thread-local span capture for per-request export (the service's
/// `--slow-ms` path): between begin_capture() and end_capture(), every span
/// *completed on this thread* is also copied into a thread-local buffer, up
/// to @p capacity (extras are counted as dropped, deepest-first since
/// children complete before parents). Capture is independent of the global
/// event buffer and its cap, so a long-running server whose global buffer
/// filled hours ago still exports complete per-request trees. Valid because
/// served requests evaluate inline on one worker thread (the nested-region
/// rule, docs/PARALLELISM.md). Nested captures are not supported: a second
/// begin_capture() resets the buffer.
void begin_capture(std::size_t capacity = 256);

struct CaptureResult {
  std::vector<SpanRecord> spans;  ///< completion order; sort by start_us for a tree
  std::uint64_t dropped = 0;
};
/// Stop capturing on this thread and return everything captured.
[[nodiscard]] CaptureResult end_capture();

}  // namespace pdn3d::obs

#define PDN3D_OBS_CONCAT_IMPL(a, b) a##b
#define PDN3D_OBS_CONCAT(a, b) PDN3D_OBS_CONCAT_IMPL(a, b)

#define PDN3D_TRACE_SPAN_NAMED(var, name) ::pdn3d::obs::TraceSpan var{name}

/// Anonymous scope-guard span covering the rest of the enclosing scope.
#define PDN3D_TRACE_SPAN(name) \
  PDN3D_TRACE_SPAN_NAMED(PDN3D_OBS_CONCAT(pdn3d_trace_span_, __LINE__), name)

#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <utility>

#include "util/string_util.hpp"

namespace pdn3d::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// Every span timestamp is relative to this process-wide epoch, so traces
/// from different threads line up on one timeline.
Clock::time_point trace_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - trace_epoch())
          .count());
}

int this_thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// One open span on this thread's stack.
struct Frame {
  std::string path;
  std::string name;
  std::uint64_t start_us = 0;
  int depth = 0;               ///< nesting depth, counting an inherited root's
  double child_seconds = 0.0;  ///< accumulated inclusive time of direct children
  std::vector<std::pair<std::string, std::string>> attributes;
};

thread_local std::vector<Frame> t_stack;

/// Where spans opened on an empty stack nest (set by ScopedSpanRoot).
thread_local SpanContext t_root;

/// Per-thread capture state for begin_capture()/end_capture().
struct CaptureState {
  bool active = false;
  std::size_t capacity = 0;
  std::uint64_t dropped = 0;
  std::vector<SpanRecord> spans;
};

thread_local CaptureState t_capture;

}  // namespace

SpanContext current_span_context() {
  if (t_stack.empty()) return t_root;
  return {t_stack.back().path, t_stack.back().depth + 1};
}

ScopedSpanRoot::ScopedSpanRoot(SpanContext context) : saved_(std::move(t_root)) {
  t_root = std::move(context);
}

ScopedSpanRoot::~ScopedSpanRoot() { t_root = std::move(saved_); }

void begin_capture(std::size_t capacity) {
  t_capture.active = true;
  t_capture.capacity = capacity == 0 ? 1 : capacity;
  t_capture.dropped = 0;
  t_capture.spans.clear();
}

CaptureResult end_capture() {
  CaptureResult out;
  out.spans = std::move(t_capture.spans);
  out.dropped = t_capture.dropped;
  t_capture = CaptureState{};
  return out;
}

TraceStore& TraceStore::instance() {
  static TraceStore store;
  return store;
}

void TraceStore::set_enabled(bool enabled) {
  std::lock_guard lock(mutex_);
  enabled_ = enabled;
}

bool TraceStore::enabled() const {
  std::lock_guard lock(mutex_);
  return enabled_;
}

void TraceStore::set_event_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity;
}

std::vector<SpanRecord> TraceStore::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

std::map<std::string, SpanStats> TraceStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::uint64_t TraceStore::dropped_events() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::uint64_t TraceStore::unbalanced_spans() const {
  std::lock_guard lock(mutex_);
  return unbalanced_;
}

void TraceStore::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
  stats_.clear();
  dropped_ = 0;
  unbalanced_ = 0;
}

void TraceStore::record(SpanRecord record, double child_seconds) {
  const double total_s = static_cast<double>(record.duration_us) * 1e-6;
  const double self_s = std::max(0.0, total_s - child_seconds);
  std::lock_guard lock(mutex_);
  SpanStats& s = stats_[record.path];
  if (s.count == 0) {
    s.min_s = total_s;
    s.max_s = total_s;
  } else {
    s.min_s = std::min(s.min_s, total_s);
    s.max_s = std::max(s.max_s, total_s);
  }
  ++s.count;
  s.total_s += total_s;
  s.self_s += self_s;
  if (events_.size() < capacity_) {
    events_.push_back(std::move(record));
  } else {
    ++dropped_;
  }
}

void TraceStore::note_unbalanced() {
  std::lock_guard lock(mutex_);
  ++unbalanced_;
}

json::Value TraceStore::chrome_trace() const {
  const std::vector<SpanRecord> snapshot = events();
  json::Value events = json::Value::array();
  for (const auto& e : snapshot) {
    json::Value ev = json::Value::object();
    ev.set("name", e.path);
    ev.set("cat", e.name);
    ev.set("ph", "X");  // complete event: ts + dur in one record
    ev.set("ts", static_cast<std::uint64_t>(e.start_us));
    ev.set("dur", static_cast<std::uint64_t>(e.duration_us));
    ev.set("pid", 1);
    ev.set("tid", e.thread_index);
    if (!e.attributes.empty()) {
      json::Value args = json::Value::object();
      for (const auto& [key, value] : e.attributes) args.set(key, value);
      ev.set("args", std::move(args));
    }
    events.push_back(std::move(ev));
  }
  json::Value root = json::Value::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  return root;
}

std::string TraceStore::profile_table(std::size_t top_n) const {
  const auto stats_by_path = stats();
  std::vector<std::pair<std::string, SpanStats>> rows(stats_by_path.begin(),
                                                      stats_by_path.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  if (rows.size() > top_n) rows.resize(top_n);

  std::ostringstream os;
  os << "  " << util::pad("span", 44) << util::pad("count", 10) << util::pad("total (ms)", 12)
     << util::pad("self (ms)", 12) << util::pad("avg (ms)", 12) << "\n";
  for (const auto& [path, s] : rows) {
    const double avg_ms = s.count > 0 ? s.total_s * 1e3 / static_cast<double>(s.count) : 0.0;
    os << "  " << util::pad(path, 44) << util::pad(std::to_string(s.count), 10)
       << util::pad(util::fmt_fixed(s.total_s * 1e3, 2), 12)
       << util::pad(util::fmt_fixed(s.self_s * 1e3, 2), 12)
       << util::pad(util::fmt_fixed(avg_ms, 3), 12) << "\n";
  }
  if (rows.empty()) os << "  (no spans recorded)\n";
  return os.str();
}

TraceSpan::TraceSpan(std::string_view name) {
  TraceStore& store = TraceStore::instance();
  if (!store.enabled()) return;
  Frame frame;
  const std::string& parent = t_stack.empty() ? t_root.path : t_stack.back().path;
  if (parent.empty()) {
    frame.path = std::string(name);
  } else {
    frame.path.reserve(parent.size() + 1 + name.size());
    frame.path += parent;
    frame.path += '/';
    frame.path += name;
  }
  frame.depth = t_stack.empty() ? t_root.depth : t_stack.back().depth + 1;
  frame.name = std::string(name);
  frame.start_us = now_us();
  frame_index_ = t_stack.size();
  t_stack.push_back(std::move(frame));
  active_ = true;
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  TraceStore& store = TraceStore::instance();
  // Destroyed out of order: descendants are still open. Close them as
  // unbalanced so the stack stays consistent and the defect is visible.
  while (t_stack.size() > frame_index_ + 1) {
    t_stack.pop_back();
    store.note_unbalanced();
  }
  if (t_stack.size() <= frame_index_) {
    // Our own frame was already discarded by an earlier out-of-order pop.
    store.note_unbalanced();
    return;
  }
  Frame frame = std::move(t_stack.back());
  t_stack.pop_back();

  const std::uint64_t end_us = now_us();
  SpanRecord record;
  record.path = std::move(frame.path);
  record.name = std::move(frame.name);
  record.start_us = frame.start_us;
  record.duration_us = end_us >= frame.start_us ? end_us - frame.start_us : 0;
  record.thread_index = this_thread_index();
  record.depth = frame.depth;
  record.attributes = std::move(frame.attributes);

  const double total_s = static_cast<double>(record.duration_us) * 1e-6;
  if (!t_stack.empty()) t_stack.back().child_seconds += total_s;
  if (t_capture.active) {
    if (t_capture.spans.size() < t_capture.capacity) {
      t_capture.spans.push_back(record);
    } else {
      ++t_capture.dropped;
    }
  }
  store.record(std::move(record), frame.child_seconds);
}

void TraceSpan::attribute(std::string_view key, std::string_view value) {
  if (!active_ || t_stack.size() <= frame_index_) return;
  t_stack[frame_index_].attributes.emplace_back(std::string(key), std::string(value));
}

void TraceSpan::attribute(std::string_view key, double value) {
  std::ostringstream os;
  os << value;
  attribute(key, std::string_view(os.str()));
}

void TraceSpan::attribute(std::string_view key, std::uint64_t value) {
  attribute(key, std::string_view(std::to_string(value)));
}

}  // namespace pdn3d::obs

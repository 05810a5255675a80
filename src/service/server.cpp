#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "exec/cancel.hpp"
#include "faults/faults.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace pdn3d::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Keep this many per-request records for the session report; beyond it only
/// the aggregates grow (a soak would otherwise make reports unbounded).
constexpr std::size_t kMaxRequestRecords = 1024;

std::string cancel_ok_response(std::int64_t id, std::int64_t target,
                               std::string_view request_id) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"op\":\"cancel\",\"target\":" +
                     std::to_string(target) + "}";
  append_request_id(&line, request_id);
  return line;
}

/// Largest factor-sharing group one worker drains from the queue; bounds the
/// latency a coalesced member can add to the leader (one multi-RHS solve is
/// nearly flat in batch size, but response delivery waits for the batch).
constexpr std::size_t kMaxCoalesce = 16;

/// Whether a queued request may join a factor-sharing group: a batchable
/// evaluation (EvaluateRequest::batchable) without a fault-injection sleep
/// (tests use test_sleep_ms to pin workers; batching those would change what
/// the test holds busy).
bool coalescible(const Request& req) {
  return req.kind == Request::Kind::kEvaluate && req.eval.batchable() &&
         req.test_sleep_ms <= 0.0;
}

/// Requests with equal keys share a factorization: same benchmark, same
/// canonical design overlay. States/activities may differ -- they are the
/// extra right-hand sides.
std::string factor_key(const Request& req) {
  return std::string(api::benchmark_token(req.eval.benchmark)) + "|" +
         req.eval.design.canonical_text();
}

/// How one request is treated against the result cache.
struct CachePlan {
  bool consult = false;    ///< look up before evaluating (mode "use")
  bool store = false;      ///< insert the fresh ok result ("use" miss or "refresh")
  const char* token = "";  ///< response echo: "hit" | "miss" | "bypass"
};

CachePlan plan_cache(const ServiceConfig& config, const Request& req) {
  CachePlan plan;
  const bool eligible = config.cache_entries > 0 && req.cache != Request::CacheMode::kBypass &&
                        req.eval.checkpoint_path.empty() && req.test_sleep_ms <= 0.0;
  if (!eligible) {
    plan.token = "bypass";
    return plan;
  }
  plan.store = true;
  plan.token = "miss";  // becomes "hit" only when a lookup succeeds
  plan.consult = req.cache == Request::CacheMode::kUse;  // refresh skips lookup
  return plan;
}

/// The 11 aggregate counters, as keys of @p obj (the stats op's `totals`
/// block and the report's `session` block spell them identically).
void set_totals(obs::json::Value* obj, const BatchService::Stats& s) {
  obj->set("submitted", obs::json::Value(s.submitted));
  obj->set("completed", obs::json::Value(s.completed));
  obj->set("rejected_queue_full", obs::json::Value(s.rejected_full));
  obj->set("rejected_shutdown", obs::json::Value(s.rejected_shutdown));
  obj->set("rejected_overload", obs::json::Value(s.rejected_overload));
  obj->set("rejected_too_large", obs::json::Value(s.rejected_too_large));
  obj->set("bad_requests", obs::json::Value(s.bad_requests));
  obj->set("deadline_expired", obs::json::Value(s.deadline_expired));
  obj->set("cancelled", obs::json::Value(s.cancelled));
  obj->set("timeouts", obs::json::Value(s.timeouts));
  obj->set("internal_errors", obs::json::Value(s.internal_errors));
}

/// The result-cache block shared by the stats op and the report.
obs::json::Value cache_json(const CacheStats& cs) {
  auto block = obs::json::Value::object();
  block.set("entries", obs::json::Value(static_cast<std::uint64_t>(cs.entries)));
  block.set("capacity", obs::json::Value(static_cast<std::uint64_t>(cs.capacity)));
  block.set("hits", obs::json::Value(cs.hits));
  block.set("misses", obs::json::Value(cs.misses));
  block.set("insertions", obs::json::Value(cs.insertions));
  block.set("evictions", obs::json::Value(cs.evictions));
  block.set("bypass", obs::json::Value(cs.bypass));
  return block;
}

}  // namespace

struct BatchService::Pending {
  Request req;
  ResponseSink sink;
  Clock::time_point enqueued;
  Clock::time_point deadline;  ///< Clock::time_point::max() = none
  std::uint64_t cost = 1;      ///< released from outstanding_cost_ at every exit
};

/// One watched evaluation: the watchdog cancels token once cancel_at passes.
struct BatchService::InFlight {
  exec::CancelToken* token = nullptr;
  Clock::time_point cancel_at;
};

struct BatchService::RequestRecord {
  std::int64_t id = -1;
  std::string request_id;
  std::string op;
  std::string benchmark;
  bool ok = false;
  std::string error;  ///< ErrorKind token, empty when the evaluation ran ok
  double queue_ms = 0.0;
  double run_ms = 0.0;
  double headline_mv = 0.0;
  std::string fingerprint;  ///< RequestFingerprint::hex(); empty if never computed
  std::string cache;        ///< "hit" | "miss" | "bypass"; empty on error paths
};

BatchService::BatchService(const api::Session& session, ServiceConfig config)
    : session_(session), config_(config) {
  if (config_.workers == 0) config_.workers = exec::default_thread_count();
  cache_ = std::make_unique<ResultCache>(config_.cache_entries);
}

BatchService::~BatchService() { drain(); }

void BatchService::start() {
  if (started_) throw std::logic_error("BatchService::start called twice");
  started_ = true;
  queue_ = std::make_unique<exec::BoundedQueue<Pending>>(config_.queue_capacity);
  pool_ = std::make_unique<exec::ThreadPool>(config_.workers);
  started_at_ = Clock::now();
  obs::gauge("service.workers").set(static_cast<double>(config_.workers));
  obs::gauge("service.queue_capacity").set(static_cast<double>(config_.queue_capacity));
  obs::gauge("service.queue_depth").set(0.0);
  obs::gauge("service.inflight").set(0.0);
  obs::gauge("service.uptime_seconds").set(0.0);
  // The worker loops occupy one pool region for the service's whole life; the
  // orchestrator thread is region participant #0 (parallel_for's caller).
  const std::size_t n = config_.workers;
  orchestrator_ = std::thread([this, n] {
    PDN3D_TRACE_SPAN("serve/region");
    pool_->parallel_for(n, [this](std::size_t) { worker_loop(); });
  });
  if (config_.watchdog_ms > 0.0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

void BatchService::watchdog_loop() {
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    const Clock::time_point now = Clock::now();
    Clock::time_point next = Clock::time_point::max();
    for (auto& [ticket, watched] : inflight_) {
      if (watched.cancel_at <= now) {
        // Cooperative: the worker notices at its next poll point (CG
        // iteration / Cholesky column / solver rung). The entry stays until
        // dispatch() erases it; cancel() is idempotent so re-firing is fine.
        watched.token->cancel();
      } else {
        next = std::min(next, watched.cancel_at);
      }
    }
    if (next == Clock::time_point::max()) {
      watchdog_cv_.wait(lock);
    } else {
      watchdog_cv_.wait_until(lock, next);
    }
  }
}

double BatchService::uptime_seconds() const {
  if (started_at_ == Clock::time_point{}) return 0.0;
  return std::chrono::duration<double>(Clock::now() - started_at_).count();
}

void BatchService::publish_queue_depth() {
  static auto& g_depth = obs::gauge("service.queue_depth");
  const auto depth = static_cast<std::uint64_t>(queued());
  g_depth.set(static_cast<double>(depth));
  std::uint64_t peak = peak_queue_depth_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !peak_queue_depth_.compare_exchange_weak(peak, depth, std::memory_order_relaxed)) {
  }
}

void BatchService::publish_in_flight(std::uint64_t value) {
  static auto& g_inflight = obs::gauge("service.inflight");
  g_inflight.set(static_cast<double>(value));
  std::uint64_t peak = peak_in_flight_.load(std::memory_order_relaxed);
  while (value > peak &&
         !peak_in_flight_.compare_exchange_weak(peak, value, std::memory_order_relaxed)) {
  }
}

std::string BatchService::health_response(const Request& req) const {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    submitted = stats_.submitted;
    completed = stats_.completed;
  }
  std::string line = "{\"id\":" + std::to_string(req.id) + ",\"ok\":true,\"op\":\"health\"";
  line += ",\"draining\":";
  line += draining_.load(std::memory_order_acquire) ? "true" : "false";
  line += ",\"queue_depth\":" + std::to_string(queued());
  line += ",\"in_flight\":" + std::to_string(in_flight_.load(std::memory_order_relaxed));
  line += ",\"outstanding_cost\":" +
          std::to_string(outstanding_cost_.load(std::memory_order_relaxed));
  line += ",\"max_outstanding_cost\":" + std::to_string(config_.max_outstanding_cost);
  line += ",\"workers\":" + std::to_string(config_.workers);
  line += ",\"submitted\":" + std::to_string(submitted);
  line += ",\"completed\":" + std::to_string(completed);
  line += "}";
  append_request_id(&line, req.request_id);
  return line;
}

std::string BatchService::stats_response(const Request& req) {
  static auto& g_uptime = obs::gauge("service.uptime_seconds");
  g_uptime.set(uptime_seconds());
  publish_queue_depth();
  publish_in_flight(in_flight_.load(std::memory_order_relaxed));

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  Stats totals;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    totals = stats_;
  }

  auto doc = obs::json::Value::object();
  doc.set("id", obs::json::Value(req.id));
  doc.set("ok", obs::json::Value(true));
  doc.set("op", obs::json::Value("stats"));
  doc.set("uptime_seconds", obs::json::Value(uptime_seconds()));
  doc.set("draining", obs::json::Value(draining_.load(std::memory_order_acquire)));
  doc.set("queue_depth", obs::json::Value(static_cast<std::uint64_t>(queued())));
  doc.set("in_flight", obs::json::Value(in_flight_.load(std::memory_order_relaxed)));
  doc.set("outstanding_cost",
          obs::json::Value(outstanding_cost_.load(std::memory_order_relaxed)));
  doc.set("peak_queue_depth", obs::json::Value(peak_queue_depth_.load(std::memory_order_relaxed)));
  doc.set("peak_in_flight", obs::json::Value(peak_in_flight_.load(std::memory_order_relaxed)));
  doc.set("workers", obs::json::Value(static_cast<std::uint64_t>(config_.workers)));
  doc.set("queue_capacity",
          obs::json::Value(static_cast<std::uint64_t>(config_.queue_capacity)));

  auto totals_block = obs::json::Value::object();
  set_totals(&totals_block, totals);
  doc.set("totals", std::move(totals_block));
  doc.set("cache", cache_json(cache_->stats()));

  auto counters = obs::json::Value::object();
  for (const auto& [name, value] : snap.counters) counters.set(name, obs::json::Value(value));
  doc.set("counters", std::move(counters));

  auto gauges = obs::json::Value::object();
  for (const auto& [name, value] : snap.gauges) gauges.set(name, obs::json::Value(value));
  doc.set("gauges", std::move(gauges));

  auto windows = obs::json::Value::object();
  for (const auto& [name, w] : snap.windows) {
    auto win = obs::json::Value::object();
    win.set("count", obs::json::Value(w.count));
    win.set("window_count", obs::json::Value(static_cast<std::uint64_t>(w.window_count)));
    win.set("min", obs::json::Value(w.min));
    win.set("max", obs::json::Value(w.max));
    win.set("sum", obs::json::Value(w.sum));
    win.set("p50", obs::json::Value(w.p50));
    win.set("p90", obs::json::Value(w.p90));
    win.set("p95", obs::json::Value(w.p95));
    win.set("p99", obs::json::Value(w.p99));
    windows.set(name, std::move(win));
  }
  doc.set("windows", std::move(windows));
  if (!req.request_id.empty()) doc.set("request_id", obs::json::Value(req.request_id));
  return doc.dump();
}

std::string BatchService::metrics_response(const Request& req) {
  static auto& g_uptime = obs::gauge("service.uptime_seconds");
  g_uptime.set(uptime_seconds());
  publish_queue_depth();
  publish_in_flight(in_flight_.load(std::memory_order_relaxed));

  const std::string body =
      obs::render_prometheus(obs::MetricsRegistry::instance().snapshot());
  std::string line = "{\"id\":" + std::to_string(req.id) + ",\"ok\":true,\"op\":\"metrics\"";
  line += ",\"content_type\":\"text/plain; version=0.0.4\"";
  line += ",\"body\":\"" + obs::json::escape(body) + "\"}";
  append_request_id(&line, req.request_id);
  return line;
}

void BatchService::submit_line(std::string_view line, ResponseSink sink) {
  static auto& m_requests = obs::counter("service.requests");
  static auto& m_bad = obs::counter("service.bad_requests");
  static auto& m_full = obs::counter("service.queue_full");
  static auto& m_cancelled = obs::counter("service.cancelled");
  m_requests.add(1);
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submitted;
  }

  // Every response carries a correlation id: the client's request_id when it
  // supplied one, a server-generated "r-<N>" otherwise (including responses
  // to lines that never parsed).
  const auto generate_request_id = [this] {
    return "r-" + std::to_string(next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1);
  };

  if (line.size() > kMaxRequestBytes) {
    // Answer before parsing: an oversized line is rejected on length alone,
    // never buffered into the JSON parser.
    static auto& m_too_large = obs::counter("service.request_too_large");
    m_too_large.add(1);
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected_too_large;
    }
    sink(error_response(-1, ErrorKind::kRequestTooLarge,
                        "request line exceeds " + std::to_string(kMaxRequestBytes) + " bytes",
                        generate_request_id()));
    return;
  }

  Request req;
  if (const core::Status st = parse_request(line, &req); !st.is_ok()) {
    m_bad.add(1);
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.bad_requests;
    }
    if (req.request_id.empty()) req.request_id = generate_request_id();
    obs::log_event(util::LogLevel::kDebug, "serve.bad_request",
                   {{"request_id", req.request_id}, {"id", req.id},
                    {"message", std::string(st.message())}});
    sink(error_response(req.id, ErrorKind::kBadRequest, st.message(), req.request_id));
    return;
  }
  if (req.request_id.empty()) req.request_id = generate_request_id();

  if (req.kind == Request::Kind::kPing) {
    sink(ping_response(req.id, req.request_id));
    return;
  }

  if (req.kind == Request::Kind::kHealth) {
    // Answered inline, even while draining: health is how an operator tells
    // "draining" from "hung".
    sink(health_response(req));
    return;
  }

  if (req.kind == Request::Kind::kStats) {
    // Inline and drain-proof like health: scrapes must work while the
    // server sheds, stalls, or shuts down.
    sink(stats_response(req));
    return;
  }

  if (req.kind == Request::Kind::kMetrics) {
    sink(metrics_response(req));
    return;
  }

  if (req.kind == Request::Kind::kCancel) {
    std::optional<Pending> removed;
    if (queue_ != nullptr) {
      removed = queue_->remove_if(
          [&](const Pending& p) { return p.req.id == req.cancel_target; });
    }
    if (removed.has_value()) {
      m_cancelled.add(1);
      outstanding_cost_.fetch_sub(removed->cost, std::memory_order_relaxed);
      publish_queue_depth();
      removed->sink(error_response(removed->req.id, ErrorKind::kCancelled,
                                   "cancelled while queued", removed->req.request_id));
      RequestRecord rec;
      rec.id = removed->req.id;
      rec.request_id = removed->req.request_id;
      rec.op = api::to_string(removed->req.eval.op);
      rec.benchmark = api::benchmark_token(removed->req.eval.benchmark);
      rec.error = to_string(ErrorKind::kCancelled);
      rec.queue_ms = ms_between(removed->enqueued, Clock::now());
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.cancelled;
      }
      record(std::move(rec));
      sink(cancel_ok_response(req.id, req.cancel_target, req.request_id));
    } else {
      sink(error_response(req.id, ErrorKind::kNotFound,
                          "target not queued (already started, finished, or unknown)",
                          req.request_id));
    }
    return;
  }

  if (!started_ || queue_ == nullptr || queue_->closed()) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected_shutdown;
    }
    sink(error_response(req.id, ErrorKind::kShutdown, "service is draining", req.request_id));
    return;
  }

  // Cost units are arbitrary; what matters is the ratio (a co-optimization
  // sweep is dozens of solves, one analyze is one).
  const std::uint64_t cost =
      req.kind == Request::Kind::kEvaluate ? req.eval.admission_cost() : 1;
  if (config_.max_outstanding_cost > 0) {
    // Approximate check-then-add: concurrent submitters can overshoot by at
    // most one request each, and an idle service always admits (cur == 0).
    const std::uint64_t cur = outstanding_cost_.load(std::memory_order_relaxed);
    if (cur > 0 && cur + cost > config_.max_outstanding_cost) {
      static auto& m_overload = obs::counter("service.rejected_overload");
      m_overload.add(1);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.rejected_overload;
      }
      sink(error_response(req.id, ErrorKind::kOverloaded,
                          "outstanding cost " + std::to_string(cur) + " + " +
                              std::to_string(cost) + " exceeds limit " +
                              std::to_string(config_.max_outstanding_cost) + "; retry later",
                          req.request_id));
      return;
    }
  }
  outstanding_cost_.fetch_add(cost, std::memory_order_relaxed);

  Pending pending;
  pending.req = std::move(req);
  pending.sink = std::move(sink);
  pending.enqueued = Clock::now();
  pending.cost = cost;
  double deadline_ms = pending.req.deadline_ms;
  if (deadline_ms <= 0.0) deadline_ms = config_.default_deadline_ms;
  pending.deadline =
      deadline_ms > 0.0
          ? pending.enqueued + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(deadline_ms))
          : Clock::time_point::max();

  // try_push leaves the item untouched on failure, so pending (and its sink)
  // are still ours. The result carries the drain-vs-backpressure distinction
  // (decided under the queue lock) for the client's retry policy.
  switch (queue_->try_push(std::move(pending))) {
    case exec::PushResult::kOk:
      publish_queue_depth();
      break;
    case exec::PushResult::kClosed: {
      outstanding_cost_.fetch_sub(cost, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.rejected_shutdown;
      }
      pending.sink(error_response(pending.req.id, ErrorKind::kShutdown, "service is draining",
                                  pending.req.request_id));
      break;
    }
    case exec::PushResult::kFull: {
      m_full.add(1);
      outstanding_cost_.fetch_sub(cost, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.rejected_full;
      }
      pending.sink(error_response(pending.req.id, ErrorKind::kQueueFull,
                                  "admission queue full (capacity " +
                                      std::to_string(queue_->capacity()) + "); retry later",
                                  pending.req.request_id));
      break;
    }
  }
}

void BatchService::worker_loop() {
  while (auto pending = queue_->pop()) {
    PDN3D_FAULT_STALL("service.queue.delay", 50.0);
    // Evaluation planner: a coalescible leader drains every queued request
    // sharing its factorization (same benchmark + canonical design) in one
    // atomic sweep; any other request is a group of one. A member drained
    // here has been "popped" for cancellation purposes, exactly like the
    // leader.
    std::vector<Pending> group;
    group.push_back(std::move(*pending));
    if (coalescible(group.front().req)) {
      const std::string key = factor_key(group.front().req);
      queue_->remove_all_if(
          [&key](const Pending& p) { return coalescible(p.req) && factor_key(p.req) == key; },
          kMaxCoalesce - 1, &group);
    }
    dispatch(std::move(group));
  }
}

void BatchService::dispatch(std::vector<Pending>&& group) {
  static auto& m_completed = obs::counter("service.completed");
  static auto& m_deadline = obs::counter("service.deadline_expired");
  static auto& m_timeouts = obs::counter("service.timeouts");
  static auto& m_internal = obs::counter("service.internal_errors");
  static auto& m_groups = obs::counter("service.coalesce.groups");
  static auto& m_members = obs::counter("service.coalesce.requests");
  static auto& h_queue = obs::histogram("service.queue_ms", {1, 10, 100, 1000, 10000});
  static auto& h_run = obs::histogram("service.run_ms", {1, 10, 100, 1000, 10000});
  static auto& w_queue = obs::window("service.queue_ms");
  static auto& w_run = obs::window("service.run_ms");

  const Clock::time_point start = Clock::now();
  publish_queue_depth();
  if (group.size() > 1) {
    m_groups.add(1);
    m_members.add(group.size());
  }

  std::string request_ids;
  for (const Pending& p : group) {
    if (!request_ids.empty()) request_ids += ',';
    request_ids += p.req.request_id;
  }
  PDN3D_TRACE_SPAN_NAMED(span, "serve/request");
  span.attribute("op", api::to_string(group.front().req.eval.op));
  span.attribute("benchmark", api::benchmark_token(group.front().req.eval.benchmark));
  span.attribute("members", static_cast<std::uint64_t>(group.size()));
  span.attribute("request_id", request_ids);

  // Per-member admission bookkeeping: expired deadlines and cache hits are
  // answered here and never reach the solve. A hit answers with the stored
  // result -- byte-identical to a fresh evaluation by the fingerprint
  // contract (api/api.hpp).
  struct Member {
    Pending pending;
    RequestRecord rec;
    CachePlan plan;
    api::RequestFingerprint fp;
  };
  std::vector<Member> to_run;
  to_run.reserve(group.size());

  for (auto& pending : group) {
    const double queue_ms = ms_between(pending.enqueued, start);
    h_queue.observe(queue_ms);
    w_queue.observe(queue_ms);

    RequestRecord rec;
    rec.id = pending.req.id;
    rec.request_id = pending.req.request_id;
    rec.op = api::to_string(pending.req.eval.op);
    rec.benchmark = api::benchmark_token(pending.req.eval.benchmark);
    rec.queue_ms = queue_ms;

    if (start > pending.deadline) {
      m_deadline.add(1);
      outstanding_cost_.fetch_sub(pending.cost, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.deadline_expired;
      }
      rec.error = to_string(ErrorKind::kDeadlineExceeded);
      record(std::move(rec));
      pending.sink(error_response(pending.req.id, ErrorKind::kDeadlineExceeded,
                                  "deadline expired after " + std::to_string(queue_ms) +
                                      " ms in queue",
                                  pending.req.request_id));
      continue;
    }

    CachePlan plan = plan_cache(config_, pending.req);
    api::RequestFingerprint fp;
    if (plan.store) {
      fp = pending.req.eval.fingerprint();
    } else {
      cache_->note_bypass();
    }
    if (plan.consult) {
      if (const auto cached = cache_->lookup(fp)) {
        const double run_ms = ms_between(start, Clock::now());
        h_run.observe(run_ms);
        w_run.observe(run_ms);
        m_completed.add(1);
        outstanding_cost_.fetch_sub(pending.cost, std::memory_order_relaxed);
        rec.ok = true;
        rec.run_ms = run_ms;
        rec.headline_mv = cached->headline_mv;
        rec.fingerprint = cached->fingerprint;
        rec.cache = "hit";
        {
          const std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.completed;
        }
        record(std::move(rec));
        pending.sink(ok_response(pending.req, *cached, queue_ms, run_ms, "hit"));
        continue;
      }
    }
    to_run.push_back(Member{std::move(pending), std::move(rec), plan, std::move(fp)});
  }

  if (to_run.empty()) return;

  // Slow-request tracing: capture every span this dispatch completes on this
  // thread (sound because the members evaluate inline here -- the nested-
  // region rule), and export the tree once per member if the run crosses
  // the threshold.
  const bool capture = config_.slow_request_ms > 0.0;
  if (capture) obs::begin_capture();

  // Only a group of one can carry test_sleep_ms: coalescible() excludes it.
  if (config_.enable_test_ops && to_run.front().pending.req.test_sleep_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(to_run.front().pending.req.test_sleep_ms));
  }

  // One watchdog ticket and one cancel token cover the whole group: the
  // members share a solve, so a timeout stops all of them at the same poll
  // point (each then answers `timeout` individually below). The solve runs
  // inline on this worker (exec's nested-region rule), so installing the
  // token here covers every CG/Cholesky poll point it will hit.
  publish_in_flight(in_flight_.fetch_add(to_run.size(), std::memory_order_relaxed) +
                    to_run.size());
  exec::CancelToken cancel;
  std::uint64_t ticket = 0;
  const bool watched = config_.watchdog_ms > 0.0;
  if (watched) {
    ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
    const Clock::time_point cancel_at =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(config_.watchdog_ms));
    {
      const std::lock_guard<std::mutex> lock(watchdog_mutex_);
      inflight_[ticket] = {&cancel, cancel_at};
    }
    watchdog_cv_.notify_one();
  }

  // Identical fingerprints inside one group evaluate once: the duplicate is
  // answered from its twin's slice, exactly as if it had arrived after the
  // twin's cache insert and hit -- so it reports `cache: hit` and skips its
  // own (redundant) insert. Bypass members never dedupe: bypass means "give
  // me a fresh solve", so each gets its own slice.
  std::vector<api::EvaluateRequest> reqs;
  reqs.reserve(to_run.size());
  std::vector<std::size_t> slot(to_run.size());
  std::unordered_map<std::string, std::size_t> first_by_fp;
  for (std::size_t i = 0; i < to_run.size(); ++i) {
    Member& m = to_run[i];
    if (m.plan.store) {
      const auto [it, inserted] = first_by_fp.emplace(m.fp.canonical, reqs.size());
      if (!inserted) {
        slot[i] = it->second;
        m.plan.store = false;
        m.plan.token = "hit";
        continue;
      }
    }
    slot[i] = reqs.size();
    reqs.push_back(m.pending.req.eval);
  }

  // A group of one is answered by Session::evaluate; larger groups share one
  // multi-RHS solve.
  std::vector<api::EvaluateResult> results;
  bool internal_error = false;
  std::string internal_message;
  {
    const exec::CancelScope scope(cancel);
    PDN3D_FAULT_STALL("service.worker.stall", 100.0);
    try {
      results = session_.evaluate_group(reqs);
    } catch (const std::exception& e) {
      // evaluate() is documented never to throw for data-dependent reasons;
      // anything escaping (fault-injected bad_alloc included) is answered
      // with a typed `internal` error rather than torn down with the worker.
      internal_error = true;
      internal_message = e.what();
    } catch (...) {
      internal_error = true;
      internal_message = "unknown exception";
    }
  }
  if (watched) {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    inflight_.erase(ticket);
  }
  publish_in_flight(in_flight_.fetch_sub(to_run.size(), std::memory_order_relaxed) -
                    to_run.size());

  // run_ms is shared: the members finished together in one solve.
  const double run_ms = ms_between(start, Clock::now());
  const obs::CaptureResult trace = capture ? obs::end_capture() : obs::CaptureResult{};
  const bool slow = capture && run_ms >= config_.slow_request_ms;
  auto spans = obs::json::Value::array();
  if (slow) {
    for (const auto& s : trace.spans) {
      auto row = obs::json::Value::object();
      row.set("path", obs::json::Value(s.path));
      row.set("start_us", obs::json::Value(s.start_us));
      row.set("duration_us", obs::json::Value(s.duration_us));
      spans.push_back(std::move(row));
    }
  }

  for (std::size_t i = 0; i < to_run.size(); ++i) {
    Member& m = to_run[i];
    outstanding_cost_.fetch_sub(m.pending.cost, std::memory_order_relaxed);
    h_run.observe(run_ms);
    w_run.observe(run_ms);
    m_completed.add(1);
    m.rec.run_ms = run_ms;
    const double queue_ms = m.rec.queue_ms;

    if (slow) {
      static auto& m_slow = obs::counter("service.slow_requests");
      m_slow.add(1);
      obs::log_event(util::LogLevel::kWarn, "serve.slow_request",
                     {{"request_id", m.pending.req.request_id},
                      {"id", m.pending.req.id},
                      {"op", m.rec.op},
                      {"benchmark", m.rec.benchmark},
                      {"run_ms", run_ms},
                      {"queue_ms", queue_ms},
                      {"threshold_ms", config_.slow_request_ms},
                      {"spans_dropped", trace.dropped},
                      {"spans", spans}});
    }

    if (internal_error || slot[i] >= results.size()) {
      m_internal.add(1);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.completed;
        ++stats_.internal_errors;
      }
      m.rec.error = to_string(ErrorKind::kInternal);
      record(std::move(m.rec));
      m.pending.sink(error_response(m.pending.req.id, ErrorKind::kInternal,
                                    internal_error ? internal_message : "batch result missing",
                                    m.pending.req.request_id));
      continue;
    }

    // Cancelled AND failed = the watchdog stopped it mid-solve. A request
    // that finished ok despite a late cancel still delivers its result.
    api::EvaluateResult& result = results[slot[i]];
    if (cancel.cancelled() && !result.ok()) {
      m_timeouts.add(1);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.completed;
        ++stats_.timeouts;
      }
      m.rec.error = to_string(ErrorKind::kTimeout);
      record(std::move(m.rec));
      m.pending.sink(error_response(
          m.pending.req.id, ErrorKind::kTimeout,
          "evaluation exceeded watchdog (" +
              std::to_string(static_cast<long long>(config_.watchdog_ms)) +
              " ms): " + std::string(result.status.message()),
          m.pending.req.request_id));
      continue;
    }

    m.rec.ok = result.ok();
    if (!result.ok()) m.rec.error = to_string(ErrorKind::kEvaluationFailed);
    m.rec.headline_mv = result.headline_mv;
    m.rec.fingerprint = result.fingerprint;
    m.rec.cache = m.plan.token;
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.completed;
    }
    record(std::move(m.rec));
    if (m.plan.store && result.ok()) cache_->insert(m.fp, result);
    m.pending.sink(ok_response(m.pending.req, result, queue_ms, run_ms, m.plan.token));
  }
}

void BatchService::record(RequestRecord rec) {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  if (records_.size() >= kMaxRequestRecords) {
    ++records_dropped_;
    return;
  }
  records_.push_back(std::move(rec));
}

void BatchService::drain() {
  if (!started_ || drained_) return;
  drained_ = true;
  draining_.store(true, std::memory_order_release);
  queue_->close();
  orchestrator_.join();
  obs::gauge("service.uptime_seconds").set(uptime_seconds());
  publish_queue_depth();
  publish_in_flight(in_flight_.load(std::memory_order_relaxed));
  if (watchdog_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_one();
    watchdog_.join();
  }
}

BatchService::Stats BatchService::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::size_t BatchService::queued() const { return queue_ != nullptr ? queue_->size() : 0; }

obs::json::Value BatchService::session_block() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  auto block = obs::json::Value::object();
  block.set("workers", obs::json::Value(static_cast<std::uint64_t>(config_.workers)));
  block.set("queue_capacity",
            obs::json::Value(static_cast<std::uint64_t>(config_.queue_capacity)));
  // Schema v9: lifetime and peak load plus the result-cache block, so a
  // report alone answers "how hard was this server actually pushed" and "how
  // much of it was absorbed by the cache".
  block.set("uptime_seconds", obs::json::Value(uptime_seconds()));
  block.set("peak_queue_depth",
            obs::json::Value(peak_queue_depth_.load(std::memory_order_relaxed)));
  block.set("peak_in_flight", obs::json::Value(peak_in_flight_.load(std::memory_order_relaxed)));
  set_totals(&block, stats_);
  block.set("cache", cache_json(cache_->stats()));
  auto requests = obs::json::Value::array();
  for (const auto& rec : records_) {
    auto r = obs::json::Value::object();
    r.set("id", obs::json::Value(static_cast<std::int64_t>(rec.id)));
    r.set("request_id", obs::json::Value(rec.request_id));
    r.set("op", obs::json::Value(rec.op));
    r.set("benchmark", obs::json::Value(rec.benchmark));
    r.set("ok", obs::json::Value(rec.ok));
    if (!rec.error.empty()) r.set("error", obs::json::Value(rec.error));
    r.set("queue_ms", obs::json::Value(rec.queue_ms));
    r.set("run_ms", obs::json::Value(rec.run_ms));
    r.set("headline_mv", obs::json::Value(rec.headline_mv));
    r.set("fingerprint", obs::json::Value(rec.fingerprint));
    r.set("cache", obs::json::Value(rec.cache));
    requests.push_back(std::move(r));
  }
  block.set("requests", std::move(requests));
  block.set("requests_dropped_from_report", obs::json::Value(records_dropped_));
  return block;
}

// ---------------------------------------------------------------------------
// SocketServer
// ---------------------------------------------------------------------------

SocketServer::SocketServer(BatchService& service, std::string socket_path)
    : service_(service), path_(std::move(socket_path)) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("socket path too long: " + path_);
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
  // A leftover path is only reclaimed when it is provably a stale socket: a
  // non-socket file is never deleted, and a socket with a live listener keeps
  // refusing a second server instead of hijacking its address.
  struct stat st {};
  if (::lstat(path_.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("refusing to replace " + path_ + ": exists and is not a socket");
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const int rc = ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      ::close(probe);
      if (rc == 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("refusing to replace " + path_ +
                                 ": a live server is already listening");
      }
    }
    ::unlink(path_.c_str());  // stale socket from a crashed run
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind(" + path_ + "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen(" + path_ + "): " + std::strerror(err));
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

/// Shared connection state: the reader thread, every in-flight response
/// sink, and stop() each hold a shared_ptr, so the fd stays valid (not
/// closed, hence never recycled) until the last of them lets go. stop() may
/// therefore shutdown() the fd of a reader that already exited without
/// racing a close().
struct SocketServer::ConnState {
  int fd = -1;
  std::mutex write_mutex;        ///< serializes response writes
  std::atomic<bool> reader_done{false};
  ~ConnState() {
    if (fd >= 0) ::close(fd);
  }
};

void SocketServer::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->state->reader_done.load(std::memory_order_acquire)) {
      it->reader.join();  // done flag is the reader's last store; join is brief
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 100 /*ms*/);
    if (rc <= 0) continue;  // timeout (re-check stop flag) or EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto state = std::make_shared<ConnState>();
    state->fd = fd;
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    reap_finished_locked();  // bound the list under many short-lived clients
    connections_.push_back(
        {std::thread([this, state] { connection_loop(state); }), state});
  }
}

void SocketServer::connection_loop(std::shared_ptr<ConnState> state) {
  static auto& m_conns = obs::counter("service.connections");
  m_conns.add(1);
  // Responses complete on worker threads while the reader is mid-line (or
  // after it exited); the shared state keeps the fd and write mutex alive
  // until the last in-flight response for this connection lands.
  ResponseSink sink = [state](const std::string& line) {
    const std::lock_guard<std::mutex> lock(state->write_mutex);
    std::string out = line;
    out.push_back('\n');
    std::size_t off = 0;
    while (off < out.size()) {
      // MSG_NOSIGNAL: a vanished client must yield EPIPE here, not a
      // process-killing SIGPIPE.
      const ssize_t n =
          ::send(state->fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;  // client went away; drop the response
      off += static_cast<std::size_t>(n);
    }
  };

  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(state->fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF (or stop()'s shutdown) or error: client is done
    if (PDN3D_FAULT_POINT("service.socket.reset")) {
      // Injected connection reset: drop the link mid-stream the way a
      // crashed client would. Already-admitted requests still run; their
      // responses fail to send and are dropped, which is exactly the real
      // failure mode the soak harness must tolerate.
      ::shutdown(state->fd, SHUT_RDWR);
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    for (std::size_t nl = buffer.find('\n', pos); nl != std::string::npos;
         nl = buffer.find('\n', pos)) {
      const std::string_view line(buffer.data() + pos, nl - pos);
      if (!line.empty()) service_.submit_line(line, sink);
      pos = nl + 1;
    }
    buffer.erase(0, pos);
    if (buffer.size() > kMaxRequestBytes) {
      // A line this long is rejected on length alone; close rather than
      // buffer an unbounded stream waiting for its newline.
      sink(error_response(-1, ErrorKind::kRequestTooLarge,
                          "request line exceeds " + std::to_string(kMaxRequestBytes) +
                              " bytes"));
      ::shutdown(state->fd, SHUT_RDWR);
      break;
    }
  }
  if (!buffer.empty()) service_.submit_line(buffer, sink);
  state->reader_done.store(true, std::memory_order_release);
}

void SocketServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<Connection> conns;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(connections_);
  }
  // Unblock readers parked in read() on connections the client never closed:
  // SHUT_RD makes their read() return 0 without cutting the write side, so
  // responses still in flight keep delivering through the caller's
  // BatchService::drain. The shared state guarantees the fd is still ours.
  for (auto& c : conns) ::shutdown(c.state->fd, SHUT_RD);
  for (auto& c : conns) c.reader.join();
  ::unlink(path_.c_str());
}

}  // namespace pdn3d::service

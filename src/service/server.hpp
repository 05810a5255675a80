#pragma once

/// @file server.hpp
/// @brief The batch evaluation service behind `pdn3d serve`.
///
/// A BatchService owns a bounded admission queue and a set of worker loops
/// dispatched onto an exec::ThreadPool. Front ends (the stdin NDJSON loop and
/// the Unix-domain-socket server below) feed it request lines; every line
/// produces exactly one response through the sink the caller supplied.
///
/// Lifecycle:  start() -> submit_line()* -> drain().
///
///  - **Backpressure.** Admission never blocks: a full queue answers
///    `queue_full` immediately and the request is dropped before it costs
///    anything. Clients retry with their own policy.
///  - **Overload control.** Beyond slot-count backpressure, admission tracks
///    the estimated cost of everything admitted-but-unfinished (a montecarlo
///    with 10k samples is not one ping). When `max_outstanding_cost` is set
///    and the new request would push past it, the request is shed with a
///    typed `overloaded` error before it is queued. The `health` op reports
///    queue depth, in-flight count, outstanding cost, and drain state, and is
///    answered inline even while draining.
///  - **Watchdog.** When `watchdog_ms` is set, an evaluation that runs past
///    it is cancelled cooperatively (exec::CancelToken polled inside the CG /
///    Cholesky inner loops) and answered with a typed `timeout` error. A
///    request that completes despite the cancel still delivers its result.
///  - **Deadline.** `deadline_ms` (or the config default) is enforced at
///    dequeue: a request whose deadline passed while queued answers
///    `deadline_exceeded` instead of running. Granularity is admission->start;
///    a request that began evaluating always runs to completion.
///  - **Cancellation.** `cancel` plucks a still-queued request out of the
///    admission queue. Same granularity: once a worker popped it, the cancel
///    answers `not_found`.
///  - **Graceful drain.** drain() stops admission (`shutdown` responses) and
///    waits for every already-admitted request to finish; no admitted request
///    is ever dropped without a response.
///
/// Request-level parallelism only: worker loops occupy the pool's region, so
/// per-request sweeps (Monte Carlo, co-optimizer) run inline on their worker
/// (exec's nested-region rule). Throughput comes from concurrent requests
/// plus the api::Session caches shared across them.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "exec/bounded_queue.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"

namespace pdn3d::service {

struct ServiceConfig {
  std::size_t workers = 0;         ///< 0 = exec::default_thread_count()
  std::size_t queue_capacity = 64; ///< admission queue slots (backpressure point)
  double default_deadline_ms = 0.0; ///< applied when a request names none; 0 = off
  bool enable_test_ops = false;    ///< honor `test_sleep_ms` (fault-injection tests)
  /// Cost-based admission ceiling: the sum of estimated costs of every
  /// admitted-but-unfinished request may not exceed this (0 = unlimited).
  /// A request that would push past it is shed with a typed `overloaded`
  /// error. The check is approximate (check-then-add, bounded overshoot of
  /// one request) and at least one request is always admitted when idle.
  std::uint64_t max_outstanding_cost = 0;
  /// Per-request watchdog: an evaluation running longer than this is
  /// cancelled cooperatively and answered `timeout` (0 = off). Measured from
  /// evaluation start, not admission (deadline_ms covers queue time).
  double watchdog_ms = 0.0;
  /// Slow-request tracing: a dispatch whose run time exceeds this logs one
  /// `serve.slow_request` event per evaluated member, carrying the captured
  /// span tree (0 = off). The CLI flag is `--slow-ms`.
  double slow_request_ms = 0.0;
  /// Result-cache capacity in entries, content-addressed by request
  /// fingerprint (0 = cache off: every request answers `cache:"bypass"`).
  /// The CLI flag is `--cache-entries`.
  std::size_t cache_entries = 256;
};

/// Delivery callback for one response line (no trailing newline). Invoked
/// from worker threads and from submit_line's caller; implementations
/// serialize their own writes (see SocketServer's per-connection mutex).
using ResponseSink = std::function<void(const std::string&)>;

class BatchService {
 public:
  /// @param session must outlive the service; shared across all requests so
  /// design/LUT/factor caches amortize (the point of serving).
  BatchService(const api::Session& session, ServiceConfig config);

  /// Drains if the owner forgot to.
  ~BatchService();

  BatchService(const BatchService&) = delete;
  BatchService& operator=(const BatchService&) = delete;

  /// Spawn the worker loops. Call once, before the first submit_line.
  void start();

  /// Decode and dispatch one NDJSON line. Exactly one response reaches
  /// @p sink: immediately for ping/cancel/bad-request/queue-full/shutdown,
  /// or from a worker thread when the evaluation finishes.
  void submit_line(std::string_view line, ResponseSink sink);

  /// Stop admission, answer the backlog, join the workers. Idempotent;
  /// returns when every admitted request has been responded to.
  void drain();

  /// Point-in-time counters (exact once drain() returned).
  struct Stats {
    std::uint64_t submitted = 0;      ///< lines received
    std::uint64_t completed = 0;      ///< evaluations that ran (ok or failed)
    std::uint64_t rejected_full = 0;  ///< queue_full backpressure responses
    std::uint64_t rejected_shutdown = 0;
    std::uint64_t rejected_overload = 0;  ///< shed by cost-based admission
    std::uint64_t rejected_too_large = 0; ///< request_too_large responses
    std::uint64_t bad_requests = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t timeouts = 0;        ///< watchdog-cancelled evaluations
    std::uint64_t internal_errors = 0; ///< exceptions escaping an evaluation
  };
  [[nodiscard]] Stats stats() const;

  /// Requests admitted but not yet popped by a worker. A test/diagnostic
  /// aid: polling for 0 after a submit proves the worker picked it up.
  [[nodiscard]] std::size_t queued() const;

  /// The run report's "session" block (schema v9): aggregate counters,
  /// uptime, peak load, the result-cache block, plus one record per
  /// evaluated request with its fingerprint and cache disposition
  /// (docs/OBSERVABILITY.md).
  [[nodiscard]] obs::json::Value session_block() const;

  /// The result cache (exposed for tests and stats plumbing).
  [[nodiscard]] const ResultCache& cache() const { return *cache_; }

  /// Seconds since start(); 0 before start.
  [[nodiscard]] double uptime_seconds() const;

 private:
  struct Pending;
  struct RequestRecord;
  struct InFlight;

  void worker_loop();
  void watchdog_loop();
  /// Answer one group popped by worker_loop: a single request, or up to
  /// kMaxCoalesce factor-sharing plain evaluates. Per-member deadline and
  /// cache checks, one watchdog ticket, in-group fingerprint dedupe, one
  /// Session::evaluate_group call, then one response per member. Coalesced
  /// responses are byte-identical to single ones (modulo queue_ms/run_ms).
  void dispatch(std::vector<Pending>&& group);
  /// A request's session record, up to its queue time.
  static RequestRecord record_of(const Pending& pending, double queue_ms);
  /// The exit of a line that was never admitted (too large, bad request,
  /// shutdown, overloaded, queue full, cancel target not queued): counts the
  /// answer, then writes it. No session record.
  void reject(const ResponseSink& sink, std::int64_t id, std::string_view request_id,
              ErrorKind kind, std::string_view message);
  /// The exit of every admitted request: releases its admission cost,
  /// counts the answer and appends @p record under one lock, then writes
  /// @p line. kNone is an evaluation answered ok.
  void answer(Pending& pending, RequestRecord record, ErrorKind kind, const std::string& line);
  /// The one place Stats fields and the outcome counters move (the outcome
  /// table in server.cpp); appends @p record when given.
  void count(ErrorKind kind, RequestRecord* record);
  /// Refresh the live service.queue_depth / service.inflight gauges (and
  /// their peaks) from the authoritative sources. Called on every queue or
  /// in-flight transition, so every exit path is covered by construction.
  void publish_queue_depth();
  void publish_in_flight(std::uint64_t value);
  [[nodiscard]] std::string health_response(const Request& req) const;
  [[nodiscard]] std::string stats_response(const Request& req);
  [[nodiscard]] std::string metrics_response(const Request& req);

  const api::Session& session_;
  ServiceConfig config_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::unique_ptr<exec::BoundedQueue<Pending>> queue_;
  std::thread orchestrator_;  ///< runs the pool's worker region
  bool started_ = false;
  bool drained_ = false;

  std::atomic<bool> draining_{false};  ///< set at drain() start (health op)
  std::atomic<std::uint64_t> outstanding_cost_{0};  ///< admitted, unfinished
  std::atomic<std::uint64_t> in_flight_{0};  ///< popped by a worker, running
  std::atomic<std::uint64_t> next_ticket_{0};
  std::atomic<std::uint64_t> next_request_id_{0};  ///< server-generated "r-<N>"
  std::atomic<std::uint64_t> peak_queue_depth_{0};
  std::atomic<std::uint64_t> peak_in_flight_{0};
  std::chrono::steady_clock::time_point started_at_{};  ///< set by start()

  std::mutex watchdog_mutex_;  ///< guards inflight_ + watchdog_stop_
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::map<std::uint64_t, InFlight> inflight_;  ///< ticket -> watched request
  std::thread watchdog_;

  mutable std::mutex stats_mutex_;  ///< guards stats_ + records_
  Stats stats_;
  std::vector<RequestRecord> records_;
  std::uint64_t records_dropped_ = 0;
};

/// Unix-domain-socket front end: accepts connections, reads NDJSON lines,
/// writes responses back on the same connection (interleaved in completion
/// order, matched by id). One reader thread per connection; writes are
/// serialized per connection.
class SocketServer {
 public:
  SocketServer(BatchService& service, std::string socket_path);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Bind + listen + spawn the accept loop. Throws std::runtime_error with
  /// errno context on bind/listen failure.
  void start();

  /// Stop accepting, unblock idle readers (shutdown the read side of every
  /// live connection, so a client that never closes cannot hang shutdown),
  /// join them, unlink the socket path. Idempotent. Write sides stay open:
  /// requests already admitted keep running and their responses are still
  /// delivered during the BatchService::drain that follows.
  void stop();

 private:
  /// Shared between the reader thread and every in-flight response sink;
  /// owns the fd (closed when the last holder lets go). Defined in
  /// server.cpp.
  struct ConnState;
  struct Connection {
    std::thread reader;
    /// Weak, so a connection closes once its reader and its answers are
    /// done rather than when it is reaped; stop() locks it.
    std::weak_ptr<ConnState> state;
  };

  void accept_loop();
  void connection_loop(std::shared_ptr<ConnState> state);
  void reap_finished_locked();  ///< joins done readers; needs conn_mutex_

  BatchService& service_;
  std::string path_;
  int listen_fd_ = -1;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  std::mutex conn_mutex_;
  std::vector<Connection> connections_;
};

}  // namespace pdn3d::service

#pragma once

/// @file thread_pool.hpp
/// @brief Fixed-size thread pool for embarrassingly-parallel sweeps.
///
/// Every paper-facing result is a loop over independent R-Mesh solves (Monte
/// Carlo samples, co-optimizer grid points, LUT memory states). This pool
/// runs such loops across a fixed set of worker threads with a deliberately
/// simple, work-stealing-free design: one shared atomic claim counter per
/// region, claimed in index order. The properties the sweep engines rely on:
///
///  - **Ordered results.** parallel_map writes result i into slot i; callers
///    observe exactly the serial output regardless of thread count.
///  - **Per-task exception capture.** A throwing task never tears down the
///    region; every task runs, and afterwards the *lowest-index* captured
///    exception is rethrown -- the same exception a serial loop would have
///    surfaced first.
///  - **Serial fast path.** With one thread (or one task) the body runs
///    inline on the calling thread, no locks, no allocation beyond the
///    result vector -- the single-thread overhead budget is <= 5% vs a plain
///    loop.
///  - **Span nesting.** A region records the submitting thread's open trace
///    span path; workers root the spans of its tasks there for the length of
///    the region, so the trace tree is the same whichever thread ran a task.
///  - **Cancellation.** Workers run a region's tasks under the submitting
///    thread's exec::CancelToken, so a task polls the flag its caller's
///    scope set, whichever thread runs it.
///  - **Determinism is the caller's contract.** The pool guarantees order of
///    results, not order of execution; callers must derive any randomness
///    from the task index (see util::Rng::split), never from thread identity.
///
/// The process-wide default thread count resolves, in priority order:
/// set_default_thread_count() (the CLI's --threads), the PDN3D_THREADS
/// environment variable, std::thread::hardware_concurrency().

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

namespace pdn3d::exec {

/// Process-wide default worker count used by ThreadPool(0).
/// Resolution order: explicit override > PDN3D_THREADS env > hardware
/// concurrency; always >= 1.
[[nodiscard]] std::size_t default_thread_count();

/// Override the process-wide default (0 clears the override back to
/// env/hardware resolution). Takes effect for pools constructed afterwards.
void set_default_thread_count(std::size_t threads);

/// True while the calling thread runs a region's task: any region it opens
/// runs inline, and a pool built here spawns no threads.
[[nodiscard]] bool in_region() noexcept;

class ThreadPool {
 public:
  /// @param threads worker count; 0 resolves default_thread_count(). A pool
  /// of 1 spawns no threads at all -- every region runs inline. Neither does
  /// a pool built on a thread that is running a region's task: its regions
  /// would run inline anyway (a nested region does), so it keeps
  /// thread_count() and with it the chunk boundaries of parallel_chunks.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return thread_count_; }

  /// Run body(i) for every i in [0, n), distributed over the pool (the
  /// calling thread participates). Blocks until all n tasks finished. If any
  /// tasks threw, the exception of the lowest index is rethrown after the
  /// region completes.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Run chunk(c, begin, end) for every contiguous chunk of [0, n), one
  /// chunk per participating worker (c in [0, chunks)). This is the hook for
  /// per-chunk state: give each chunk its own buffers (irdrop::LaneScratch)
  /// and reuse them across the chunk's items. Chunk boundaries depend only
  /// on n and thread_count(); use index-derived randomness to stay
  /// deterministic across thread counts.
  void parallel_chunks(std::size_t n,
                       const std::function<void(std::size_t, std::size_t, std::size_t)>& chunk);

  /// parallel_for that collects f(i) into slot i of the result vector. T must
  /// be default-constructible and movable.
  template <typename F>
  auto parallel_map(std::size_t n, F&& f) -> std::vector<decltype(f(std::size_t{}))> {
    std::vector<decltype(f(std::size_t{}))> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = f(i); });
    return out;
  }

 private:
  struct Region;
  struct Impl;

  void run_region(Region& region) const;

  std::size_t thread_count_ = 1;
  Impl* impl_ = nullptr;  ///< null for a single-thread pool
};

}  // namespace pdn3d::exec

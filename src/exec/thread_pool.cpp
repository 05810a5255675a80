#include "exec/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "faults/faults.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pdn3d::exec {

namespace {

std::atomic<std::size_t> g_thread_override{0};

/// True while this thread runs a region's tasks. A task body must never
/// observe which worker runs it, but a *nested* parallel_for on the same pool
/// would deadlock the region protocol, so nested regions (of any pool) run
/// inline on the calling thread instead.
thread_local bool tls_in_region = false;

std::size_t env_thread_count() {
  const char* env = std::getenv("PDN3D_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || (end != nullptr && *end != '\0')) return 0;
  return static_cast<std::size_t>(v);
}

}  // namespace

std::size_t default_thread_count() {
  if (const std::size_t o = g_thread_override.load(std::memory_order_relaxed); o > 0) return o;
  if (const std::size_t e = env_thread_count(); e > 0) return e;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void set_default_thread_count(std::size_t threads) {
  g_thread_override.store(threads, std::memory_order_relaxed);
}

/// One parallel_for invocation. Tasks are claimed off `next` in index order
/// (no per-worker queues, hence nothing to steal); `completed` reaching `n`
/// is the region's only completion signal. Only the lowest-index exception
/// is kept -- the one a serial loop would have surfaced.
struct ThreadPool::Region {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  /// The submitting thread's open span path: workers root the region's spans
  /// there, so task spans nest under the span that opened the region.
  obs::SpanContext span_context;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> participants{0};

  std::mutex error_mutex;
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr first_error;

  void record_error(std::size_t index, std::exception_ptr error) {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (index < first_error_index) {
      first_error_index = index;
      first_error = std::move(error);
    }
  }
};

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_cv;   ///< workers wait here for a new region
  std::condition_variable done_cv;   ///< the submitter waits here for completion
  std::shared_ptr<Region> current;   ///< active region, null when idle
  std::uint64_t generation = 0;      ///< bumped per region so workers run each once
  bool stop = false;
  std::vector<std::thread> workers;
};

ThreadPool::ThreadPool(std::size_t threads)
    : thread_count_(threads > 0 ? threads : default_thread_count()) {
  obs::gauge("exec.pool_threads").set(static_cast<double>(thread_count_));
  // Inline pool: no threads, no locks. Inside a region every parallel_for
  // runs inline, so workers spawned there would only wait.
  if (thread_count_ <= 1 || tls_in_region) return;

  impl_ = new Impl;
  impl_->workers.reserve(thread_count_ - 1);
  for (std::size_t w = 0; w + 1 < thread_count_; ++w) {
    impl_->workers.emplace_back([this] {
      std::uint64_t seen = 0;
      for (;;) {
        std::shared_ptr<Region> region;
        {
          std::unique_lock<std::mutex> lock(impl_->mutex);
          impl_->work_cv.wait(lock, [&] {
            return impl_->stop || (impl_->current != nullptr && impl_->generation != seen);
          });
          if (impl_->stop) return;
          seen = impl_->generation;
          region = impl_->current;
        }
        const obs::ScopedSpanRoot span_root(region->span_context);
        tls_in_region = true;
        run_region(*region);
        tls_in_region = false;
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::run_region(Region& region) const {
  bool counted = false;
  for (;;) {
    const std::size_t i = region.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= region.n) return;
    if (!counted) {
      counted = true;
      region.participants.fetch_add(1, std::memory_order_relaxed);
    }
    try {
      (*region.body)(i);
    } catch (...) {
      region.record_error(i, std::current_exception());
    }
    if (region.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == region.n) {
      // The submitter may already be waiting; the lock pairs with its
      // predicate check so the notification cannot be lost.
      const std::lock_guard<std::mutex> lock(impl_->mutex);
      impl_->done_cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  static auto& m_regions = obs::counter("exec.regions");
  static auto& m_tasks = obs::counter("exec.tasks");
  static auto& m_queue_depth = obs::gauge("exec.queue_depth");
  static auto& m_utilization = obs::gauge("exec.region_utilization");
  m_regions.add(1);
  m_tasks.add(n);
  PDN3D_FAULT_STALL("exec.region.stall", 20.0);

  if (impl_ == nullptr || n == 1 || tls_in_region) {
    // Inline path (single-thread pool, trivial region, or nested call): same
    // semantics as the pooled path -- every task runs, the lowest-index
    // exception surfaces afterwards.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    m_utilization.set(1.0 / static_cast<double>(thread_count_));
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  auto region = std::make_shared<Region>();
  region->n = n;
  region->body = &body;
  region->span_context = obs::current_span_context();
  m_queue_depth.set(static_cast<double>(n));
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->current = region;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();

  tls_in_region = true;
  run_region(*region);
  tls_in_region = false;

  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->done_cv.wait(lock, [&] {
      return region->completed.load(std::memory_order_acquire) >= region->n;
    });
    impl_->current.reset();
  }
  m_queue_depth.set(0.0);
  m_utilization.set(static_cast<double>(region->participants.load(std::memory_order_relaxed)) /
                    static_cast<double>(thread_count_));
  // Workers may still hold the region. Move the error out of it, so this
  // thread holds the exception's last reference and destroys it here, not a
  // worker dropping the region while the caller reads the exception.
  if (std::exception_ptr error = std::move(region->first_error)) {
    std::rethrow_exception(std::move(error));
  }
}

void ThreadPool::parallel_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t, std::size_t)>& chunk) {
  if (n == 0) return;
  // Chunk boundaries depend only on n and the pool size, never on runtime
  // scheduling, so per-chunk state (solve scratch, accumulators merged in
  // chunk order) is reproducible run-to-run at a given thread count.
  const std::size_t chunks = std::min(thread_count_, n);
  parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    chunk(c, begin, end);
  });
}

}  // namespace pdn3d::exec

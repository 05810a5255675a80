#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"
#include "obs/trace.hpp"

namespace pdn3d::exec {
namespace {

TEST(ThreadPool, ZeroTasksIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  pool.parallel_chunks(0, [&](std::size_t, std::size_t, std::size_t) { calls.fetch_add(1); });
  const auto out = pool.parallel_map(0, [](std::size_t i) { return i; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(out.empty());
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    constexpr std::size_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ParallelMapKeepsResultOrder) {
  ThreadPool pool(8);
  const auto out = pool.parallel_map(257, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(ThreadPool, ChunksPartitionTheRangeExactly) {
  // Chunk boundaries must cover [0, n) contiguously, in order, with no
  // overlap -- and depend only on (n, thread_count), never on scheduling.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      ThreadPool pool(threads);
      std::mutex mu;
      std::vector<std::array<std::size_t, 3>> seen;
      pool.parallel_chunks(n, [&](std::size_t c, std::size_t begin, std::size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back({c, begin, end});
      });
      std::sort(seen.begin(), seen.end());
      ASSERT_FALSE(seen.empty());
      EXPECT_EQ(seen.front()[1], 0u);
      EXPECT_EQ(seen.back()[2], n);
      for (std::size_t k = 0; k < seen.size(); ++k) {
        EXPECT_EQ(seen[k][0], k);                          // chunk ids are dense
        EXPECT_LT(seen[k][1], seen[k][2]);                 // chunks are non-empty
        if (k > 0) {
          EXPECT_EQ(seen[k][1], seen[k - 1][2]);  // contiguous
        }
      }
    }
  }
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  // Several tasks throw; the rethrown exception must be the one a serial
  // loop would have surfaced first, regardless of execution order.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadPool pool(threads);
    std::atomic<int> executed{0};
    try {
      pool.parallel_for(100, [&](std::size_t i) {
        executed.fetch_add(1);
        if (i % 7 == 3) throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
    // A throwing task never tears the region down: every task still ran.
    EXPECT_EQ(executed.load(), 100);
  }
}

TEST(ThreadPool, NestedRegionsRunInline) {
  // A task that itself calls parallel_for must not deadlock waiting for
  // workers that are already busy -- nested regions degrade to inline loops.
  ThreadPool pool(4);
  std::atomic<int> inner{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 64);
}

TEST(ThreadPool, WorkerSpansNestUnderTheSubmittingSpan) {
  obs::TraceStore& store = obs::TraceStore::instance();
  store.clear();
  ThreadPool pool(4);
  // Every task opens a span named @p name and is held until a second thread
  // has run a task too, so the region is known to have used a worker.
  const auto region = [&pool](const char* name) {
    std::mutex mutex;
    std::condition_variable cv;
    std::set<std::thread::id> runners;
    pool.parallel_for(16, [&](std::size_t) {
      const obs::TraceSpan span(name);
      std::unique_lock<std::mutex> lock(mutex);
      runners.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return runners.size() >= 2; });
    });
    return runners.size();
  };
  {
    const obs::TraceSpan outer("outer");
    EXPECT_GE(region("task"), 2u);
  }
  // A worker drops the submitter's path when it leaves the region: a later
  // region submitted with no span open roots its tasks at the root again.
  EXPECT_GE(region("bare"), 2u);

  std::size_t tasks = 0;
  std::size_t bare = 0;
  for (const obs::SpanRecord& e : store.events()) {
    if (e.name == "task") {
      ++tasks;
      EXPECT_EQ(e.path, "outer/task");
      EXPECT_EQ(e.depth, 1);
    } else if (e.name == "bare") {
      ++bare;
      EXPECT_EQ(e.path, "bare");
      EXPECT_EQ(e.depth, 0);
    }
  }
  EXPECT_EQ(tasks, 16u);
  EXPECT_EQ(bare, 16u);
  EXPECT_EQ(store.stats().count("task"), 0u);
  EXPECT_EQ(store.unbalanced_spans(), 0u);
}

TEST(ThreadPool, SingleThreadPoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const std::size_t caller = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::set<std::size_t> ids;
  pool.parallel_for(16, [&](std::size_t) {
    ids.insert(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  });
  EXPECT_EQ(ids, std::set<std::size_t>{caller});
}

/// Threads of this process, from /proc/self/status (0 where it is absent).
std::size_t process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST(ThreadPool, PoolBuiltInsideARegionSpawnsNoThreads) {
  // Inside a region every parallel_for runs inline, so a pool built there
  // starts no workers. It keeps its thread count, and with it the chunk
  // boundaries parallel_chunks hands out.
  if (process_threads() == 0) GTEST_SKIP() << "no /proc/self/status";
  const auto chunks_of = [](ThreadPool& pool) {
    std::mutex mu;
    std::set<std::array<std::size_t, 3>> seen;
    pool.parallel_chunks(8, [&](std::size_t c, std::size_t begin, std::size_t end) {
      const std::lock_guard<std::mutex> lock(mu);
      seen.insert({c, begin, end});
    });
    return seen;
  };
  ThreadPool top(3);
  const auto top_chunks = chunks_of(top);
  ThreadPool outer(3);
  outer.parallel_for(2, [&](std::size_t i) {
    if (i != 0) return;
    const std::size_t before = process_threads();
    ThreadPool inner(3);
    EXPECT_EQ(process_threads(), before);
    EXPECT_EQ(inner.thread_count(), 3u);
    EXPECT_EQ(chunks_of(inner), top_chunks);
  });
}

TEST(ThreadPool, TasksPollTheSubmittersCancelToken) {
  // Workers run a region's tasks under the submitting thread's token, and
  // under none once the region is over.
  ThreadPool pool(4);
  constexpr std::size_t n = 32;
  std::mutex mutex;
  std::set<std::thread::id> threads;
  std::vector<char> seen(n, 0);
  const auto body = [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    seen[i] = cancellation_requested() ? 1 : 0;
    EXPECT_TRUE(in_region());
    const std::lock_guard<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
  };
  CancelToken token;
  token.cancel();
  {
    const CancelScope scope(token);
    pool.parallel_for(n, body);
  }
  EXPECT_GT(threads.size(), 1u);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), static_cast<long>(n));
  EXPECT_FALSE(in_region());
  pool.parallel_for(n, body);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 0), static_cast<long>(n));
}

TEST(ThreadPool, DefaultCountHonorsOverride) {
  set_default_thread_count(3);
  EXPECT_EQ(default_thread_count(), 3u);
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 3u);
  set_default_thread_count(0);  // back to env/hardware resolution
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  constexpr std::size_t n = 10000;
  const auto terms = pool.parallel_map(n, [](std::size_t i) { return double(i) * 0.5; });
  const double parallel_sum = std::accumulate(terms.begin(), terms.end(), 0.0);
  double serial_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) serial_sum += double(i) * 0.5;
  EXPECT_DOUBLE_EQ(parallel_sum, serial_sum);  // slot-ordered => same fp order
}

}  // namespace
}  // namespace pdn3d::exec

// The content-addressed result cache (src/service/cache.hpp) and its service
// integration: LRU bounds, hash-collision safety, cached-vs-fresh byte
// parity, per-request cache modes, and the coalescing planner's group path
// (per-member deadlines and slow-request events included).
// The ConcurrentResultCache suite follows the Concurrent* naming convention
// so the TSan suite (scripts/run_sanitized_tests.sh) picks it up.

#include "service/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "obs/metrics.hpp"
#include "service/server.hpp"
#include "util/log.hpp"

namespace pdn3d::service {
namespace {

using namespace std::chrono_literals;

api::RequestFingerprint make_fp(std::uint64_t hash, const std::string& canonical) {
  api::RequestFingerprint fp;
  fp.hash = hash;
  fp.canonical = canonical;
  return fp;
}

api::EvaluateResult make_result(const std::string& output) {
  api::EvaluateResult r;
  r.output = output;
  return r;
}

TEST(ResultCache, LruEvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.insert(make_fp(1, "a"), make_result("A"));
  cache.insert(make_fp(2, "b"), make_result("B"));
  ASSERT_TRUE(cache.lookup(make_fp(1, "a")).has_value());  // refresh a's position
  cache.insert(make_fp(3, "c"), make_result("C"));         // evicts b, not a

  EXPECT_FALSE(cache.lookup(make_fp(2, "b")).has_value());
  const auto a = cache.lookup(make_fp(1, "a"));
  const auto c = cache.lookup(make_fp(3, "c"));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(a->output, "A");
  EXPECT_EQ(c->output, "C");

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(ResultCache, HashCollisionDegradesToMissNeverWrongBytes) {
  ResultCache cache(4);
  cache.insert(make_fp(42, "request-one"), make_result("ONE"));
  // Same 64-bit hash, different canonical text: must miss, not serve ONE.
  EXPECT_FALSE(cache.lookup(make_fp(42, "request-two")).has_value());
  // Inserting the collider overwrites the slot (newest wins); the loser
  // misses from then on instead of ever getting the winner's bytes.
  cache.insert(make_fp(42, "request-two"), make_result("TWO"));
  EXPECT_FALSE(cache.lookup(make_fp(42, "request-one")).has_value());
  const auto two = cache.lookup(make_fp(42, "request-two"));
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->output, "TWO");
}

TEST(ResultCache, RefreshOverwritesInPlace) {
  ResultCache cache(2);
  cache.insert(make_fp(7, "k"), make_result("stale"));
  cache.insert(make_fp(7, "k"), make_result("fresh"));
  const auto got = cache.lookup(make_fp(7, "k"));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->output, "fresh");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, ZeroCapacityDisablesAndCountsBypass) {
  ResultCache cache(0);
  cache.insert(make_fp(1, "a"), make_result("A"));
  EXPECT_FALSE(cache.lookup(make_fp(1, "a")).has_value());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_GE(s.bypass, 1u);  // the disabled lookup is counted as a bypass
}

TEST(ResultCache, FailedResultsAreNeverCached) {
  ResultCache cache(4);
  api::EvaluateResult failed;
  failed.status = core::Status::input_error("boom");
  cache.insert(make_fp(1, "a"), failed);
  EXPECT_FALSE(cache.lookup(make_fp(1, "a")).has_value());
  EXPECT_EQ(cache.stats().insertions, 0u);
}

// Hammer one small cache from many threads; TSan verifies the locking, the
// final stats verify no operation was lost or double-counted.
TEST(ConcurrentResultCache, ParallelLookupInsertIsRaceFree) {
  ResultCache cache(8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::atomic<std::uint64_t> local_hits{0};
  std::atomic<std::uint64_t> local_misses{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &local_hits, &local_misses, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>((t + i) % 16);
        const std::string canonical = "req-" + std::to_string(key);
        if (i % 3 == 0) {
          cache.insert(make_fp(key, canonical), make_result(canonical));
        } else if (const auto got = cache.lookup(make_fp(key, canonical))) {
          EXPECT_EQ(got->output, canonical);  // never another key's bytes
          local_hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          local_misses.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 97 == 0) cache.note_bypass();
      }
    });
  }
  for (auto& th : threads) th.join();

  const CacheStats s = cache.stats();
  EXPECT_LE(s.entries, 8u);
  EXPECT_EQ(s.hits, local_hits.load());
  EXPECT_EQ(s.misses, local_misses.load());
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * ((kOpsPerThread * 2) / 3));
}

// ---------------------------------------------------------------------------
// Service integration
// ---------------------------------------------------------------------------

class Collector {
 public:
  ResponseSink sink() {
    return [this](const std::string& line) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        lines_.push_back(line);
      }
      cv_.notify_all();
    };
  }

  std::vector<std::string> wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, 60s, [&] { return lines_.size() >= n; });
    return lines_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

// The escaped `output` payload of an ok response; comparing the escaped
// bytes is equivalent to comparing the unescaped bytes.
std::string output_field(const std::string& line) {
  const auto pos = line.find("\"output\":\"");
  if (pos == std::string::npos) return {};
  const auto start = pos + 10;
  const auto end = line.find("\",\"request_id\":\"", start);
  return end == std::string::npos ? std::string() : line.substr(start, end - start);
}

std::string line_with_id(const std::vector<std::string>& lines, int id) {
  const std::string tag = "\"id\":" + std::to_string(id) + ",";
  for (const auto& line : lines) {
    if (line.rfind("{" + tag, 0) == 0) return line;
  }
  return {};
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string eval_line(int id, const std::string& extra = "") {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"evaluate\",\"benchmark\":\"off-chip\",\"state\":\"0-0-0-2\"," +
         "\"design\":{\"m2\":20}" + (extra.empty() ? "" : "," + extra) + "}";
}

// A hit must return the same bytes a fresh evaluation produces, at any
// worker count, and the three cache modes must echo their disposition.
TEST(ServiceCache, CachedResponsesAreByteIdenticalToFreshAtAnyThreadCount) {
  std::vector<std::string> outputs;  // [t1 miss, t1 hit, t8 miss, t8 hit]
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    api::Session session;
    ServiceConfig cfg;
    cfg.workers = workers;
    BatchService service(session, cfg);
    service.start();

    Collector c;
    service.submit_line(eval_line(1), c.sink());
    auto lines = c.wait_for(1);  // serialize: the second submit must hit
    service.submit_line(eval_line(2), c.sink());
    service.submit_line(eval_line(3, "\"cache\":\"bypass\""), c.sink());
    service.submit_line(eval_line(4, "\"cache\":\"refresh\""), c.sink());
    lines = c.wait_for(4);
    service.drain();
    ASSERT_EQ(lines.size(), 4u);

    const std::string miss = line_with_id(lines, 1);
    const std::string hit = line_with_id(lines, 2);
    const std::string bypass = line_with_id(lines, 3);
    const std::string refresh = line_with_id(lines, 4);
    EXPECT_TRUE(contains(miss, "\"cache\":\"miss\"")) << miss;
    EXPECT_TRUE(contains(hit, "\"cache\":\"hit\"")) << hit;
    EXPECT_TRUE(contains(bypass, "\"cache\":\"bypass\"")) << bypass;
    EXPECT_TRUE(contains(refresh, "\"cache\":\"miss\"")) << refresh;  // fresh solve

    const std::string fresh_output = output_field(miss);
    ASSERT_FALSE(fresh_output.empty());
    EXPECT_EQ(output_field(hit), fresh_output);
    EXPECT_EQ(output_field(bypass), fresh_output);
    EXPECT_EQ(output_field(refresh), fresh_output);
    outputs.push_back(fresh_output);
    outputs.push_back(output_field(hit));

    const CacheStats s = service.cache().stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 2u);  // the miss and the refresh
    EXPECT_GE(s.bypass, 1u);
  }
  ASSERT_EQ(outputs.size(), 4u);
  EXPECT_EQ(outputs[0], outputs[2]);  // 1 worker vs 8 workers: same bytes
  EXPECT_EQ(outputs[1], outputs[3]);
}

TEST(ServiceCache, ServerBypassOverridesRequests) {
  api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_entries = 0;
  BatchService service(session, cfg);
  service.start();
  Collector c;
  service.submit_line(eval_line(1), c.sink());
  c.wait_for(1);
  service.submit_line(eval_line(2), c.sink());
  const auto lines = c.wait_for(2);
  service.drain();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(contains(line_with_id(lines, 1), "\"cache\":\"bypass\""));
  EXPECT_TRUE(contains(line_with_id(lines, 2), "\"cache\":\"bypass\""));
  const CacheStats s = service.cache().stats();
  EXPECT_EQ(s.hits + s.misses + s.insertions, 0u);
  EXPECT_EQ(s.bypass, 2u);
}

// Coalescing: hold the single worker with a test_sleep blocker while three
// factor-sharing requests queue up, then verify they were dispatched as one
// multi-RHS group whose responses are byte-identical to standalone runs.
TEST(ServiceCache, CoalescedBatchMatchesStandaloneByteForByte) {
  api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.enable_test_ops = true;
  BatchService service(session, cfg);
  service.start();

  const std::uint64_t groups_before = obs::counter("service.coalesce.groups").value();

  Collector c;
  // Blocker: non-coalescible (test_sleep), occupies the only worker.
  service.submit_line(
      "{\"id\":1,\"op\":\"validate\",\"benchmark\":\"off-chip\",\"test_sleep_ms\":400}",
      c.sink());
  // Wait until the worker picked the blocker up, so the next three stay
  // queued behind it and get drained as one group.
  for (int i = 0; i < 2000 && service.queued() > 0; ++i) std::this_thread::sleep_for(1ms);
  ASSERT_EQ(service.queued(), 0u);

  const std::vector<std::string> states = {"0-0-0-2", "0-0-2b-0", "0-0-0-1"};
  for (int i = 0; i < 3; ++i) {
    // bypass mode: no dedupe, no hits -- each member gets its own RHS slice.
    service.submit_line("{\"id\":" + std::to_string(10 + i) +
                            ",\"op\":\"evaluate\",\"benchmark\":\"wide-io\",\"state\":\"" +
                            states[static_cast<std::size_t>(i)] +
                            "\",\"design\":{\"m3\":25},\"cache\":\"bypass\"}",
                        c.sink());
  }
  const auto lines = c.wait_for(4);
  service.drain();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_GE(obs::counter("service.coalesce.groups").value(), groups_before + 1);

  for (int i = 0; i < 3; ++i) {
    api::EvaluateRequest req;
    req.benchmark = core::BenchmarkKind::kWideIo;
    req.op = api::Operation::kEvaluate;
    req.state = states[static_cast<std::size_t>(i)];
    ASSERT_TRUE(api::set_option(&req.design, "m3", 25.0).is_ok());
    const api::EvaluateResult fresh = session.evaluate(req);
    ASSERT_TRUE(fresh.ok());

    const std::string line = line_with_id(lines, 10 + i);
    ASSERT_FALSE(line.empty()) << "no response for id " << 10 + i;
    EXPECT_TRUE(contains(line, "\"ok\":true")) << line;
    // Compare through the wire escaping: escape the fresh output the same
    // way ok_response does by rendering a one-off response.
    Request wire;
    wire.id = 10 + i;
    wire.eval = req;
    wire.request_id = "x";  // output_field keys off the request_id terminator
    const std::string rendered = ok_response(wire, fresh, 0.0, 0.0, "bypass");
    EXPECT_EQ(output_field(line), output_field(rendered)) << "member " << i;
  }
}

// em-check responses: the cached hit and the bypassed fresh solve must be
// byte-identical to a direct facade evaluation of the same request.
TEST(ServiceCache, EmCheckCachedAndFreshResponsesAreByteIdentical) {
  api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  BatchService service(session, cfg);
  service.start();

  const auto em_line = [](int id, const std::string& extra = "") {
    return "{\"id\":" + std::to_string(id) +
           ",\"op\":\"em-check\",\"benchmark\":\"wide-io\",\"state\":\"0-0-0-2\"," +
           "\"design\":{\"em-temp\":100}" + (extra.empty() ? "" : "," + extra) + "}";
  };

  Collector c;
  service.submit_line(em_line(1), c.sink());
  auto lines = c.wait_for(1);  // serialize so the second submit hits
  service.submit_line(em_line(2), c.sink());
  service.submit_line(em_line(3, "\"cache\":\"bypass\""), c.sink());
  lines = c.wait_for(3);
  service.drain();
  ASSERT_EQ(lines.size(), 3u);

  const std::string miss = line_with_id(lines, 1);
  const std::string hit = line_with_id(lines, 2);
  const std::string bypass = line_with_id(lines, 3);
  EXPECT_TRUE(contains(miss, "\"cache\":\"miss\"")) << miss;
  EXPECT_TRUE(contains(hit, "\"cache\":\"hit\"")) << hit;
  EXPECT_TRUE(contains(bypass, "\"cache\":\"bypass\"")) << bypass;

  // Byte parity with the facade (the CLI prints exactly result.output).
  api::EvaluateRequest req;
  req.benchmark = core::BenchmarkKind::kWideIo;
  req.op = api::Operation::kEmCheck;
  req.state = "0-0-0-2";
  ASSERT_TRUE(api::set_option(&req.design, "em-temp", 100.0).is_ok());
  const api::EvaluateResult fresh = session.evaluate(req);
  ASSERT_TRUE(fresh.ok()) << fresh.status.to_string();
  Request wire;
  wire.id = 1;
  wire.eval = req;
  wire.request_id = "x";
  const std::string rendered = ok_response(wire, fresh, 0.0, 0.0, "miss");
  const std::string fresh_output = output_field(rendered);
  ASSERT_FALSE(fresh_output.empty());
  EXPECT_EQ(output_field(miss), fresh_output);
  EXPECT_EQ(output_field(hit), fresh_output);
  EXPECT_EQ(output_field(bypass), fresh_output);
}

// EM-enabled evaluates are excluded from the coalescing planner (the EM pass
// is per-request work the multi-RHS batch path cannot share), but their
// responses still match standalone evaluation byte for byte.
TEST(ServiceCache, EmEnabledEvaluatesDoNotCoalesce) {
  api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.enable_test_ops = true;
  BatchService service(session, cfg);
  service.start();

  const std::uint64_t groups_before = obs::counter("service.coalesce.groups").value();

  Collector c;
  service.submit_line(
      "{\"id\":1,\"op\":\"validate\",\"benchmark\":\"off-chip\",\"test_sleep_ms\":400}",
      c.sink());
  for (int i = 0; i < 2000 && service.queued() > 0; ++i) std::this_thread::sleep_for(1ms);
  ASSERT_EQ(service.queued(), 0u);

  const std::vector<std::string> states = {"0-0-0-2", "0-0-2b-0", "0-0-0-1"};
  for (int i = 0; i < 3; ++i) {
    service.submit_line("{\"id\":" + std::to_string(30 + i) +
                            ",\"op\":\"evaluate\",\"benchmark\":\"wide-io\",\"state\":\"" +
                            states[static_cast<std::size_t>(i)] +
                            "\",\"design\":{\"em-temp\":100},\"cache\":\"bypass\"}",
                        c.sink());
  }
  const auto lines = c.wait_for(4);
  service.drain();
  ASSERT_EQ(lines.size(), 4u);
  // Same factor key, same op, queued together -- yet no coalesce group fired.
  EXPECT_EQ(obs::counter("service.coalesce.groups").value(), groups_before);

  for (int i = 0; i < 3; ++i) {
    api::EvaluateRequest req;
    req.benchmark = core::BenchmarkKind::kWideIo;
    req.op = api::Operation::kEvaluate;
    req.state = states[static_cast<std::size_t>(i)];
    ASSERT_TRUE(api::set_option(&req.design, "em-temp", 100.0).is_ok());
    const api::EvaluateResult fresh = session.evaluate(req);
    ASSERT_TRUE(fresh.ok());
    Request wire;
    wire.id = 30 + i;
    wire.eval = req;
    wire.request_id = "x";
    const std::string rendered = ok_response(wire, fresh, 0.0, 0.0, "bypass");
    const std::string line = line_with_id(lines, 30 + i);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(output_field(line), output_field(rendered)) << "member " << i;
  }
}

// Duplicate requests inside one coalesced group evaluate once and the twin
// reports a cache hit with identical bytes.
TEST(ServiceCache, DuplicateGroupMembersDedupeAsHits) {
  api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.enable_test_ops = true;
  BatchService service(session, cfg);
  service.start();

  Collector c;
  service.submit_line(
      "{\"id\":1,\"op\":\"validate\",\"benchmark\":\"off-chip\",\"test_sleep_ms\":400}",
      c.sink());
  for (int i = 0; i < 2000 && service.queued() > 0; ++i) std::this_thread::sleep_for(1ms);
  ASSERT_EQ(service.queued(), 0u);

  service.submit_line(eval_line(20), c.sink());
  service.submit_line(eval_line(21), c.sink());  // identical fingerprint
  const auto lines = c.wait_for(3);
  service.drain();
  ASSERT_EQ(lines.size(), 3u);

  const std::string first = line_with_id(lines, 20);
  const std::string twin = line_with_id(lines, 21);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(twin.empty());
  // Exactly one of the pair is the fresh miss; its twin is answered as a hit
  // (either deduped inside the group or served from the cache afterwards).
  const bool first_is_miss = contains(first, "\"cache\":\"miss\"");
  EXPECT_TRUE(contains(first_is_miss ? twin : first, "\"cache\":\"hit\""))
      << first << "\n" << twin;
  EXPECT_EQ(output_field(first), output_field(twin));
}

// The wide-io evaluate that the group-path tests coalesce: one factor key,
// a distinct state per member.
std::string wide_io_line(int id, const std::string& state, const std::string& extra) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"evaluate\",\"benchmark\":\"wide-io\",\"state\":\"" + state +
         "\",\"design\":{\"m3\":25}" + extra + "}";
}

// --slow-ms covers every dispatch: the single blocker and each member of the
// coalesced group behind it log their own serve.slow_request event.
TEST(ServiceCache, SlowCoalescedMembersEachLogAnEvent) {
  api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.enable_test_ops = true;
  cfg.slow_request_ms = 0.001;  // every evaluation crosses it
  BatchService service(session, cfg);
  service.start();

  const std::uint64_t slow_before = obs::counter("service.slow_requests").value();
  const std::uint64_t groups_before = obs::counter("service.coalesce.groups").value();

  Collector c;
  service.submit_line(
      "{\"id\":1,\"op\":\"validate\",\"benchmark\":\"off-chip\",\"test_sleep_ms\":400}",
      c.sink());
  for (int i = 0; i < 2000 && service.queued() > 0; ++i) std::this_thread::sleep_for(1ms);
  ASSERT_EQ(service.queued(), 0u);

  const util::LogLevel level_before = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  testing::internal::CaptureStderr();
  const std::vector<std::string> states = {"0-0-0-2", "0-0-2b-0", "0-0-0-1"};
  for (int i = 0; i < 3; ++i) {
    service.submit_line(wide_io_line(10 + i, states[static_cast<std::size_t>(i)],
                                     ",\"request_id\":\"slow-" + std::to_string(10 + i) + "\""),
                        c.sink());
  }
  const auto lines = c.wait_for(4);
  service.drain();
  const std::string err = testing::internal::GetCapturedStderr();
  util::set_log_level(level_before);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_GE(obs::counter("service.coalesce.groups").value(), groups_before + 1);
  EXPECT_EQ(obs::counter("service.slow_requests").value(), slow_before + 4);

  std::vector<std::string> events;
  std::istringstream in(err);
  for (std::string line; std::getline(in, line);) {
    if (contains(line, "serve.slow_request")) events.push_back(line);
  }
  EXPECT_EQ(events.size(), 4u) << err;
  for (int i = 0; i < 3; ++i) {
    const std::string rid = "slow-" + std::to_string(10 + i);
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [&](const std::string& e) { return contains(e, rid); }))
        << rid << " has no serve.slow_request event\n"
        << err;
  }
}

// A member whose deadline passes while it queues answers deadline_exceeded
// from inside its coalesced group; the rest of the group still solves, byte
// for byte what a standalone evaluation renders.
TEST(ServiceCache, ExpiredMemberOfACoalescedGroupAnswersDeadlineExceeded) {
  api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.enable_test_ops = true;
  BatchService service(session, cfg);
  service.start();

  const std::uint64_t members_before = obs::counter("service.coalesce.requests").value();

  Collector c;
  service.submit_line(
      "{\"id\":1,\"op\":\"validate\",\"benchmark\":\"off-chip\",\"test_sleep_ms\":400}",
      c.sink());
  for (int i = 0; i < 2000 && service.queued() > 0; ++i) std::this_thread::sleep_for(1ms);
  ASSERT_EQ(service.queued(), 0u);

  const std::vector<std::string> states = {"0-0-0-2", "0-0-2b-0", "0-0-0-1"};
  for (int i = 0; i < 3; ++i) {
    // The middle member's deadline is far shorter than the blocker's hold.
    service.submit_line(wide_io_line(40 + i, states[static_cast<std::size_t>(i)],
                                     i == 1 ? ",\"deadline_ms\":50" : ""),
                        c.sink());
  }
  const auto lines = c.wait_for(4);
  service.drain();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(obs::counter("service.coalesce.requests").value(), members_before + 3);
  EXPECT_EQ(service.stats().deadline_expired, 1u);

  const std::string expired = line_with_id(lines, 41);
  EXPECT_TRUE(contains(expired, "\"kind\":\"deadline_exceeded\"")) << expired;

  for (const int i : {0, 2}) {
    api::EvaluateRequest req;
    req.benchmark = core::BenchmarkKind::kWideIo;
    req.op = api::Operation::kEvaluate;
    req.state = states[static_cast<std::size_t>(i)];
    ASSERT_TRUE(api::set_option(&req.design, "m3", 25.0).is_ok());
    const api::EvaluateResult fresh = session.evaluate(req);
    ASSERT_TRUE(fresh.ok());

    const std::string line = line_with_id(lines, 40 + i);
    ASSERT_FALSE(line.empty()) << "no response for id " << 40 + i;
    EXPECT_TRUE(contains(line, "\"ok\":true")) << line;
    Request wire;
    wire.id = 40 + i;
    wire.eval = req;
    wire.request_id = "x";  // output_field keys off the request_id terminator
    const std::string rendered = ok_response(wire, fresh, 0.0, 0.0, "miss");
    EXPECT_EQ(output_field(line), output_field(rendered)) << "member " << i;
  }
}

}  // namespace
}  // namespace pdn3d::service

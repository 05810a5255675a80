// Resilience mechanisms of the batch service: cost-based overload shedding,
// the health op, the per-request watchdog, fault-injection end-to-end paths,
// request-size hardening, and the socket front end's stale-socket handling.
// Suite names start with Service* so scripts/run_sanitized_tests.sh runs them
// under TSan alongside the other concurrency suites.

#include "service/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "faults/faults.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"

namespace pdn3d::service {
namespace {

using namespace std::chrono_literals;

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
    cv_.wait_for(lock, 30s, [&] { return lines_.size() >= n; });
    return lines_;
  }

  std::vector<std::string> lines() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

void wait_drained_queue(const BatchService& service) {
  for (int i = 0; i < 2000 && service.queued() > 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(service.queued(), 0u);
}

// Several tests arm the process-global fault registry; reset around each so a
// failure in one cannot leak injected faults into the next.
class ServiceFaultFixture : public ::testing::Test {
 protected:
  void SetUp() override { faults::Registry::instance().reset(); }
  void TearDown() override { faults::Registry::instance().reset(); }
};

using ServiceResilience = ServiceFaultFixture;

TEST_F(ServiceResilience, OverloadControlShedsBeyondCostCeiling) {
  const api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.enable_test_ops = true;
  cfg.max_outstanding_cost = 1;
  BatchService service(session, cfg);
  service.start();

  Collector c1, c2;
  // r1 is admitted (an idle service always takes one request) and holds its
  // cost until it finishes, 400 ms from now.
  service.submit_line(
      R"({"id":1,"op":"validate","benchmark":"wide-io","test_sleep_ms":400})", c1.sink());
  wait_drained_queue(service);
  // r2 would push outstanding cost to 2 > 1: shed, typed, immediate.
  service.submit_line(R"({"id":2,"op":"validate","benchmark":"wide-io"})", c2.sink());
  const auto shed = c2.wait_for(1);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_TRUE(contains(shed[0], R"("id":2)")) << shed[0];
  EXPECT_TRUE(contains(shed[0], R"("kind":"overloaded")")) << shed[0];

  service.drain();
  // The admitted request was never affected by the shedding.
  ASSERT_EQ(c1.lines().size(), 1u);
  EXPECT_TRUE(contains(c1.lines()[0], R"("ok":true)")) << c1.lines()[0];
  const auto s = service.stats();
  EXPECT_EQ(s.rejected_overload, 1u);
  EXPECT_EQ(s.completed, 1u);

  // Once the cost drained, admission reopens.
  Collector after;
  service.submit_line(R"({"id":3,"op":"validate","benchmark":"wide-io"})", after.sink());
  ASSERT_EQ(after.lines().size(), 1u);
  EXPECT_TRUE(contains(after.lines()[0], R"("kind":"shutdown")"));  // drained, not overloaded
}

TEST_F(ServiceResilience, HealthOpReportsStateAndAnswersWhileDraining) {
  const api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_outstanding_cost = 32;
  BatchService service(session, cfg);
  service.start();

  Collector health;
  service.submit_line(R"({"id":7,"op":"health"})", health.sink());
  ASSERT_EQ(health.lines().size(), 1u);  // answered inline, no worker involved
  const std::string live = health.lines()[0];
  EXPECT_TRUE(contains(live, R"("id":7)")) << live;
  EXPECT_TRUE(contains(live, R"("ok":true)")) << live;
  EXPECT_TRUE(contains(live, R"("op":"health")")) << live;
  EXPECT_TRUE(contains(live, R"("draining":false)")) << live;
  EXPECT_TRUE(contains(live, R"("queue_depth":0)")) << live;
  EXPECT_TRUE(contains(live, R"("in_flight":0)")) << live;
  EXPECT_TRUE(contains(live, R"("outstanding_cost":0)")) << live;
  EXPECT_TRUE(contains(live, R"("max_outstanding_cost":32)")) << live;
  EXPECT_TRUE(contains(live, R"("workers":1)")) << live;

  service.drain();
  // Health bypasses the shutdown rejection: operators can still probe a
  // draining server.
  Collector drained;
  service.submit_line(R"({"id":8,"op":"health"})", drained.sink());
  ASSERT_EQ(drained.lines().size(), 1u);
  EXPECT_TRUE(contains(drained.lines()[0], R"("draining":true)")) << drained.lines()[0];
}

TEST_F(ServiceResilience, WatchdogCancelsStuckEvaluationWithTypedTimeout) {
  // The injected worker stall (10 s, cancel-aware) stands in for a stuck
  // solve; the 150 ms watchdog must cut it down to a typed `timeout`.
  ASSERT_EQ(faults::Registry::instance().configure("service.worker.stall=1.0#1:10000"), "");
  const api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.watchdog_ms = 150.0;
  BatchService service(session, cfg);
  service.start();

  Collector client;
  const auto t0 = std::chrono::steady_clock::now();
  service.submit_line(R"({"id":1,"op":"evaluate","benchmark":"wide-io"})", client.sink());
  const auto lines = client.wait_for(1);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(contains(lines[0], R"("id":1)")) << lines[0];
  EXPECT_TRUE(contains(lines[0], R"("kind":"timeout")")) << lines[0];
  EXPECT_LT(ms, 8000.0);  // the 10 s stall was interrupted, not served
  EXPECT_EQ(faults::Registry::instance().triggers("service.worker.stall"), 1u);

  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.timeouts, 1u);
  EXPECT_EQ(s.completed, 1u);  // a timed-out request still counts as completed

  // The watchdog left the service healthy: later requests run normally.
  // (The #1 trigger cap disarmed the stall after its single firing.)
}

TEST_F(ServiceResilience, AllocationFaultSurfacesAsEvaluationFailed) {
  ASSERT_EQ(faults::Registry::instance().configure("irdrop.solve.alloc=1/1#1"), "");
  const api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  BatchService service(session, cfg);
  service.start();

  Collector c1, c2;
  service.submit_line(R"({"id":1,"op":"evaluate","benchmark":"wide-io"})", c1.sink());
  const auto failed = c1.wait_for(1);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_TRUE(contains(failed[0], R"("ok":false)")) << failed[0];
  EXPECT_TRUE(contains(failed[0], R"("kind":"evaluation_failed")")) << failed[0];

  // One bad_alloc does not poison the worker: the next request (fault capped
  // at one trigger) succeeds on the same service.
  service.submit_line(R"({"id":2,"op":"evaluate","benchmark":"wide-io"})", c2.sink());
  service.drain();
  ASSERT_EQ(c2.lines().size(), 1u);
  EXPECT_TRUE(contains(c2.lines()[0], R"("ok":true)")) << c2.lines()[0];
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST_F(ServiceResilience, AllocationFaultLeavesTheWorkspaceUsable) {
  // A Monte Carlo request that fails at the solver's entry leaves its
  // worker's solve workspace usable: the next Monte Carlo answer on that
  // worker is byte-equal to a fresh server's.
  const auto montecarlo = [](int id) {
    return R"({"id":)" + std::to_string(id) +
           R"(,"op":"montecarlo","benchmark":"wide-io","samples":20})";
  };
  const auto output = [](const std::string& line) {
    const auto start = line.find(R"("output":")");
    return start == std::string::npos ? std::string()
                                      : line.substr(start, line.find(R"(","request_id")") - start);
  };
  ServiceConfig cfg;
  cfg.workers = 1;
  std::string fresh;
  {
    const api::Session session;
    BatchService service(session, cfg);
    service.start();
    Collector client;
    service.submit_line(montecarlo(3), client.sink());
    service.drain();
    ASSERT_EQ(client.lines().size(), 1u);
    fresh = client.lines()[0];
  }
  ASSERT_TRUE(contains(fresh, R"("ok":true)")) << fresh;

  const api::Session session;
  BatchService service(session, cfg);
  service.start();
  Collector warm, failed, next;
  // An evaluate first sizes the worker's workspace to the design.
  service.submit_line(R"({"id":1,"op":"evaluate","benchmark":"wide-io"})", warm.sink());
  ASSERT_EQ(warm.wait_for(1).size(), 1u);
  EXPECT_TRUE(contains(warm.lines()[0], R"("ok":true)")) << warm.lines()[0];
  ASSERT_EQ(faults::Registry::instance().configure("irdrop.solve.alloc=1/1#1"), "");
  service.submit_line(montecarlo(2), failed.sink());
  ASSERT_EQ(failed.wait_for(1).size(), 1u);
  EXPECT_TRUE(contains(failed.lines()[0], R"("kind":"evaluation_failed")")) << failed.lines()[0];
  service.submit_line(montecarlo(3), next.sink());
  service.drain();
  ASSERT_EQ(next.lines().size(), 1u);
  EXPECT_TRUE(contains(next.lines()[0], R"("ok":true)")) << next.lines()[0];
  EXPECT_EQ(output(next.lines()[0]), output(fresh));
  EXPECT_FALSE(output(fresh).empty());
}

TEST_F(ServiceResilience, QueueDelayFaultOnlySlowsNeverDrops) {
  ASSERT_EQ(faults::Registry::instance().configure("service.queue.delay=1.0:20"), "");
  const api::Session session;
  ServiceConfig cfg;
  cfg.workers = 2;
  BatchService service(session, cfg);
  service.start();

  Collector client;
  for (int i = 1; i <= 4; ++i) {
    service.submit_line(
        R"({"id":)" + std::to_string(i) + R"(,"op":"validate","benchmark":"wide-io"})",
        client.sink());
  }
  service.drain();
  ASSERT_EQ(client.lines().size(), 4u);  // delayed, but every one answered
  for (const auto& line : client.lines()) {
    EXPECT_TRUE(contains(line, R"("ok":true)")) << line;
  }
  EXPECT_EQ(faults::Registry::instance().triggers("service.queue.delay"), 4u);
}

TEST_F(ServiceResilience, OversizedLineAnsweredWithoutParsing) {
  const api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  BatchService service(session, cfg);
  service.start();

  // A line one byte over the cap -- mostly padding, but syntactically valid
  // JSON so only the size check can be what rejects it.
  std::string line = R"({"id":1,"op":"ping","pad":")";
  line.append(kMaxRequestBytes, 'x');
  line += "\"}";
  Collector client;
  service.submit_line(line, client.sink());
  ASSERT_EQ(client.lines().size(), 1u);
  EXPECT_TRUE(contains(client.lines()[0], R"("kind":"request_too_large")"))
      << client.lines()[0].substr(0, 200);
  service.drain();
  EXPECT_EQ(service.stats().rejected_too_large, 1u);
}

TEST(ServiceProtocolHardening, ParserRejectsHostileInput) {
  Request req;
  // Oversized input is rejected by parse_request itself, independent of the
  // service-level check.
  std::string huge = R"({"id":1,"op":"ping"})";
  huge.append(kMaxRequestBytes, ' ');
  EXPECT_FALSE(parse_request(huge, &req).is_ok());

  // Embedded NUL and invalid UTF-8 never reach the JSON parser.
  std::string nul = R"({"id":1,"op":"ping"})";
  nul[5] = '\0';
  EXPECT_FALSE(parse_request(nul, &req).is_ok());
  EXPECT_FALSE(parse_request("{\"op\":\"ping\xff\"}", &req).is_ok());      // stray byte
  EXPECT_FALSE(parse_request("{\"op\":\"ping\xc0\xaf\"}", &req).is_ok());  // overlong '/'
  EXPECT_FALSE(parse_request("{\"op\":\"ping\xed\xa0\x80\"}", &req).is_ok());  // surrogate

  // Truncated and structurally hostile JSON.
  EXPECT_FALSE(parse_request(R"({"id":1,"op":"pi)", &req).is_ok());
  std::string deep;
  for (int i = 0; i < 256; ++i) deep += '[';
  for (int i = 0; i < 256; ++i) deep += ']';
  EXPECT_FALSE(parse_request(deep, &req).is_ok());

  // Numbers that overflow their integer fields are errors, not wrapped casts.
  EXPECT_FALSE(parse_request(R"({"id":1e999,"op":"ping"})", &req).is_ok());
  EXPECT_FALSE(parse_request(R"({"id":1e300,"op":"ping"})", &req).is_ok());
  EXPECT_FALSE(parse_request(R"({"id":-1e300,"op":"ping"})", &req).is_ok());
  EXPECT_FALSE(parse_request(R"({"id":1.5,"op":"ping"})", &req).is_ok());
  EXPECT_FALSE(
      parse_request(R"({"id":1,"op":"montecarlo","benchmark":"hmc","samples":1e300})", &req)
          .is_ok());

  // The parser is still healthy after all of that.
  ASSERT_TRUE(parse_request(R"({"id":3,"op":"ping"})", &req).is_ok());
  EXPECT_EQ(req.kind, Request::Kind::kPing);
}

TEST(ServiceProtocolHardening, HealthOpParsesAndNewErrorKindsRender) {
  Request req;
  ASSERT_TRUE(parse_request(R"({"id":11,"op":"health"})", &req).is_ok());
  EXPECT_EQ(req.kind, Request::Kind::kHealth);
  EXPECT_EQ(req.id, 11);

  EXPECT_TRUE(contains(error_response(1, ErrorKind::kOverloaded, "shed"),
                       R"("kind":"overloaded")"));
  EXPECT_TRUE(contains(error_response(1, ErrorKind::kTimeout, "watchdog"),
                       R"("kind":"timeout")"));
  EXPECT_TRUE(contains(error_response(1, ErrorKind::kRequestTooLarge, "cap"),
                       R"("kind":"request_too_large")"));
  EXPECT_TRUE(contains(error_response(1, ErrorKind::kInternal, "boom"),
                       R"("kind":"internal")"));
}

// ---------------------------------------------------------------------------
// Socket front end: stale-socket recovery and the connection-reset fault.

int connect_client(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct timeval tv {};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Write one request line and read back one response line ("" on EOF/error).
std::string roundtrip(int fd, const std::string& request) {
  const std::string line = request + "\n";
  if (::write(fd, line.data(), line.size()) != static_cast<ssize_t>(line.size())) return "";
  std::string out;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return out;
    out += c;
  }
  return "";
}

class ServiceSocketTest : public ServiceFaultFixture {};

TEST_F(ServiceSocketTest, LiveServerRefusesSecondBindStaleSocketRebinds) {
  const std::string path = testing::TempDir() + "pdn3d_resilience.sock";
  std::remove(path.c_str());

  const api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  BatchService service(session, cfg);
  service.start();

  {
    SocketServer first(service, path);
    first.start();

    // A second server on the same path must refuse: the socket is live.
    BatchService other(session, cfg);
    SocketServer second(other, path);
    try {
      second.start();
      FAIL() << "second bind on a live socket did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(contains(e.what(), "live server")) << e.what();
    }

    // The probe did not disturb the live server.
    const int fd = connect_client(path);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(contains(roundtrip(fd, R"({"id":1,"op":"ping"})"),
                         R"({"id":1,"ok":true,"op":"ping")"));
    ::close(fd);
    first.stop();
    other.drain();
  }

  // The first server is gone but (simulating a crash) the path still holds a
  // socket file: re-create one manually, then prove a new server reclaims it.
  {
    const int dead = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(dead, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    std::remove(path.c_str());
    ASSERT_EQ(::bind(dead, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(dead);  // nobody listening; the file is now stale
  }
  SocketServer reborn(service, path);
  reborn.start();  // unlinks the stale socket and rebinds
  const int fd = connect_client(path);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(contains(roundtrip(fd, R"({"id":2,"op":"ping"})"),
                         R"({"id":2,"ok":true,"op":"ping")"));
  ::close(fd);
  reborn.stop();
  service.drain();
  std::remove(path.c_str());
}

TEST_F(ServiceSocketTest, RegularFileAtSocketPathIsNeverReplaced) {
  const std::string path = testing::TempDir() + "pdn3d_notasocket.sock";
  {
    std::ofstream out(path);
    out << "precious data\n";
  }
  const api::Session session;
  BatchService service(session, ServiceConfig{});
  SocketServer server(service, path);
  try {
    server.start();
    FAIL() << "start() replaced a regular file";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(contains(e.what(), "not a socket")) << e.what();
  }
  // The file survived untouched.
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "precious data");
  std::remove(path.c_str());
}

TEST_F(ServiceSocketTest, SocketResetFaultDropsConnectionNotServer) {
  ASSERT_EQ(faults::Registry::instance().configure("service.socket.reset=1/1#1"), "");
  const std::string path = testing::TempDir() + "pdn3d_reset.sock";
  std::remove(path.c_str());

  const api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  BatchService service(session, cfg);
  service.start();
  SocketServer server(service, path);
  server.start();

  // First connection: the injected reset shuts the socket down mid-read; the
  // client observes EOF instead of a response.
  const int victim = connect_client(path);
  ASSERT_GE(victim, 0);
  EXPECT_EQ(roundtrip(victim, R"({"id":1,"op":"ping"})"), "");
  ::close(victim);
  EXPECT_EQ(faults::Registry::instance().triggers("service.socket.reset"), 1u);

  // The server survived: a fresh connection (fault capped at one trigger)
  // round-trips normally.
  const int fd = connect_client(path);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(contains(roundtrip(fd, R"({"id":2,"op":"ping"})"),
                         R"({"id":2,"ok":true,"op":"ping")"));
  ::close(fd);

  server.stop();
  service.drain();
  std::remove(path.c_str());
}

// Read one response line ("" on EOF/error).
std::string read_line(int fd) {
  std::string out;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return out;
    out += c;
  }
  return "";
}

// Send @p bytes of padding with no newline: past kMaxRequestBytes the reader
// stops buffering and hands what it has to the service.
std::string send_newline_less_stream(const std::string& path, std::size_t bytes,
                                     std::string* after) {
  const int fd = connect_client(path);
  if (fd < 0) return "";
  const std::string stream(bytes, 'x');
  std::size_t off = 0;
  while (off < stream.size()) {
    const ssize_t n = ::send(fd, stream.data() + off, stream.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  const std::string answer = read_line(fd);
  *after = read_line(fd);  // "" once the server closed the connection
  ::close(fd);
  return answer;
}

TEST_F(ServiceSocketTest, NewlineLessStreamPastTheCapIsAnsweredByTheService) {
  const std::string path = testing::TempDir() + "pdn3d_too_large.sock";
  std::remove(path.c_str());
  const api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  BatchService service(session, cfg);
  service.start();
  SocketServer server(service, path);
  server.start();

  std::string after;
  const std::string answer = send_newline_less_stream(path, 70000, &after);
  EXPECT_TRUE(contains(answer, R"({"id":-1,"ok":false,"error":{"kind":"request_too_large")"))
      << answer;
  EXPECT_TRUE(contains(answer, R"("request_id":"r-)")) << answer;
  EXPECT_EQ(after, "");  // exactly one answer, then the connection closes

  server.stop();
  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.rejected_too_large, 1u);
  std::remove(path.c_str());
}

TEST_F(ServiceSocketTest, RequestPipelinedBeforeAnOverLongStreamIsStillAnswered) {
  const std::string path = testing::TempDir() + "pdn3d_pipelined_too_large.sock";
  std::remove(path.c_str());
  const api::Session session;
  ServiceConfig cfg;
  cfg.workers = 1;
  BatchService service(session, cfg);
  service.start();
  SocketServer server(service, path);
  server.start();

  // A complete request, then a stream past the cap on the same connection:
  // the reader stops reading, but the admitted request is still answered
  // before the connection closes.
  const int fd = connect_client(path);
  ASSERT_GE(fd, 0);
  const std::string stream =
      std::string(R"({"id":1,"op":"evaluate","benchmark":"hmc"})") + "\n" + std::string(70000, 'x');
  std::size_t off = 0;
  while (off < stream.size()) {
    const ssize_t n = ::send(fd, stream.data() + off, stream.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;  // the server stopped reading: EPIPE
    off += static_cast<std::size_t>(n);
  }
  std::vector<std::string> answers;
  std::string line;
  char c = 0;
  ssize_t n = 0;
  while ((n = ::read(fd, &c, 1)) == 1) {
    if (c != '\n') {
      line += c;
      continue;
    }
    answers.push_back(line);
    line.clear();
  }
  // Closed, not timed out (SO_RCVTIMEO): EOF, or a reset because the
  // stream's unread tail was still queued at the server when it closed.
  const int read_errno = n == 0 ? 0 : errno;
  ::close(fd);
  EXPECT_TRUE(n == 0 || read_errno == ECONNRESET) << std::strerror(read_errno);
  EXPECT_EQ(line, "");
  ASSERT_EQ(answers.size(), 2u);
  // Completion order: the evaluation may finish before or after the reject.
  const bool evaluate_first = contains(answers[0], R"({"id":1,"ok":true)");
  EXPECT_TRUE(contains(answers[evaluate_first ? 0 : 1], R"({"id":1,"ok":true)"))
      << answers[0] << "\n" << answers[1];
  EXPECT_TRUE(contains(answers[evaluate_first ? 1 : 0],
                       R"({"id":-1,"ok":false,"error":{"kind":"request_too_large")"))
      << answers[0] << "\n" << answers[1];

  server.stop();
  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.rejected_too_large, 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The outcome table: every answer the service writes is counted first.

/// The Stats fields and service.* outcome counters, by name.
std::map<std::string, std::uint64_t> outcome_counts(const BatchService& service) {
  const BatchService::Stats s = service.stats();
  std::map<std::string, std::uint64_t> out = {
      {"completed", s.completed},
      {"rejected_full", s.rejected_full},
      {"rejected_shutdown", s.rejected_shutdown},
      {"rejected_overload", s.rejected_overload},
      {"rejected_too_large", s.rejected_too_large},
      {"bad_requests", s.bad_requests},
      {"deadline_expired", s.deadline_expired},
      {"cancelled", s.cancelled},
      {"timeouts", s.timeouts},
      {"internal_errors", s.internal_errors},
  };
  for (const char* name :
       {"service.completed", "service.bad_requests", "service.queue_full",
        "service.deadline_expired", "service.cancelled", "service.rejected_overload",
        "service.timeouts", "service.request_too_large", "service.internal_errors"}) {
    out[name] = obs::counter(name).value();
  }
  return out;
}

/// What moved between two outcome_counts() readings (nonzero deltas only).
std::map<std::string, std::uint64_t> moved(const std::map<std::string, std::uint64_t>& before,
                                           const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : after) {
    if (value != before.at(name)) out[name] = value - before.at(name);
  }
  return out;
}

/// Answers in the order they were written, each with what had moved since
/// the previous one by the time its sink ran. The steps below let one answer
/// be counted at a time, so each entry is exactly one answer's count.
class Ledger {
 public:
  explicit Ledger(const BatchService& service) : service_(service), last_(outcome_counts(service)) {}

  ResponseSink expect(std::string label) {
    return [this, label](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mutex_);
      auto now = outcome_counts(service_);
      entries_.push_back({label, moved(last_, now), line});
      last_ = std::move(now);
      cv_.notify_all();
    };
  }

  /// Take what moved outside an expect() sink as the new baseline.
  std::map<std::string, std::uint64_t> rebase() {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto now = outcome_counts(service_);
    auto delta = moved(last_, now);
    last_ = std::move(now);
    return delta;
  }

  struct Entry {
    std::string label;
    std::map<std::string, std::uint64_t> moved;
    std::string line;
  };
  std::vector<Entry> wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, 30s, [&] { return entries_.size() >= n; });
    return entries_;
  }

 private:
  const BatchService& service_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, std::uint64_t> last_;
  std::vector<Entry> entries_;
};

using Moves = std::map<std::string, std::uint64_t>;

void expect_entries(const std::vector<Ledger::Entry>& got,
                    const std::vector<std::pair<std::string, Moves>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].first);
    EXPECT_EQ(got[i].moved, want[i].second) << want[i].first << ": " << got[i].line.substr(0, 200);
  }
}

/// The `id` and `error` of each session record, in order.
std::vector<std::string> session_records(const BatchService& service) {
  std::vector<std::string> out;
  const obs::json::Value block = service.session_block();
  for (const obs::json::Value& rec : block.find("requests")->items()) {
    const obs::json::Value* error = rec.find("error");
    out.push_back(std::to_string(static_cast<long long>(rec.find("id")->as_number())) + ":" +
                  (error != nullptr ? error->as_string() : "ok"));
  }
  return out;
}

std::string health_line(BatchService& service) {
  std::string line;
  service.submit_line(R"({"id":0,"op":"health"})", [&line](const std::string& l) { line = l; });
  return line;
}

TEST_F(ServiceResilience, EveryAnswerIsCountedBeforeItIsWritten) {
  const Moves completed = {{"completed", 1}, {"service.completed", 1}};
  const api::Session session;
  const std::string path = testing::TempDir() + "pdn3d_outcomes.sock";
  std::remove(path.c_str());

  // Admission answers, a fresh result, a hit, and the queue's own outcomes.
  // A validate costs 1, a lut 16: with the holder running and one request
  // queued, a third validate fits the cost ceiling of 3 but not the queue.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.max_outstanding_cost = 3;
  cfg.enable_test_ops = true;
  BatchService service(session, cfg);
  service.start();

  // Every outcome counter is listed from the first scrape.
  std::string scrape;
  service.submit_line(R"({"id":0,"op":"stats"})", [&scrape](const std::string& l) { scrape = l; });
  const obs::json::Value counters = *obs::json::parse(scrape).find("counters");
  for (const char* name : {"service.completed", "service.timeouts", "service.internal_errors",
                           "service.deadline_expired", "service.cancelled"}) {
    EXPECT_NE(counters.find(name), nullptr) << name;
  }

  Ledger ledger(service);
  std::string oversized = R"({"id":1,"op":"ping","pad":")";
  oversized.append(kMaxRequestBytes, 'x');
  oversized += "\"}";
  service.submit_line("not json", ledger.expect("bad_request"));
  service.submit_line(oversized, ledger.expect("too_large"));
  service.submit_line(R"({"id":2,"op":"cancel","target":99})", ledger.expect("not_found"));
  const std::string validate = R"(,"op":"validate","benchmark":"wide-io")";
  service.submit_line(R"({"id":3)" + validate + "}", ledger.expect("fresh"));
  ledger.wait_for(4);
  service.submit_line(R"({"id":4)" + validate + "}", ledger.expect("hit"));
  ledger.wait_for(5);

  {
    // The socket reader's over-long stream is answered by the service too.
    SocketServer server(service, path);
    server.start();
    std::string after;
    const std::string answer = send_newline_less_stream(path, 70000, &after);
    EXPECT_TRUE(contains(answer, R"("request_id":"r-)")) << answer;
    EXPECT_EQ(ledger.rebase(), (Moves{{"rejected_too_large", 1}, {"service.request_too_large", 1}}));
    server.stop();
  }

  service.submit_line(R"({"id":5)" + validate + R"(,"test_sleep_ms":500})",
                      ledger.expect("holder"));
  wait_drained_queue(service);
  service.submit_line(R"({"id":6)" + validate + "}", ledger.expect("cancelled"));
  service.submit_line(R"({"id":7)" + validate + "}", ledger.expect("queue_full"));
  service.submit_line(R"({"id":8,"op":"lut","benchmark":"wide-io"})", ledger.expect("overloaded"));
  Collector canceller;
  service.submit_line(R"({"id":9,"op":"cancel","target":6})", canceller.sink());
  service.submit_line(R"({"id":10)" + validate + R"(,"deadline_ms":1})",
                      ledger.expect("deadline"));
  ledger.wait_for(10);
  service.drain();
  service.submit_line(R"({"id":11)" + validate + "}", ledger.expect("shutdown"));

  expect_entries(ledger.wait_for(11),
                 {{"bad_request", {{"bad_requests", 1}, {"service.bad_requests", 1}}},
                  {"too_large", {{"rejected_too_large", 1}, {"service.request_too_large", 1}}},
                  {"not_found", {}},
                  {"fresh", completed},
                  {"hit", completed},
                  {"queue_full", {{"rejected_full", 1}, {"service.queue_full", 1}}},
                  {"overloaded", {{"rejected_overload", 1}, {"service.rejected_overload", 1}}},
                  {"cancelled", {{"cancelled", 1}, {"service.cancelled", 1}}},
                  {"holder", completed},
                  {"deadline", {{"deadline_expired", 1}, {"service.deadline_expired", 1}}},
                  {"shutdown", {{"rejected_shutdown", 1}}}});
  EXPECT_TRUE(contains(ledger.wait_for(11)[4].line, R"("cache":"hit")"));
  EXPECT_TRUE(contains(canceller.lines().at(0), R"("ok":true,"op":"cancel","target":6)"));
  EXPECT_TRUE(contains(health_line(service), R"("outstanding_cost":0)"));
  // One record per admitted answer; admission rejections make none.
  EXPECT_EQ(session_records(service),
            (std::vector<std::string>{"3:ok", "4:ok", "6:cancelled", "5:ok",
                                      "10:deadline_exceeded"}));
  std::remove(path.c_str());

  // The evaluation's own outcomes: a watchdog timeout (the injected stall
  // stands in for a stuck solve) and a failed evaluation (an injected
  // bad_alloc in the solve). An `internal` answer needs an exception to
  // escape Session::evaluate_group, which catches every failure and falls
  // back to one evaluate() per request, which catches every std::exception:
  // no request reaches it, so the walk leaves it out.
  ServiceConfig watched;
  watched.workers = 1;
  watched.watchdog_ms = 150.0;
  BatchService evaluations(session, watched);
  evaluations.start();
  Ledger eval_ledger(evaluations);
  ASSERT_EQ(faults::Registry::instance().configure("service.worker.stall=1.0#1:10000"), "");
  evaluations.submit_line(R"({"id":1,"op":"evaluate","benchmark":"wide-io"})",
                          eval_ledger.expect("timeout"));
  eval_ledger.wait_for(1);
  ASSERT_EQ(faults::Registry::instance().configure("irdrop.solve.alloc=1/1#1"), "");
  evaluations.submit_line(R"({"id":2,"op":"evaluate","benchmark":"wide-io"})",
                          eval_ledger.expect("failed"));
  eval_ledger.wait_for(2);
  evaluations.drain();

  expect_entries(eval_ledger.wait_for(2),
                 {{"timeout",
                   {{"timeouts", 1}, {"service.timeouts", 1}, {"completed", 1},
                    {"service.completed", 1}}},
                  {"failed", completed}});
  EXPECT_TRUE(contains(eval_ledger.wait_for(2)[0].line, R"("kind":"timeout")"));
  EXPECT_TRUE(contains(eval_ledger.wait_for(2)[1].line, R"("kind":"evaluation_failed")"));
  EXPECT_TRUE(contains(health_line(evaluations), R"("outstanding_cost":0)"));
  EXPECT_EQ(session_records(evaluations),
            (std::vector<std::string>{"1:timeout", "2:evaluation_failed"}));
}

}  // namespace
}  // namespace pdn3d::service

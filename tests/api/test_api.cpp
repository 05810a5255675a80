// The stable evaluation facade (api/api.hpp): request validation, the
// Session's platform cache, and the byte-identity contract between the two
// front ends (one-shot CLI vs `pdn3d serve`) that both render through it.

#include "api/api.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "service/protocol.hpp"

namespace pdn3d::api {
namespace {

EvaluateRequest montecarlo_request(long long samples) {
  EvaluateRequest req;
  req.benchmark = core::BenchmarkKind::kWideIo;
  req.op = Operation::kMonteCarlo;
  req.samples = samples;
  return req;
}

/// A fresh Session's answer: nothing reused.
std::string fresh_output(const EvaluateRequest& req) {
  const Session session;
  const EvaluateResult result = session.evaluate(req);
  EXPECT_TRUE(result.ok()) << result.output;
  return result.output;
}

TEST(OperationTokens, RoundTripAndAnalyzeAlias) {
  std::size_t index = 0;
  for (const OperationSpec& spec : operation_specs()) {
    EXPECT_EQ(static_cast<std::size_t>(spec.op), index++) << "rows must be in enum order";
    EXPECT_STREQ(to_string(spec.op), spec.name);
    for (const char* token : {spec.name, spec.cli_command}) {
      Operation parsed{};
      ASSERT_TRUE(parse_operation(token, &parsed).is_ok()) << token;
      EXPECT_EQ(parsed, spec.op) << token;
    }
  }
  EXPECT_EQ(index, 6u);
  Operation parsed{};
  ASSERT_TRUE(parse_operation("analyze", &parsed).is_ok());
  EXPECT_EQ(parsed, Operation::kEvaluate);
  // Served bad_request responses carry this text verbatim.
  EXPECT_EQ(parse_operation("simulate", &parsed).message(),
            "unknown operation 'simulate' (want evaluate | montecarlo | lut | cooptimize | "
            "validate | em-check)");
}

TEST(BenchmarkTokens, RoundTrip) {
  for (const auto kind :
       {core::BenchmarkKind::kStackedDdr3OffChip, core::BenchmarkKind::kStackedDdr3OnChip,
        core::BenchmarkKind::kWideIo, core::BenchmarkKind::kHmc}) {
    core::BenchmarkKind parsed{};
    ASSERT_TRUE(parse_benchmark(benchmark_token(kind), &parsed).is_ok());
    EXPECT_EQ(parsed, kind);
  }
  core::BenchmarkKind parsed{};
  EXPECT_FALSE(parse_benchmark("ddr5", &parsed).is_ok());
}

TEST(EvaluateRequest, ValidateRejectsBadParameters) {
  EvaluateRequest req;
  req.activity = 1.5;
  EXPECT_FALSE(req.validate().is_ok());

  req = EvaluateRequest{};
  req.op = Operation::kMonteCarlo;
  req.samples = 0;
  EXPECT_FALSE(req.validate().is_ok());

  req = EvaluateRequest{};
  req.op = Operation::kCoOptimize;
  req.alpha = 2.0;
  EXPECT_FALSE(req.validate().is_ok());

  EXPECT_TRUE(EvaluateRequest{}.validate().is_ok());
}

// The EM exclusion from batching and coalescing lives in batchable() alone.
TEST(EvaluateRequest, OnlyPlainEvaluateIsBatchable) {
  for (const OperationSpec& spec : operation_specs()) {
    EvaluateRequest req;
    req.op = spec.op;
    EXPECT_EQ(req.batchable(), spec.op == Operation::kEvaluate) << spec.name;
    EvaluateRequest em = req;
    ASSERT_TRUE(em.design.set_flag("em").is_ok());
    EXPECT_FALSE(em.batchable()) << spec.name;
    EvaluateRequest ckpt = req;
    ckpt.checkpoint_path = "sweep.ckpt";
    EXPECT_FALSE(ckpt.batchable()) << spec.name;
  }
}

TEST(EvaluateRequest, AdmissionCostFollowsTheRow) {
  EvaluateRequest req;
  const auto cost = [&req](Operation op) {
    req.op = op;
    return req.admission_cost();
  };
  EXPECT_EQ(cost(Operation::kEvaluate), 1u);
  EXPECT_EQ(cost(Operation::kValidate), 1u);
  EXPECT_EQ(cost(Operation::kEmCheck), 2u);
  EXPECT_EQ(cost(Operation::kLut), 16u);
  EXPECT_EQ(cost(Operation::kCoOptimize), 64u);
  for (const auto& [samples, expected] :
       {std::pair<long long, std::uint64_t>{1, 1}, {15, 1}, {16, 1}, {200, 12}, {10000, 625}}) {
    req.samples = samples;
    EXPECT_EQ(cost(Operation::kMonteCarlo), expected) << samples;
  }
}

TEST(SessionTest, EvaluateNeverThrowsOnInvalidParameters) {
  const Session session;
  EvaluateRequest req;
  req.activity = 7.0;
  const EvaluateResult result = session.evaluate(req);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.exit_code, 1);  // kInvalidArgument -> usage exit code
  EXPECT_EQ(result.output.rfind("error: ", 0), 0u) << result.output;
}

TEST(SessionTest, PlatformIsCachedPerBenchmark) {
  const Session session;
  const core::Platform& a = session.platform(core::BenchmarkKind::kWideIo);
  const core::Platform& b = session.platform(core::BenchmarkKind::kWideIo);
  EXPECT_EQ(&a, &b);
}

TEST(SessionTest, RepeatedEvaluationsAreByteIdentical) {
  const Session session;
  EvaluateRequest req;
  req.benchmark = core::BenchmarkKind::kWideIo;
  req.op = Operation::kEvaluate;
  ASSERT_TRUE(req.design.set("bd", "f2f").is_ok());

  const EvaluateResult cold = session.evaluate(req);  // builds every cache
  const EvaluateResult warm = session.evaluate(req);  // hits every cache
  ASSERT_TRUE(cold.ok()) << cold.output;
  EXPECT_EQ(cold.output, warm.output);
  EXPECT_EQ(cold.exit_code, warm.exit_code);
  EXPECT_DOUBLE_EQ(cold.headline_mv, warm.headline_mv);
}

TEST(SessionTest, ValidateOperationReportsHealthy) {
  const Session session;
  EvaluateRequest req;
  req.benchmark = core::BenchmarkKind::kWideIo;
  req.op = Operation::kValidate;
  const EvaluateResult result = session.evaluate(req);
  ASSERT_TRUE(result.ok()) << result.output;
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("validation passed"), std::string::npos) << result.output;
}

// A Monte Carlo answer is the same whether the design's prefix replayed its
// samples or they were solved: 64 -> 32 -> 64 on one Session and 32 -> 64
// on another, each against a fresh Session's answer.
TEST(SessionTest, MonteCarloReusedAnswersEqualFreshOnes) {
  const std::string fresh32 = fresh_output(montecarlo_request(32));
  const std::string fresh64 = fresh_output(montecarlo_request(64));
  auto& reused = obs::counter("montecarlo.samples_reused");
  struct Step {
    long long samples;
    std::uint64_t reused;
  };
  const std::vector<std::vector<Step>> sessions = {{{64, 0}, {32, 32}, {64, 64}},
                                                   {{32, 0}, {64, 32}}};
  for (const auto& steps : sessions) {
    const Session session;
    for (const Step& step : steps) {
      SCOPED_TRACE(step.samples);
      const std::uint64_t reused0 = reused.value();
      const EvaluateResult result = session.evaluate(montecarlo_request(step.samples));
      ASSERT_TRUE(result.ok()) << result.output;
      EXPECT_EQ(result.output, step.samples == 32 ? fresh32 : fresh64);
      EXPECT_EQ(reused.value() - reused0, step.reused);
    }
  }
}

// Three requests on one design at once take turns on its prefix: each
// answers as it does alone, and no sample is solved twice (the 136 samples
// asked for hold 64 distinct ones).
TEST(ConcurrentMonteCarlo, OneDesignAnswersAsSerialAndSolvesEachSampleOnce) {
  const std::array<long long, 3> samples = {24, 48, 64};
  std::array<std::string, 3> serial;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    serial[i] = fresh_output(montecarlo_request(samples[i]));
  }
  auto& reused = obs::counter("montecarlo.samples_reused");
  const std::uint64_t reused0 = reused.value();
  const Session session;
  std::array<EvaluateResult, 3> results;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    threads.emplace_back(
        [&, i] { results[i] = session.evaluate(montecarlo_request(samples[i])); });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(results[i].output, serial[i]) << samples[i];
  }
  EXPECT_EQ(reused.value() - reused0, std::uint64_t{24 + 48 + 64 - 64});
}

// An EM-carrying evaluate and an em-check each solve their state once: the
// IR statistics and the branch currents come from the same solve.
TEST(SessionTest, EmRequestsSolveOnce) {
  const Session session;
  EvaluateRequest evaluate;
  evaluate.benchmark = core::BenchmarkKind::kWideIo;
  ASSERT_TRUE(evaluate.design.set_flag("em").is_ok());
  EvaluateRequest em_check = evaluate;
  em_check.op = Operation::kEmCheck;
  ASSERT_TRUE(session.evaluate(evaluate).ok());  // builds the design and its factor
  auto& solves = obs::counter("solver.solves");
  for (const EvaluateRequest& req : {evaluate, em_check}) {
    SCOPED_TRACE(to_string(req.op));
    const std::uint64_t solves0 = solves.value();
    const EvaluateResult result = session.evaluate(req);
    ASSERT_TRUE(result.ok()) << result.output;
    EXPECT_EQ(solves.value() - solves0, 1u);
  }
}

// An EM pass that fails (a zero TSV cross-section) still leaves the output
// written before it -- the evaluate block, or em-check's design and state
// lines -- followed by the error line.
TEST(SessionTest, EmFailureFollowsTheIrOutput) {
  core::Benchmark bench = core::make_benchmark(core::BenchmarkKind::kWideIo);
  bench.stack.tech.em.tsv_diameter_um = 0.0;
  Session session;
  session.install(core::BenchmarkKind::kWideIo, std::move(bench));
  EvaluateRequest plain;
  plain.benchmark = core::BenchmarkKind::kWideIo;
  const EvaluateResult ir = session.evaluate(plain);
  ASSERT_TRUE(ir.ok()) << ir.output;
  const std::string error = "error: em_check: non-positive cross-section for tsv";

  EvaluateRequest evaluate = plain;
  ASSERT_TRUE(evaluate.design.set_flag("em").is_ok());
  const EvaluateResult with_em = session.evaluate(evaluate);
  EXPECT_FALSE(with_em.ok());
  EXPECT_EQ(with_em.output.rfind(ir.output + error, 0), 0u) << with_em.output;

  EvaluateRequest em_check = evaluate;
  em_check.op = Operation::kEmCheck;
  const EvaluateResult checked = session.evaluate(em_check);
  EXPECT_FALSE(checked.ok());
  const std::string head = ir.output.substr(0, ir.output.find("cost   : "));
  EXPECT_EQ(checked.output.rfind(head + error, 0), 0u) << checked.output;
}

// Golden round trip: the same evaluation specified the CLI way (typed
// DesignOptions built from flag text) and the served way (an NDJSON request
// through the wire-protocol decoder) must render byte-identical output --
// the facade's core contract (docs/API.md). One request per operation.
TEST(CliServedParity, WireDecodedRequestRendersIdenticalBytes) {
  const Session session;
  for (const OperationSpec& spec : operation_specs()) {
    // "CLI" side: what `pdn3d <cli_command> wide-io --state 0-0-0-2
    //              --samples 8 --alpha 0.5 --bd f2f --m2 15 --tl d` builds.
    EvaluateRequest cli;
    cli.benchmark = core::BenchmarkKind::kWideIo;
    cli.op = spec.op;
    cli.state = "0-0-0-2";
    cli.samples = 8;
    cli.alpha = 0.5;
    ASSERT_TRUE(cli.design.set("bd", "f2f").is_ok());
    ASSERT_TRUE(cli.design.set("m2", "15").is_ok());
    ASSERT_TRUE(cli.design.set("tl", "d").is_ok());

    // "served" side: the same request as one NDJSON line.
    service::Request wire;
    ASSERT_TRUE(service::parse_request(
                    R"({"id":1,"op":")" + std::string(spec.name) +
                        R"(","benchmark":"wide-io","state":"0-0-0-2","samples":8,)"
                        R"("alpha":0.5,"design":{"bd":"f2f","m2":15,"tl":"d"}})",
                    &wire)
                    .is_ok())
        << spec.name;

    const EvaluateResult from_cli = session.evaluate(cli);
    const EvaluateResult from_wire = session.evaluate(wire.eval);
    ASSERT_TRUE(from_cli.ok()) << spec.name << "\n" << from_cli.output;
    EXPECT_EQ(from_cli.output, from_wire.output) << spec.name;
    EXPECT_EQ(from_cli.exit_code, from_wire.exit_code) << spec.name;
    EXPECT_EQ(from_cli.fingerprint, from_wire.fingerprint) << spec.name;
    EXPECT_DOUBLE_EQ(from_cli.headline_mv, from_wire.headline_mv) << spec.name;
  }
}

}  // namespace
}  // namespace pdn3d::api

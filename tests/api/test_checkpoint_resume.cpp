// Crash-safe sweep checkpointing through the evaluation facade: a run that
// dies mid-sweep and resumes from its checkpoint must render byte-identical
// output to an uninterrupted run, at any thread count (the acceptance bar in
// docs/ROBUSTNESS.md). Interruption is simulated by truncating the checkpoint
// file to a prefix of its entries -- exactly what a crash between flushes
// leaves behind.

#include "api/api.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"

namespace pdn3d::api {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Simulate a crash: keep the header plus the first `keep` entry lines.
void truncate_checkpoint(const std::string& path, std::size_t keep) {
  const auto lines = read_lines(path);
  ASSERT_GT(lines.size(), keep + 1) << "checkpoint too small to truncate";
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i <= keep; ++i) out << lines[i] << "\n";
}

TEST(CheckpointResume, MonteCarloResumeIsBitwiseIdenticalAcrossThreadCounts) {
  const std::string path = testing::TempDir() + "pdn3d_mc_resume.ckpt";
  std::string reference;  // output at threads=1, compared against threads=8
  for (const std::size_t threads : {1u, 8u}) {
    exec::set_default_thread_count(threads);
    const Session session;
    EvaluateRequest req;
    req.benchmark = core::BenchmarkKind::kWideIo;
    req.op = Operation::kMonteCarlo;
    req.samples = 8;

    const EvaluateResult baseline = session.evaluate(req);
    ASSERT_TRUE(baseline.ok()) << baseline.output;

    std::remove(path.c_str());
    req.checkpoint_path = path;
    const EvaluateResult full = session.evaluate(req);
    ASSERT_TRUE(full.ok()) << full.output;
    EXPECT_EQ(full.output, baseline.output);  // checkpointing changes nothing
    ASSERT_TRUE(std::filesystem::exists(path));  // persists after success

    // Crash after 3 of 8 samples, then resume: the 3 recorded samples replay
    // from the file, the tail recomputes, and the output is byte-identical.
    truncate_checkpoint(path, 3);
    req.resume = true;
    const EvaluateResult resumed = session.evaluate(req);
    ASSERT_TRUE(resumed.ok()) << resumed.output;
    EXPECT_EQ(resumed.output, baseline.output);

    // Resuming a complete file is a pure replay and still identical.
    const EvaluateResult replay = session.evaluate(req);
    ASSERT_TRUE(replay.ok()) << replay.output;
    EXPECT_EQ(replay.output, baseline.output);

    if (reference.empty()) {
      reference = baseline.output;
    } else {
      EXPECT_EQ(baseline.output, reference) << "thread count changed the result";
    }
    std::remove(path.c_str());
  }
  exec::set_default_thread_count(0);
}

TEST(CheckpointResume, LutResumeIsBitwiseIdentical) {
  const std::string path = testing::TempDir() + "pdn3d_lut_resume.ckpt";
  std::remove(path.c_str());
  const Session session;
  EvaluateRequest req;
  req.benchmark = core::BenchmarkKind::kHmc;  // 3^4 = 81 states, fast to build
  req.op = Operation::kLut;

  const EvaluateResult baseline = session.evaluate(req);
  ASSERT_TRUE(baseline.ok()) << baseline.output;

  // The checkpointed build bypasses the session's LUT cache; identical output
  // proves the bypass uses the exact same build parameters.
  req.checkpoint_path = path;
  const EvaluateResult full = session.evaluate(req);
  ASSERT_TRUE(full.ok()) << full.output;
  EXPECT_EQ(full.output, baseline.output);

  truncate_checkpoint(path, 40);  // crash halfway through the 81 states
  req.resume = true;
  const EvaluateResult resumed = session.evaluate(req);
  ASSERT_TRUE(resumed.ok()) << resumed.output;
  EXPECT_EQ(resumed.output, baseline.output);
  std::remove(path.c_str());
}

TEST(CheckpointResume, FingerprintMismatchIsAnInputErrorNotSilentMixing) {
  const std::string path = testing::TempDir() + "pdn3d_mismatch.ckpt";
  std::remove(path.c_str());
  const Session session;
  EvaluateRequest req;
  req.benchmark = core::BenchmarkKind::kWideIo;
  req.op = Operation::kMonteCarlo;
  req.samples = 8;
  req.checkpoint_path = path;
  ASSERT_TRUE(session.evaluate(req).ok());

  // Same file, different sweep: the sample values recorded for samples=8 must
  // never seed a samples=16 run.
  req.samples = 16;
  req.resume = true;
  const EvaluateResult mismatched = session.evaluate(req);
  EXPECT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.exit_code, 2) << mismatched.output;  // input error

  // A different benchmark is a different fingerprint too.
  req.samples = 8;
  req.benchmark = core::BenchmarkKind::kHmc;
  const EvaluateResult wrong_bench = session.evaluate(req);
  EXPECT_FALSE(wrong_bench.ok());
  EXPECT_EQ(wrong_bench.exit_code, 2) << wrong_bench.output;
  std::remove(path.c_str());
}

TEST(CheckpointResume, ValidateRejectsMeaninglessCheckpointRequests) {
  for (const OperationSpec& spec : operation_specs()) {
    EvaluateRequest req;
    req.benchmark = core::BenchmarkKind::kWideIo;
    req.op = spec.op;
    req.resume = true;  // --resume without --checkpoint
    EXPECT_FALSE(req.validate().is_ok()) << spec.name;

    req.resume = false;
    req.checkpoint_path = "nope.ckpt";
    const core::Status st = req.validate();
    EXPECT_EQ(st.is_ok(), spec.checkpoints) << spec.name;
    if (!spec.checkpoints) {
      // Not a sweep: nothing to checkpoint. Served bad_request responses
      // carry this text verbatim.
      EXPECT_EQ(st.message(), "checkpointing applies only to montecarlo | lut | cooptimize")
          << spec.name;
    }
  }
}

}  // namespace
}  // namespace pdn3d::api

#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pdn3d::obs {
namespace {

RunReportOptions options_for_test() {
  RunReportOptions opt;
  opt.command = "analyze";
  opt.benchmark = "off-chip";
  opt.argv = {"pdn3d", "analyze", "off-chip"};
  return opt;
}

TEST(RunReport, ContainsDocumentedTopLevelKeys) {
  counter("test_report.some_counter").add(3);
  { TraceSpan span("test_report_span"); }

  const json::Value report = build_run_report(options_for_test());
  for (const char* key :
       {"schema", "tool", "version", "command", "benchmark", "provenance", "metrics", "spans",
        "solver", "trace_dropped_events", "trace_unbalanced_spans", "trace_events"}) {
    EXPECT_NE(report.find(key), nullptr) << "missing top-level key: " << key;
  }
  EXPECT_DOUBLE_EQ(report.find("schema")->as_number(), kReportSchemaVersion);
  EXPECT_EQ(report.find("tool")->as_string(), "pdn3d");
  EXPECT_EQ(report.find("command")->as_string(), "analyze");
  EXPECT_EQ(report.find("benchmark")->as_string(), "off-chip");

  const json::Value* prov = report.find("provenance");
  for (const char* key : {"git_revision", "build_type", "compiler", "timestamp_utc", "argv"}) {
    EXPECT_NE(prov->find(key), nullptr) << "missing provenance key: " << key;
  }
  EXPECT_EQ(prov->find("argv")->items().size(), 3u);

  const json::Value* metrics = report.find("metrics");
  ASSERT_NE(metrics->find("counters"), nullptr);
  ASSERT_NE(metrics->find("counters")->find("test_report.some_counter"), nullptr);
  EXPECT_GE(metrics->find("counters")->find("test_report.some_counter")->as_number(), 3.0);

  // The span recorded above appears in the aggregate span list.
  bool found = false;
  for (const json::Value& row : report.find("spans")->items()) {
    if (row.find("path")->as_string() == "test_report_span") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RunReport, SolverBlockMirrorsRegistryCounters) {
  counter("solver.solves").add(2);
  counter("ladder.escalations").add(1);
  counter("solver.rung_attempts.ic-pcg").add(2);

  const json::Value report = build_run_report(options_for_test());
  const json::Value* solver = report.find("solver");
  ASSERT_NE(solver, nullptr);
  EXPECT_GE(solver->find("solves")->as_number(), 2.0);
  EXPECT_GE(solver->find("escalations")->as_number(), 1.0);
  ASSERT_NE(solver->find("rung_attempts")->find("ic-pcg"), nullptr);
  EXPECT_GE(solver->find("rung_attempts")->find("ic-pcg")->as_number(), 2.0);
}

TEST(RunReport, TraceEventsCanBeExcluded) {
  { TraceSpan span("test_report_excluded"); }
  RunReportOptions opt = options_for_test();
  opt.include_trace_events = false;
  const json::Value report = build_run_report(opt);
  EXPECT_EQ(report.find("trace_events"), nullptr);
  EXPECT_NE(report.find("spans"), nullptr);  // aggregates are always present
}

TEST(RunReport, WriteProducesParseableFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "pdn3d_test_report.json";
  const core::Status st = write_run_report(path, options_for_test());
  ASSERT_TRUE(st.is_ok()) << st.to_string();

  std::ifstream is(path);
  std::stringstream buf;
  buf << is.rdbuf();
  const json::Value parsed = json::parse(buf.str());
  EXPECT_NE(parsed.find("schema"), nullptr);
  std::filesystem::remove(path);
}

TEST(RunReport, WriteToUnwritablePathReturnsStatus) {
  const core::Status st =
      write_run_report("/nonexistent_dir_pdn3d/report.json", options_for_test());
  EXPECT_FALSE(st.is_ok());
}

}  // namespace
}  // namespace pdn3d::obs

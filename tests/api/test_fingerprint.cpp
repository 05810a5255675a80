// Canonical request identity (api::RequestFingerprint): two requests must
// fingerprint identically exactly when the facade guarantees byte-identical
// output, no matter which surface (CLI flag text, JSON numbers/booleans,
// direct field assignment) filled in the knobs. These tests pin the contract
// the result cache and checkpoint keying build on.

#include <gtest/gtest.h>

#include <string>

#include "api/api.hpp"
#include "api/options.hpp"

namespace pdn3d::api {
namespace {

EvaluateRequest base_request() {
  EvaluateRequest req;
  req.benchmark = core::BenchmarkKind::kWideIo;
  req.op = Operation::kEvaluate;
  req.state = "0-0-0-2";
  return req;
}

TEST(Fingerprint, EqualRequestsFingerprintIdentically) {
  const RequestFingerprint a = base_request().fingerprint();
  const RequestFingerprint b = base_request().fingerprint();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 16u);
}

TEST(Fingerprint, CanonicalTextIsVersionedAndReadable) {
  const RequestFingerprint fp = base_request().fingerprint();
  EXPECT_EQ(fp.canonical.rfind("pdn3d-req-v1|", 0), 0u) << fp.canonical;
  EXPECT_NE(fp.canonical.find("bench=wide-io"), std::string::npos) << fp.canonical;
  EXPECT_NE(fp.canonical.find("op=evaluate"), std::string::npos) << fp.canonical;
  EXPECT_NE(fp.canonical.find("state=0-0-0-2"), std::string::npos) << fp.canonical;
}

// The shared-keyspace guarantee: text parsing (CLI flags), numeric setting
// (JSON numbers), and direct field assignment land on one canonical text.
TEST(Fingerprint, AllOptionSurfacesHashIdentically) {
  EvaluateRequest via_text = base_request();
  ASSERT_TRUE(set_option(&via_text.design, "m2", std::string_view("40")).is_ok());
  ASSERT_TRUE(set_option(&via_text.design, "tl", std::string_view("d")).is_ok());
  ASSERT_TRUE(set_option(&via_text.design, "wb", std::string_view("true")).is_ok());

  EvaluateRequest via_numbers = base_request();
  ASSERT_TRUE(set_option(&via_numbers.design, "m2", 40.0).is_ok());
  ASSERT_TRUE(set_option(&via_numbers.design, "tl", std::string_view("d")).is_ok());
  ASSERT_TRUE(set_option(&via_numbers.design, "wb", true).is_ok());

  EvaluateRequest via_fields = base_request();
  via_fields.design.m2_pct = 40.0;
  via_fields.design.tsv_location = pdn::TsvLocation::kDistributed;
  via_fields.design.wire_bonding = true;

  EXPECT_EQ(via_text.fingerprint(), via_numbers.fingerprint());
  EXPECT_EQ(via_text.fingerprint(), via_fields.fingerprint());
}

TEST(Fingerprint, LegacySetAndSharedTableAgree) {
  DesignOptions via_set;
  ASSERT_TRUE(via_set.set("m3", std::string_view("25")).is_ok());
  ASSERT_TRUE(via_set.set("rdl", std::string_view("bottom")).is_ok());
  ASSERT_TRUE(via_set.set_flag("no-align").is_ok());

  DesignOptions via_table;
  ASSERT_TRUE(set_option(&via_table, "m3", 25.0).is_ok());
  ASSERT_TRUE(set_option(&via_table, "rdl", std::string_view("bottom")).is_ok());
  ASSERT_TRUE(set_option(&via_table, "no-align", true).is_ok());

  EXPECT_EQ(via_set.canonical_text(), via_table.canonical_text());
}

// For every operation, a field its OperationSpec row does not read leaves
// the fingerprint unchanged, and a field it reads changes it.
TEST(Fingerprint, OpIrrelevantParametersDoNotAffectIdentity) {
  struct Field {
    const char* name;
    bool OperationSpec::*read;
    void (*change)(EvaluateRequest*);
  };
  const Field fields[] = {
      {"m2", &OperationSpec::reads_design, [](EvaluateRequest* r) { r->design.m2_pct = 80.0; }},
      {"em-tsv-limit", &OperationSpec::reads_em,
       [](EvaluateRequest* r) { r->design.em_tsv_limit = 0.2; }},
      {"state", &OperationSpec::reads_state, [](EvaluateRequest* r) { r->state = "0-0-2b-0"; }},
      {"activity", &OperationSpec::reads_state, [](EvaluateRequest* r) { r->activity = 0.5; }},
      {"samples", &OperationSpec::reads_samples, [](EvaluateRequest* r) { r->samples = 9999; }},
      {"alpha", &OperationSpec::reads_alpha, [](EvaluateRequest* r) { r->alpha = 0.55; }},
  };
  for (const OperationSpec& spec : operation_specs()) {
    EvaluateRequest a = base_request();
    a.op = spec.op;
    for (const Field& field : fields) {
      EvaluateRequest b = a;
      field.change(&b);
      EXPECT_EQ(a.fingerprint() != b.fingerprint(), spec.*field.read)
          << spec.name << " / " << field.name;
    }
  }
}

// The EM extension is versioned: any EM field set selects the v2 prefix, so
// the entire pre-EM fingerprint universe (v1) is untouched by construction.
TEST(Fingerprint, EmFieldsVersionTheFingerprint) {
  EvaluateRequest plain = base_request();
  EvaluateRequest em = base_request();
  ASSERT_TRUE(set_option(&em.design, "em-wire-limit", 1.5).is_ok());
  EXPECT_EQ(plain.fingerprint().canonical.rfind("pdn3d-req-v1|", 0), 0u);
  EXPECT_EQ(em.fingerprint().canonical.rfind("pdn3d-req-v2|", 0), 0u);
  EXPECT_NE(plain.fingerprint(), em.fingerprint());

  // The enforcement flag alone is enough to change behavior, so it alone
  // selects v2.
  EvaluateRequest enforce = base_request();
  ASSERT_TRUE(enforce.design.set_flag("em").is_ok());
  EXPECT_EQ(enforce.fingerprint().canonical.rfind("pdn3d-req-v2|", 0), 0u);
}

// Operations that never run the EM pass reset the EM knobs during
// canonicalization, exactly like state/samples/alpha for ops that ignore
// them.
TEST(Fingerprint, EmFieldsAreOpIrrelevantWhereEmNeverRuns) {
  for (const Operation op : {Operation::kMonteCarlo, Operation::kLut, Operation::kValidate}) {
    EvaluateRequest a = base_request();
    a.op = op;
    EvaluateRequest b = a;
    ASSERT_TRUE(set_option(&b.design, "em-temp", 110.0).is_ok());
    ASSERT_TRUE(b.design.set_flag("em").is_ok());
    EXPECT_EQ(a.fingerprint(), b.fingerprint()) << to_string(op);
  }
}

// cooptimize drops the design overlay -- except the EM fields, which
// parameterize its hard constraint and therefore its output.
TEST(Fingerprint, CooptimizeKeepsOnlyEmDesignFields) {
  EvaluateRequest a = base_request();
  a.op = Operation::kCoOptimize;
  EvaluateRequest b = a;
  ASSERT_TRUE(set_option(&b.design, "m2", 80.0).is_ok());  // ignored, as before
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ASSERT_TRUE(set_option(&b.design, "em-tsv-limit", 0.2).is_ok());  // constraint knob
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(b.fingerprint().canonical.rfind("pdn3d-req-v2|", 0), 0u);
}

// em-check reads state/activity like evaluate does.
TEST(Fingerprint, EmCheckKeepsStateAndActivity) {
  EvaluateRequest a = base_request();
  a.op = Operation::kEmCheck;
  EvaluateRequest b = a;
  b.state = "0-0-2b-0";
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b.state = a.state;
  b.activity = 0.5;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Fingerprint, CheckpointPlumbingIsNotIdentity) {
  // Resume is bitwise identical to a fresh run, so checkpointing cannot be
  // part of identity -- this is also what lets the existing checkpoint files
  // key themselves off the fingerprint.
  EvaluateRequest a = base_request();
  EvaluateRequest b = base_request();
  b.checkpoint_path = "/tmp/sweep.ckpt";
  b.resume = true;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Fingerprint, DistinctRequestsDiverge) {
  const EvaluateRequest a = base_request();

  EvaluateRequest diff_bench = base_request();
  diff_bench.benchmark = core::BenchmarkKind::kHmc;
  EXPECT_NE(a.fingerprint(), diff_bench.fingerprint());

  EvaluateRequest diff_design = base_request();
  ASSERT_TRUE(set_option(&diff_design.design, "tc", 200.0).is_ok());
  EXPECT_NE(a.fingerprint(), diff_design.fingerprint());

  EvaluateRequest diff_state = base_request();
  diff_state.state = "0-0-2b-0";
  EXPECT_NE(a.fingerprint(), diff_state.fingerprint());

  EvaluateRequest diff_activity = base_request();
  diff_activity.activity = 0.5;
  EXPECT_NE(a.fingerprint(), diff_activity.fingerprint());
}

// Canonicalization is syntactic, not semantic: the empty state (resolved to
// the benchmark default at evaluation time) keeps its own identity.
TEST(Fingerprint, EmptyStateIsNotResolvedToDefault) {
  EvaluateRequest spelled;
  spelled.benchmark = core::BenchmarkKind::kStackedDdr3OffChip;
  spelled.op = Operation::kEvaluate;
  spelled.state = "0-0-0-2";  // this benchmark's default_state text
  EvaluateRequest empty = spelled;
  empty.state.clear();
  EXPECT_NE(spelled.fingerprint(), empty.fingerprint());
}

// Golden value: changing the canonical text format invalidates every
// persisted fingerprint (reports, cached baselines), so it must be a
// deliberate, versioned decision -- bump "pdn3d-req-v1" when you do it.
TEST(Fingerprint, GoldenValueIsStable) {
  EvaluateRequest req;  // `pdn3d analyze off-chip`, all defaults
  const RequestFingerprint fp = req.fingerprint();
  EXPECT_EQ(fp.hex(), "4425fa0e988fed16") << fp.canonical;
}

TEST(Fingerprint, ResultCarriesFingerprint) {
  Session session;
  EvaluateRequest req = base_request();
  const EvaluateResult result = session.evaluate(req);
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(result.fingerprint, req.fingerprint().hex());
}

// Session::evaluate_group must be indistinguishable from per-request
// evaluate() calls: same outputs, byte for byte, whether or not the group
// was eligible for the multi-RHS batch path.
TEST(Fingerprint, EvaluateGroupMatchesStandaloneByteForByte) {
  Session session;
  std::vector<EvaluateRequest> group;
  for (const char* state : {"0-0-0-2", "0-0-2b-0", "0-0-0-1"}) {
    EvaluateRequest req = base_request();
    req.state = state;
    ASSERT_TRUE(set_option(&req.design, "m2", 30.0).is_ok());
    group.push_back(req);
  }
  const std::vector<EvaluateResult> batched = session.evaluate_group(group);
  ASSERT_EQ(batched.size(), group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    const EvaluateResult fresh = session.evaluate(group[i]);
    ASSERT_TRUE(batched[i].ok()) << batched[i].status.to_string();
    EXPECT_EQ(batched[i].output, fresh.output) << "member " << i;
    EXPECT_EQ(batched[i].exit_code, fresh.exit_code);
    EXPECT_EQ(batched[i].fingerprint, fresh.fingerprint);
    EXPECT_DOUBLE_EQ(batched[i].headline_mv, fresh.headline_mv);
  }
}

// A mixed group (different designs, a non-evaluate op) silently takes the
// per-request fallback -- outputs must still match standalone runs.
TEST(Fingerprint, EvaluateGroupFallbackMatchesStandalone) {
  Session session;
  std::vector<EvaluateRequest> group;
  EvaluateRequest a = base_request();
  EvaluateRequest b = base_request();
  ASSERT_TRUE(set_option(&b.design, "tc", 96.0).is_ok());  // different factor
  EvaluateRequest c = base_request();
  c.op = Operation::kValidate;
  group.push_back(a);
  group.push_back(b);
  group.push_back(c);
  const std::vector<EvaluateResult> batched = session.evaluate_group(group);
  ASSERT_EQ(batched.size(), group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(batched[i].output, session.evaluate(group[i]).output) << "member " << i;
  }
}

}  // namespace
}  // namespace pdn3d::api

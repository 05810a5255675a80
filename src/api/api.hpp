#pragma once

/// @file api.hpp
/// @brief The stable evaluation facade: EvaluateRequest -> EvaluateResult.
///
/// Both front ends -- the one-shot CLI (`tools/pdn3d_cli.cpp`) and the batch
/// evaluation service (`pdn3d serve`, `src/service/`) -- are thin shells over
/// this facade. A request fully describes one evaluation: a benchmark, a
/// design point (typed DesignOptions, see options.hpp), an operation, and the
/// operation's parameters. The result carries a structured status, the CLI
/// exit code, and the rendered text output. Because the rendering lives here
/// rather than in the CLI, a served request is byte-identical to the
/// equivalent one-shot CLI run by construction.
///
/// A Session owns the per-benchmark Platform instances and therefore all the
/// caches worth amortizing across requests: the shared_mutex design cache
/// (built stacks + analyzers with their sparse Cholesky factors) and the
/// per-design LUTs. The CLI creates one Session per process; the service
/// keeps one alive for thousands of requests -- that cache reuse is the whole
/// point of serving (see docs/SERVICE.md for the measured speedup).
///
/// Stability contract (docs/API.md): the request/result structs and the
/// operation set only grow -- new optional fields with compatible defaults.
/// Renamed or removed fields require a major version bump and a deprecation
/// cycle, like the solver's SolveRequest/SolveOutcome redesign in PR 3/4.
/// evaluate() is const and thread-safe; concurrent callers share the caches.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/options.hpp"
#include "core/benchmarks.hpp"
#include "core/platform.hpp"
#include "core/status.hpp"

namespace pdn3d::api {

/// The operations a request can name. These are exactly the CLI subcommands
/// whose output is a pure function of the request (streaming/simulation
/// commands keep their own CLI paths). Every per-operation fact lives in its
/// OperationSpec row (operation_specs()).
enum class Operation {
  kEvaluate,    ///< IR-drop analysis of one memory state (CLI: analyze)
  kMonteCarlo,  ///< IR distribution over random states (CLI: montecarlo)
  kLut,         ///< memory-state IR look-up table (CLI: lut)
  kCoOptimize,  ///< design+packaging co-optimization (CLI: cooptimize)
  kValidate,    ///< numerical-health check of the R-Mesh (CLI: validate)
  kEmCheck,     ///< branch-current / electromigration check (CLI: em-check)
};

/// The operation's protocol/fingerprint name (its OperationSpec::name).
[[nodiscard]] const char* to_string(Operation op);
/// Accepts an operation's name or its CLI command ("analyze" -> evaluate).
[[nodiscard]] core::Status parse_operation(std::string_view text, Operation* out);

/// Benchmark lookup by CLI token: off-chip | on-chip | wide-io | hmc.
[[nodiscard]] core::Status parse_benchmark(std::string_view text, core::BenchmarkKind* out);
/// The CLI token for a kind (inverse of parse_benchmark).
[[nodiscard]] const char* benchmark_token(core::BenchmarkKind kind);

/// Stable canonical identity of one evaluation request.
///
/// `canonical` is a deterministic text rendering of the *canonicalized*
/// request (fixed field order, %.17g doubles, op-irrelevant parameters reset
/// to defaults) and `hash` is its 64-bit FNV-1a (util::checkpoint_key). Two
/// requests fingerprint identically exactly when the facade guarantees their
/// rendered output is byte-identical -- whether the knobs arrived through
/// CLI flags, NDJSON protocol fields, or direct field assignment. The hex
/// form is what reports, service records, and the result cache carry.
struct RequestFingerprint {
  std::uint64_t hash = 0;  ///< FNV-1a 64 of `canonical`
  std::string canonical;   ///< the canonical request text that was hashed
  /// 16 lowercase hex digits of `hash`.
  [[nodiscard]] std::string hex() const;
  friend bool operator==(const RequestFingerprint&, const RequestFingerprint&) = default;
};

/// One fully-specified evaluation.
struct EvaluateRequest {
  core::BenchmarkKind benchmark = core::BenchmarkKind::kStackedDdr3OffChip;
  Operation op = Operation::kEvaluate;
  DesignOptions design;

  // Which operations read each parameter: the OperationSpec::reads_* columns.
  std::string state;       ///< memory state, empty = benchmark default
  double activity = -1.0;  ///< I/O activity [0,1], -1 = auto
  long long samples = 200; ///< Monte Carlo sample count
  double alpha = 0.3;      ///< objective exponent [0,1]

  /// Crash-safe sweep checkpoint file (ops whose row `checkpoints`; CLI
  /// `--checkpoint FILE`). Empty = no checkpointing. The file is keyed by a
  /// fingerprint of the request; it persists after a successful run (a
  /// re-run with `resume` replays it instantly). See docs/ROBUSTNESS.md.
  std::string checkpoint_path;
  /// Load completed entries from checkpoint_path before sweeping (CLI
  /// `--resume`). A missing file is a fresh start; a fingerprint mismatch is
  /// an input error. Resumed output is bitwise identical to an uninterrupted
  /// run.
  bool resume = false;

  /// Validate the operation parameters (design knobs are validated as they
  /// are set). Front ends call this before dispatching.
  [[nodiscard]] core::Status validate() const;

  /// A normalized copy with identical output: fields the operation's
  /// OperationSpec row does not read are reset to their defaults and the
  /// checkpoint plumbing is cleared (resume is bitwise identical to a fresh
  /// run, so it cannot affect identity). Canonicalization is purely
  /// syntactic: an empty `state` is NOT resolved to the benchmark's default
  /// state text, so "" and the spelled-out default fingerprint differently
  /// even though they evaluate identically.
  [[nodiscard]] EvaluateRequest canonicalize() const;

  /// The stable fingerprint of canonicalize() -- see RequestFingerprint.
  [[nodiscard]] RequestFingerprint fingerprint() const;

  /// Whether same-design requests like this one may share one multi-RHS
  /// solve (Session::evaluate_group, the service's coalescing): the row
  /// batches, EM is off, and there is no checkpoint.
  [[nodiscard]] bool batchable() const;

  /// Relative weight for the service's cost-based admission: the row's
  /// cost, per 16 samples (at least once) for an op that reads `samples`.
  [[nodiscard]] std::uint64_t admission_cost() const;
};

/// Structured outcome plus the rendered text the front end prints verbatim.
struct EvaluateResult {
  core::Status status;      ///< ok, or the structured failure
  int exit_code = 0;        ///< CLI exit-code mapping (docs/ROBUSTNESS.md)
  std::string output;       ///< rendered text; identical CLI vs served
  double headline_mv = 0.0; ///< op headline: max/worst/p99/optimum IR (mV)
  std::string fingerprint;  ///< RequestFingerprint::hex() of the request

  [[nodiscard]] bool ok() const { return status.is_ok(); }
};

/// Everything the facade, the service and the CLI know about one operation,
/// declared once. The `reads_*` columns name the request fields that set
/// its output; canonicalize() keeps exactly those, and validate() range-
/// checks `samples`/`alpha` only where they are read.
struct OperationSpec {
  Operation op;
  const char* name;         ///< protocol and fingerprint token
  const char* cli_command;  ///< the `pdn3d` subcommand
  bool reads_design;        ///< the non-EM design knobs
  bool reads_em;            ///< the EM knobs (em-wire-limit, ..., em)
  bool reads_state;         ///< `state` and `activity`
  bool reads_samples;
  bool reads_alpha;
  bool checkpoints;         ///< accepts `checkpoint_path` / `resume`
  bool batches;             ///< same-design requests may share one solve
  std::uint64_t cost;       ///< admission weight (see admission_cost())
  /// Runs the operation and renders its output; failures set result->status.
  void (*render)(const core::Platform&, const EvaluateRequest&, std::ostream&,
                 EvaluateResult*);
};

/// One row per Operation, in enum order.
[[nodiscard]] std::span<const OperationSpec> operation_specs();

/// A long-lived evaluation context: lazily builds one core::Platform per
/// benchmark and serves evaluate() calls against them. Thread-safe for
/// concurrent evaluate() calls (the platform map is behind a shared_mutex and
/// Platform itself is const-thread-safe).
class Session {
 public:
  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Pre-seed (or replace) the platform for @p kind with a customized
  /// benchmark -- the CLI's `--tech FILE` override path. Not thread-safe
  /// against concurrent evaluate(); install before serving.
  void install(core::BenchmarkKind kind, core::Benchmark benchmark);

  /// The (lazily built) platform for a benchmark.
  [[nodiscard]] const core::Platform& platform(core::BenchmarkKind kind) const;

  /// Run one request. Never throws for data-dependent reasons: validation
  /// and numerical failures come back as status + exit_code, exactly as the
  /// CLI would have reported them.
  [[nodiscard]] EvaluateResult evaluate(const EvaluateRequest& request) const;

  /// Run a group of requests, solving them through one multi-RHS batch when
  /// they share a factor (same benchmark + same canonical design text, all
  /// batchable()). Results come back in input order and are byte-identical
  /// to per-request evaluate() calls -- any request (or batch failure) that
  /// cannot take the shared-factor path falls back to evaluate() per member,
  /// so callers never observe a different outcome than N individual calls
  /// would have produced.
  [[nodiscard]] std::vector<EvaluateResult> evaluate_group(
      std::span<const EvaluateRequest> requests) const;

 private:
  mutable std::shared_mutex mutex_;
  mutable std::map<core::BenchmarkKind, std::unique_ptr<core::Platform>> platforms_;
};

}  // namespace pdn3d::api

#pragma once

/// \file
/// Deterministic fault-injection framework (docs/ROBUSTNESS.md).
///
/// Injection sites are string-keyed probes threaded through the solver,
/// executor, and service layers. They are inert until a fault spec is loaded
/// into the process-wide faults::Registry, normally from the PDN3D_FAULTS
/// environment variable:
///
///   PDN3D_FAULTS="linalg.cg.stall=0.05:20,service.socket.reset=1/8#3,seed=42"
///
/// Spec grammar (comma-separated entries):
///   site=rate[#max][:param]   activate `site`
///     rate    probability in [0,1] (seeded, per-call), or `1/N` to fire
///             deterministically on every Nth call
///     #max    stop after `max` triggers (0 / absent = unlimited)
///     :param  site parameter; for stall/delay sites the duration in ms
///   seed=N                    seed for the probabilistic decisions
///
/// Decisions are pure functions of (seed, site, call index), so a run with a
/// fixed spec replays the exact same fault schedule. Every trigger bumps a
/// `faults.<site>` counter in the obs metrics namespace.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pdn3d::faults {

/// Parsed per-site activation from a PDN3D_FAULTS spec entry.
struct SiteConfig {
  double rate = 0.0;             ///< firing probability per call (when every_nth == 0)
  std::uint64_t every_nth = 0;   ///< when > 0: fire deterministically on calls N, 2N, ...
  std::uint64_t max_triggers = 0;  ///< stop firing after this many triggers (0 = unlimited)
  double param = 0.0;            ///< site parameter (stall/delay sites: duration in ms)
  bool has_param = false;        ///< whether `:param` was given in the spec
};

/// Counter snapshot for one configured site.
struct SiteStats {
  std::string site;
  std::uint64_t calls = 0;     ///< times the site was reached
  std::uint64_t triggers = 0;  ///< times it fired
};

/// Process-wide fault registry. Configure once (startup or test setup), then
/// any thread may consult it; `should_fire` is safe to call concurrently.
class Registry {
 public:
  static Registry& instance();

  /// Load a spec, replacing any previous configuration and resetting all
  /// counters. Returns an empty string on success, else a parse error message
  /// (the previous configuration is kept on error). An empty spec disables
  /// injection entirely.
  std::string configure(std::string_view spec);

  /// Load the spec from the PDN3D_FAULTS environment variable. Unset or empty
  /// leaves injection disabled. Returns the configure() error string.
  std::string configure_from_env();

  /// Drop all sites and disable injection (tests).
  void reset();

  /// Cheap global gate: false unless at least one site is configured.
  bool enabled() const noexcept;

  /// Decide whether `site` fires on this call. Bumps the call counter, and on
  /// a trigger the trigger counter plus the `faults.<site>` metric. Always
  /// false for unconfigured sites or when disabled.
  bool should_fire(std::string_view site);

  /// The `:param` value configured for `site`, or `fallback` when absent.
  double param(std::string_view site, double fallback) const;

  /// Trigger count for `site` since the last configure()/reset().
  std::uint64_t triggers(std::string_view site) const;

  /// Snapshot of every configured site's counters.
  std::vector<SiteStats> stats() const;

  /// Seed the current configuration was loaded with.
  std::uint64_t seed() const;

 private:
  Registry() = default;
  struct Site;
  std::shared_ptr<const std::map<std::string, std::shared_ptr<Site>, std::less<>>> sites() const;

  mutable std::mutex mutex_;
  std::shared_ptr<const std::map<std::string, std::shared_ptr<Site>, std::less<>>> sites_;
  std::uint64_t seed_ = 0;
};

/// Every injection site threaded through the codebase, for parameterized
/// tests and documentation. Keep in sync with docs/ROBUSTNESS.md.
inline constexpr std::string_view kKnownSites[] = {
    "linalg.cg.stall",       // sleep before the CG iteration loop
    "linalg.cg.nan",         // poison the initial CG residual with a NaN
    "linalg.chol.stall",     // sleep before the sparse-Cholesky factorization
    "irdrop.solve.alloc",    // throw std::bad_alloc at solver entry
    "exec.region.stall",     // sleep before running a parallel region
    "service.queue.delay",   // sleep between dequeue and evaluation
    "service.worker.stall",  // sleep inside the evaluation (cancel-aware)
    "service.socket.reset",  // shut down a client connection mid-read
};

/// Free-function probes used by the PDN3D_FAULT_* macros below.
bool should_fire(std::string_view site);
/// Sleep for the site's `:param` ms (default `default_ms`), in small slices so
/// an exec::CancelToken installed on this thread interrupts the stall.
void maybe_stall(std::string_view site, double default_ms);
/// Throw std::bad_alloc when the site fires.
void maybe_throw_alloc(std::string_view site);

}  // namespace pdn3d::faults

#define PDN3D_FAULT_POINT(site) (::pdn3d::faults::should_fire(site))
#define PDN3D_FAULT_STALL(site, default_ms) (::pdn3d::faults::maybe_stall(site, default_ms))
#define PDN3D_FAULT_ALLOC(site) (::pdn3d::faults::maybe_throw_alloc(site))

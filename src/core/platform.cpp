#include "core/platform.hpp"

#include <array>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pdn3d::core {

Platform::Platform(Benchmark benchmark) : bench_(std::move(benchmark)) {}

power::MemoryState Platform::parse_state(std::string_view text, double io_activity) const {
  return power::parse_memory_state(text, bench_.stack.dram_spec, io_activity);
}

irdrop::PowerBinding Platform::power_binding() const {
  irdrop::PowerBinding pb;
  pb.dram = bench_.dram_power;
  pb.logic = bench_.logic_power;
  pb.dram_scale = bench_.power_scale;
  pb.logic_active = true;
  return pb;
}

std::string Platform::cache_key(const pdn::PdnConfig& config) const {
  std::ostringstream os;
  os << config.summary() << "|ltl=" << pdn::to_string(config.logic_tsv_location)
     << "|al=" << config.align_tsvs_to_c4;
  return os.str();
}

Platform::CachedDesign& Platform::design(const pdn::PdnConfig& config) const {
  static auto& m_hits = obs::counter("platform.design_cache_hits");
  static auto& m_misses = obs::counter("platform.design_cache_misses");
  static auto& m_inserts = obs::counter("platform.design_cache_inserts");
  const std::string key = cache_key(config);
  {
    const std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      m_hits.add(1);
      return *it->second;
    }
  }
  m_misses.add(1);

  // Build outside any lock: stack construction + factorization dominate, and
  // concurrent readers of other designs must not stall behind them. Two
  // threads racing on the same key both build; emplace keeps the first and
  // the loser's copy is discarded (counted as a miss but not an insert).
  PDN3D_TRACE_SPAN("platform/build_design");
  auto cd = std::make_unique<CachedDesign>();
  cd->built = pdn::build_stack(bench_.stack, config);
  // Cached designs serve many states (a LUT build is 3^4 states on the
  // paper's 4-die stack; controller runs and co-optimizer probes add more),
  // so they start on the cached sparse-direct factor: two triangular sweeps
  // per state, with ic-pcg behind it if the factorization is declined.
  cd->analyzer = std::make_unique<irdrop::IrAnalyzer>(
      cd->built.model, bench_.stack.dram_fp, bench_.stack.logic_fp, power_binding(),
      irdrop::SolverKind::kSparseDirect);
  const std::unique_lock<std::shared_mutex> lock(cache_mutex_);
  auto [pos, inserted] = cache_.emplace(key, std::move(cd));
  if (inserted) m_inserts.add(1);
  return *pos->second;
}

irdrop::IrResult Platform::analyze(const pdn::PdnConfig& config,
                                   const power::MemoryState& state) const {
  return design(config).analyzer->analyze(state);
}

irdrop::IrResult Platform::analyze(const pdn::PdnConfig& config, std::string_view state,
                                   double io_activity) const {
  return analyze(config, parse_state(state, io_activity));
}

namespace {

/// The members of one measure_ir_group() call. A member's stack is built
/// when a lane takes it and dropped once its solver is set up; the solver
/// lives until the member's solve is done. The members share one LoadMap
/// (blocks on device-layer nodes) and so one sink vector, replaced only for
/// a member whose device grids differ.
class GroupMembers final : public irdrop::LaneFeed {
 public:
  GroupMembers(const Benchmark& bench, irdrop::PowerBinding binding,
               std::span<const pdn::PdnConfig> configs, std::span<opt::Measurement> out,
               irdrop::LaneScratch& scratch)
      : bench_(bench), power_(std::move(binding)), configs_(configs), out_(out), scratch_(scratch),
        state_(power::parse_memory_state(bench.default_state, bench.stack.dram_spec,
                                         bench.default_io_activity)) {}

  const irdrop::IrSolver* next(std::size_t lane, std::span<const double>& sinks) override {
    Slot& slot = slots_[lane];
    while (next_ < configs_.size()) {
      slot.member = next_++;
      // One-shot, as measure_ir_mv always was: build, analyze, discard
      // (sweeps would otherwise exhaust memory through the cache).
      try {
        const pdn::BuiltStack built = pdn::build_stack(bench_.stack, configs_[slot.member]);
        slot.solver.emplace(built.model, irdrop::SolverKind::kPcgIc, irdrop::IrSolverOptions{},
                            &scratch_.structure);
        if (!load_ || !load_->fits(built.model)) {
          load_ = std::make_shared<const irdrop::LoadMap>(
              built.model, bench_.stack.dram_fp, bench_.stack.logic_fp, power_);
          load_->injection_into(state_, sinks_);
        }
      } catch (const ValidationError&) {
        out_[slot.member] = {0.0, std::current_exception()};
        slot.solver.reset();
        continue;
      }
      slot.load = load_;
      sinks = sinks_;
      return &*slot.solver;
    }
    return nullptr;
  }

  void done(std::size_t lane, irdrop::SolveOutcome& outcome) override {
    Slot& slot = slots_[lane];
    try {
      out_[slot.member] = {slot.load->result(state_, outcome).dram_max_mv, nullptr};
    } catch (const NumericalError& e) {
      if (e.status().code() == StatusCode::kCancelled) throw;
      out_[slot.member] = {0.0, std::current_exception()};
    }
    slot.solver.reset();
    slot.load.reset();
  }

 private:
  struct Slot {
    std::size_t member = 0;
    std::optional<irdrop::IrSolver> solver;
    std::shared_ptr<const irdrop::LoadMap> load;
  };

  const Benchmark& bench_;
  irdrop::PowerBinding power_;
  std::span<const pdn::PdnConfig> configs_;
  std::span<opt::Measurement> out_;
  irdrop::LaneScratch& scratch_;
  power::MemoryState state_;
  std::shared_ptr<const irdrop::LoadMap> load_;
  std::vector<double> sinks_;  ///< load_'s injection of state_
  std::size_t next_ = 0;
  std::array<Slot, linalg::kCgLanes> slots_;
};

}  // namespace

void Platform::measure_ir_group(std::span<const pdn::PdnConfig> configs,
                                std::span<opt::Measurement> out,
                                irdrop::LaneScratch& scratch) const {
  if (out.size() != configs.size()) {
    throw std::invalid_argument("Platform::measure_ir_group: result count mismatch");
  }
  GroupMembers members(bench_, power_binding(), configs, out, scratch);
  irdrop::IrSolver::solve_lanes(members, configs.size(), /*want_ir=*/true, scratch);
}

double Platform::measure_ir_mv(const pdn::PdnConfig& config) const {
  irdrop::LaneScratch scratch;
  opt::Measurement m;
  measure_ir_group({&config, 1}, {&m, 1}, scratch);
  if (m.error) std::rethrow_exception(m.error);
  return m.ir_mv;
}

irdrop::EmReport Platform::em_check(
    const pdn::PdnConfig& config, const power::MemoryState& state,
    const irdrop::EmOptions& options,
    const std::function<void(const irdrop::IrResult&)>& on_ir) const {
  const irdrop::IrAnalyzer& a = analyzer(config);
  const irdrop::IrResult ir = a.analyze(state);
  if (on_ir) on_ir(ir);
  return irdrop::em_check(a.model(), bench_.stack.tech,
                          irdrop::SolveWorkspace::local().solutions(), options);
}

irdrop::EmReport Platform::measure_em(const pdn::PdnConfig& config,
                                      const irdrop::EmOptions& options) const {
  const auto built = pdn::build_stack(bench_.stack, config);
  const irdrop::IrAnalyzer analyzer(built.model, bench_.stack.dram_fp, bench_.stack.logic_fp,
                                    power_binding());
  const auto state = parse_state(bench_.default_state, bench_.default_io_activity);
  return irdrop::em_check(built.model, bench_.stack.tech, analyzer.node_voltages(state), options);
}

pdn::BuildInfo Platform::build_info(const pdn::PdnConfig& config) const {
  return design(config).built.info;
}

Platform::RailPairResult Platform::analyze_rail_pair(const pdn::PdnConfig& config,
                                                     const power::MemoryState& state,
                                                     double vss_metal_scale) const {
  if (vss_metal_scale <= 0.0) {
    throw std::invalid_argument("analyze_rail_pair: vss_metal_scale must be positive");
  }
  RailPairResult out;
  out.vdd = analyze(config, state);
  // The return net carries the same currents through a mirrored grid; only
  // its metal budget may differ.
  pdn::PdnConfig vss_cfg = config;
  vss_cfg.metal_usage_scale *= vss_metal_scale;
  out.vss = analyze(vss_cfg, state);
  out.combined_worst_mv = out.vdd.dram_max_mv + out.vss.dram_max_mv;
  return out;
}

const irdrop::IrLut& Platform::lut(const pdn::PdnConfig& config) const {
  static auto& m_hits = obs::counter("lut.hit");
  static auto& m_misses = obs::counter("lut.miss");
  CachedDesign& cd = design(config);
  // Per-design mutex (not call_once): a failed build must stay retryable,
  // and concurrent callers of *different* designs must not serialize.
  const std::lock_guard<std::mutex> lock(cd.lut_mutex);
  if (cd.lut) {
    m_hits.add(1);
  } else {
    m_misses.add(1);
    cd.lut = std::make_unique<irdrop::IrLut>(
        irdrop::IrLut::build(*cd.analyzer, bench_.stack.dram_spec, bench_.sim.max_active_per_die,
                             bench_.sim.io_demand_factor));
  }
  return *cd.lut;
}

irdrop::MonteCarloResult Platform::montecarlo(const pdn::PdnConfig& config, int samples) const {
  CachedDesign& cd = design(config);
  irdrop::MonteCarloConfig mc;
  mc.samples = samples;
  mc.prefix = &cd.montecarlo_prefix;
  // Held for the whole run, as lut() holds lut_mutex for a build: a run
  // that waited replays what the one before it solved.
  const std::lock_guard<std::mutex> lock(cd.montecarlo_mutex);
  return irdrop::sample_ir_distribution(*cd.analyzer, bench_.stack.dram_spec, mc);
}

const irdrop::IrAnalyzer& Platform::analyzer(const pdn::PdnConfig& config) const {
  return *design(config).analyzer;
}

memctrl::SimResult Platform::simulate(const pdn::PdnConfig& config,
                                      memctrl::PolicyConfig policy) const {
  return simulate(config, policy, memctrl::generate_workload(bench_.workload));
}

memctrl::SimResult Platform::simulate(const pdn::PdnConfig& config, memctrl::PolicyConfig policy,
                                      std::vector<memctrl::Request> requests) const {
  policy.lut = &lut(config);
  memctrl::MemoryController controller(bench_.sim, policy);
  return controller.run(std::move(requests));
}

opt::CoOptimizer Platform::make_cooptimizer(int threads) const {
  return opt::CoOptimizer(bench_.design_space, std::make_unique<PlatformEvaluator>(*this),
                          threads);
}

}  // namespace pdn3d::core

// Extension bench: IR-drop distribution under random operation. The paper
// designs against the worst-case memory state; the Monte Carlo sampler shows
// how much margin that worst case carries over typical random states, and
// how the margin moves with the paper's packaging options.

#include <iostream>

#include "bench_util.hpp"
#include "core/benchmarks.hpp"
#include "irdrop/montecarlo.hpp"
#include "pdn/stack_builder.hpp"

int main() {
  using namespace pdn3d;
  bench::print_header("Extension: Monte Carlo IR distribution",
                      "off-chip stacked DDR3, 200 random states per design");

  const auto bench_cfg = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  irdrop::PowerBinding power;
  power.dram = bench_cfg.dram_power;
  power.logic = bench_cfg.logic_power;

  util::Table t({"design", "p50 (mV)", "p95 (mV)", "p99 (mV)", "sampled max", "worst case",
                 "p99/worst"});
  const auto run = [&](const char* label, pdn::PdnConfig cfg) {
    const auto built = pdn::build_stack(bench_cfg.stack, cfg);
    const irdrop::IrAnalyzer analyzer(built.model, bench_cfg.stack.dram_fp,
                                      bench_cfg.stack.logic_fp, power,
                                      irdrop::SolverKind::kSparseDirect);
    irdrop::MonteCarloConfig mc;
    mc.samples = 200;
    const auto r = irdrop::sample_ir_distribution(analyzer, bench_cfg.stack.dram_spec, mc);
    const auto worst_state =
        power::parse_memory_state("0-0-0-2", bench_cfg.stack.dram_spec, 1.0);
    const double worst = analyzer.analyze(worst_state).dram_max_mv;
    t.add_row({label, util::fmt_fixed(r.p50_mv, 2), util::fmt_fixed(r.p95_mv, 2),
               util::fmt_fixed(r.p99_mv, 2), util::fmt_fixed(r.max_mv, 2),
               util::fmt_fixed(worst, 2), util::fmt_fixed(r.p99_mv / worst, 2)});
  };

  run("baseline (F2B)", bench_cfg.baseline);
  {
    auto f2f = bench_cfg.baseline;
    f2f.bonding = pdn::BondingStyle::kF2F;
    run("F2F+B2B", f2f);
  }
  {
    auto wb = bench_cfg.baseline;
    wb.wire_bonding = true;
    run("F2B + wire bonds", wb);
  }

  std::cout << t.render();
  std::cout << "The worst-case design point upper-bounds random operation; F2F compresses\n"
            << "the distribution hardest because PDN sharing favors exactly the scattered\n"
            << "states random operation produces.\n\n";
  return 0;
}

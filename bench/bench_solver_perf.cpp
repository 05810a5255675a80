// Solver micro-benchmarks (google-benchmark): R-Mesh assembly and DC solve
// cost across mesh refinements and preconditioners. Not a paper table, but
// documents the per-solve cost the LUT construction and co-optimization
// sweeps are built on.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/benchmarks.hpp"
#include "exec/thread_pool.hpp"
#include "irdrop/analysis.hpp"
#include "irdrop/lut.hpp"
#include "irdrop/montecarlo.hpp"
#include "linalg/sparse_chol.hpp"
#include "pdn/stack_builder.hpp"

namespace {

using namespace pdn3d;

const core::Benchmark& ddr3() {
  static const core::Benchmark b = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  return b;
}

const core::Benchmark& wideio() {
  static const core::Benchmark b = core::make_benchmark(core::BenchmarkKind::kWideIo);
  return b;
}

const char* kind_label(irdrop::SolverKind kind) {
  switch (kind) {
    case irdrop::SolverKind::kSparseDirect: return "sparse-direct";
    case irdrop::SolverKind::kPcgIc: return "IC-PCG";
    case irdrop::SolverKind::kDense: return "dense";
  }
  return "?";
}

void BM_BuildStack(benchmark::State& state) {
  const auto& b = ddr3();
  for (auto _ : state) {
    auto built = pdn::build_stack(b.stack, b.baseline);
    benchmark::DoNotOptimize(built.model.node_count());
  }
}
BENCHMARK(BM_BuildStack);

void BM_AnalyzerSetup(benchmark::State& state) {
  const auto& b = ddr3();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  for (auto _ : state) {
    irdrop::IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power);
    benchmark::DoNotOptimize(&analyzer);
  }
}
BENCHMARK(BM_AnalyzerSetup);

void BM_SolveState(benchmark::State& state) {
  const auto& b = ddr3();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  const auto kind = static_cast<irdrop::SolverKind>(state.range(0));
  const irdrop::IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power, kind);
  const auto st = power::parse_memory_state("0-0-0-2", b.stack.dram_spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(st).dram_max_mv);
  }
  state.SetLabel(kind_label(kind));
}
BENCHMARK(BM_SolveState)
    ->Arg(static_cast<int>(irdrop::SolverKind::kSparseDirect))
    ->Arg(static_cast<int>(irdrop::SolverKind::kPcgIc));

// --- Same-matrix/many-RHS fast path ----------------------------------------
// The sparse-direct rung's two cost components, measured separately on the
// Wide I/O-class mesh: the one-time factorization (amortized across a sweep;
// it includes the factor's own AMD ordering, as shipped) and the per-batch
// triangular sweeps that replace whole PCG solves.

void BM_FactorOnce(benchmark::State& state) {
  const auto& b = wideio();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  const irdrop::IrSolver solver(built.model, irdrop::SolverKind::kPcgIc);
  const linalg::Csr& g = solver.conductance_matrix();
  std::size_t nnz = 0;
  for (auto _ : state) {
    const linalg::SparseCholesky chol(g);
    nnz = chol.factor_nnz();
    benchmark::DoNotOptimize(nnz);
  }
  state.SetLabel(std::to_string(g.dimension()) + " nodes, nnz(L)=" + std::to_string(nnz));
}
BENCHMARK(BM_FactorOnce)->Unit(benchmark::kMillisecond);

void BM_TriangularSolveBatch(benchmark::State& state) {
  const auto& b = wideio();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  const irdrop::IrSolver solver(built.model, irdrop::SolverKind::kPcgIc);
  const linalg::Csr& g = solver.conductance_matrix();
  const linalg::SparseCholesky chol(g);
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::size_t n = g.dimension();
  std::vector<double> rhs(n * count, 0.0);
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = 1e-3 * static_cast<double>(i % 17);
  // Blocks of up to kSolveBlock right-hand sides, loaded node-major and
  // solved in place.
  std::vector<double> block(n * std::min(count, linalg::kSolveBlock), 0.0);
  for (auto _ : state) {
    for (std::size_t first = 0; first < count; first += linalg::kSolveBlock) {
      const std::size_t width = std::min(linalg::kSolveBlock, count - first);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = 0; r < width; ++r) block[i * width + r] = rhs[(first + r) * n + i];
      }
      chol.solve_block(std::span(block).first(n * width), width);
    }
    benchmark::DoNotOptimize(block.data());
  }
  state.SetLabel(std::to_string(count) + " rhs");
}
BENCHMARK(BM_TriangularSolveBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_SingleDieSolve(benchmark::State& state) {
  const auto& b = ddr3();
  const int refine = static_cast<int>(state.range(0));
  const auto die = pdn::build_single_die(b.stack, b.baseline, refine);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  const irdrop::IrAnalyzer analyzer(die, b.stack.dram_fp, b.stack.logic_fp, power);
  const auto st = power::parse_memory_state("2a", b.stack.dram_spec, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(st).dram_max_mv);
  }
  state.SetLabel(std::to_string(die.node_count()) + " nodes");
}
BENCHMARK(BM_SingleDieSolve)->Arg(1)->Arg(2)->Arg(3);

// --- Parallel sweep engine + solver fast path ------------------------------
// Two-dimensional series over the Wide I/O-class mesh: worker count (1/2/4)
// x starting solver rung (ic-pcg vs the cached sparse-direct factor). Results
// are bitwise identical across the thread axis (the determinism contract);
// only the wall clock moves. The sparse-direct rows document the many-RHS
// fast path: the factorization is paid once per analyzer and every subsequent
// state solve is two triangular sweeps, which is where the LUT build and
// Monte Carlo sweeps gain over per-solve PCG. On a single-core CI box the
// threads>1 rows mostly measure oversubscription; the threads=1 rows are the
// direct-vs-pcg comparison the perf gate reads.

void BM_MonteCarloSweep(benchmark::State& state) {
  const auto& b = wideio();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  const auto kind = static_cast<irdrop::SolverKind>(state.range(1));
  const irdrop::IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power, kind);
  irdrop::MonteCarloConfig cfg;
  cfg.samples = 32;
  cfg.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        irdrop::sample_ir_distribution(analyzer, b.stack.dram_spec, cfg).mean_mv);
  }
  state.SetLabel(std::to_string(cfg.threads) + " threads, " + kind_label(kind));
}
BENCHMARK(BM_MonteCarloSweep)
    ->Args({1, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({2, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({4, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({1, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Args({2, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Args({4, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Unit(benchmark::kMillisecond);

void BM_LutBuild(benchmark::State& state) {
  const auto& b = wideio();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  const auto kind = static_cast<irdrop::SolverKind>(state.range(1));
  const irdrop::IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power, kind);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        irdrop::IrLut::build(analyzer, b.stack.dram_spec, 2, 1.0, threads).worst_case_mv());
  }
  state.SetLabel(std::to_string(threads) + " threads, " + kind_label(kind));
}
BENCHMARK(BM_LutBuild)
    ->Args({1, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({2, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({4, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({1, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Args({2, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Args({4, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Unit(benchmark::kMillisecond);

void BM_PoolDispatchOverhead(benchmark::State& state) {
  // Per-region cost of the single-thread inline path against the same solve
  // loop written as a plain for: the <= 5% single-thread overhead budget.
  const auto& b = ddr3();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  const irdrop::IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power);
  const auto st = power::parse_memory_state("0-0-0-2", b.stack.dram_spec);
  const bool pooled = state.range(0) != 0;
  exec::ThreadPool pool(1);
  for (auto _ : state) {
    double sum = 0.0;
    if (pooled) {
      pool.parallel_chunks(8, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) sum += analyzer.analyze(st).dram_max_mv;
      });
    } else {
      for (std::size_t i = 0; i < 8; ++i) sum += analyzer.analyze(st).dram_max_mv;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel(pooled ? "pool(1) inline path" : "plain loop");
}
BENCHMARK(BM_PoolDispatchOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

#include "irdrop/eval_context.hpp"

namespace pdn3d::irdrop {

IrResult EvalContext::analyze(const power::MemoryState& state) {
  IrResult result = analyzer_->analyze(state, &scratch_, &sinks_);
  ++stats_.analyses;
  ++stats_.solves;
  stats_.escalations += result.solver_escalations;
  return result;
}

SolveOutcome EvalContext::solve(const SolveRequest& request) {
  SolveOutcome outcome = analyzer_->solver().solve(request, &scratch_);
  ++stats_.solves;
  stats_.escalations += outcome.escalations;
  return outcome;
}

}  // namespace pdn3d::irdrop

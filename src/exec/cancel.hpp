#pragma once

/// \file
/// Cooperative cancellation for long-running evaluations.
///
/// A CancelToken is a shared flag an owner (e.g. the service watchdog) sets
/// to ask work to stop. A CancelScope installs the token as the calling
/// thread's active cancellation flag for its lifetime; inner loops (CG
/// iterations, Cholesky factorization, the solver ladder) poll
/// cancellation_requested() and unwind with StatusCode::kCancelled.
///
/// The flag is thread-local by design: nested parallel regions run inline on
/// the calling thread (see exec::ThreadPool), so a scope installed around
/// `Session::evaluate` on a service worker covers the whole per-request
/// sweep without threading a token through every API layer. A region that
/// does run on pool workers hands them the submitting thread's token for
/// its tasks.

#include <atomic>

namespace pdn3d::exec {

/// Shared cancellation flag. cancel() may be called from any thread.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept { return cancelled_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// RAII: makes `token` the calling thread's active cancellation flag.
/// Scopes nest; the previous flag is restored on destruction.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken& token) noexcept;
  /// Makes @p token (null: none) the active flag, as a pool worker adopts
  /// its region's.
  explicit CancelScope(const CancelToken* token) noexcept;
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* previous_;
};

/// True when a CancelScope is active on this thread and its token was
/// cancelled. Cheap enough to poll from solver inner loops.
bool cancellation_requested() noexcept;

/// The calling thread's active token, null outside any CancelScope.
const CancelToken* active_cancel_token() noexcept;

}  // namespace pdn3d::exec

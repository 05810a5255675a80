#include "exec/cancel.hpp"

namespace pdn3d::exec {

namespace {

thread_local const CancelToken* tls_token = nullptr;

}  // namespace

CancelScope::CancelScope(const CancelToken& token) noexcept : CancelScope(&token) {}

CancelScope::CancelScope(const CancelToken* token) noexcept : previous_(tls_token) {
  tls_token = token;
}

CancelScope::~CancelScope() { tls_token = previous_; }

bool cancellation_requested() noexcept {
  return tls_token != nullptr && tls_token->cancelled();
}

const CancelToken* active_cancel_token() noexcept { return tls_token; }

}  // namespace pdn3d::exec

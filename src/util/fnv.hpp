#pragma once

/// \file
/// Streaming FNV-1a 64-bit hashing.
///
/// The canonical-fingerprint machinery (api::RequestFingerprint,
/// util::checkpoint_key) and the fault-injection site keys hash text with
/// this one implementation.

#include <cstdint>
#include <string_view>

namespace pdn3d::util {

/// Incremental FNV-1a 64-bit hasher. Feed bytes in canonical order; value()
/// is stable across platforms.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  constexpr void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= kPrime;
  }

  constexpr void text(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }

  [[nodiscard]] constexpr std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

/// One-shot FNV-1a of a text fragment (the historical checkpoint_key core).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view text) {
  Fnv1a h;
  h.text(text);
  return h.value();
}

}  // namespace pdn3d::util

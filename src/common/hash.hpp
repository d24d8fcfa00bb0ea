// FNV-1a (64-bit), the runtime's one non-cryptographic hash: packet
// checksums, determinism digests and the launcher's digest folds.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bgq {

/// The FNV-1a offset basis: the hash of no bytes, where every fold starts.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
/// The 64-bit FNV prime.
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold `bytes` bytes at `data` into the running hash `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                           std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace bgq

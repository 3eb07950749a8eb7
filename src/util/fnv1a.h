// FNV-1a 64-bit over bytes — the one byte-wise FNV in the tree. Artifact
// checksums (RBPC, RBTW), seed derivations (client and supervisor jitter,
// generated circuits), the hash ring and the `score` checksum all fold
// bytes through it, so their values are pinned by the same standard test
// vectors (tests/util/backoff_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rebert::util {

inline constexpr std::uint64_t kFnv1aInit = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// Streaming form: fold `size` more bytes into a running state seeded
/// with kFnv1aInit; fnv1a(d, n) == fnv1a_update(kFnv1aInit, d, n).
inline std::uint64_t fnv1a_update(std::uint64_t state, const void* data,
                                  std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= kFnv1aPrime;
  }
  return state;
}

inline std::uint64_t fnv1a(const void* data, std::size_t size) {
  return fnv1a_update(kFnv1aInit, data, size);
}

inline std::uint64_t fnv1a(std::string_view text) {
  return fnv1a(text.data(), text.size());
}

}  // namespace rebert::util

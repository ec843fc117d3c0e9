// hash.h -- FNV-1a, the one string hash behind persisted identities:
// experiment-spec hashes (shard records, resume manifests),
// attack-genome hashes and the hunt spool's config hash.
// Changing it orphans every stored manifest and spool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dash::util {

/// 64-bit FNV-1a of `text`: stable across platforms, cheap, and
/// collision-safe at "is this the same sweep" scale.
constexpr std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// `v` as 16 zero-padded lower-case hex digits.
inline std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0;) {
    out[i] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace dash::util

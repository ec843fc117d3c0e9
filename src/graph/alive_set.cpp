#include "graph/alive_set.h"

#include <array>

#include "util/check.h"

namespace dash::graph {

namespace {

/// kSelectInByte[k << 8 | b]: the position of the k-th set bit
/// (0-based) of byte b, or 8 when b has k or fewer set bits.
constexpr std::array<std::uint8_t, 2048> kSelectInByte = [] {
  std::array<std::uint8_t, 2048> table{};
  for (unsigned k = 0; k < 8; ++k) {
    for (unsigned b = 0; b < 256; ++b) {
      std::uint8_t pos = 8;
      for (unsigned i = 0, seen = 0; i < 8 && pos == 8; ++i) {
        if (((b >> i) & 1) != 0 && seen++ == k) {
          pos = static_cast<std::uint8_t>(i);
        }
      }
      table[k << 8 | b] = pos;
    }
  }
  return table;
}();

constexpr std::uint64_t kOnesStep8 = 0x0101010101010101;
constexpr std::uint64_t kMsbsStep8 = 0x8080808080808080;

/// Position of the r-th set bit (0-based) of x, which must have more
/// than r set bits. Broadword select (Vigna, "Broadword implementation
/// of rank/select queries", 2008): byte popcounts by SWAR, their
/// running sums in one multiply, the target byte by one parallel
/// compare, and the bit inside it from a table. No popcount call (the
/// build has no -mpopcnt, so std::popcount is a libgcc call) and no
/// data-dependent branch.
unsigned select_in_word(std::uint64_t x, std::size_t r) {
  std::uint64_t bytes = x - ((x >> 1) & 0x5555555555555555);
  bytes = (bytes & 0x3333333333333333) + ((bytes >> 2) & 0x3333333333333333);
  bytes = (bytes + (bytes >> 4)) & 0x0F0F0F0F0F0F0F0F;
  // Byte i of `sums` counts the set bits of bytes 0..i.
  const std::uint64_t sums = bytes * kOnesStep8;
  // Byte i's high bit survives when sums_i <= r. No byte borrows: each
  // minuend byte is r + 128 and each sums_i at most 64. Those bytes
  // form a prefix, and the r-th set bit lies in the byte after it.
  const std::uint64_t passed =
      ((r * kOnesStep8 | kMsbsStep8) - sums) & kMsbsStep8;
  const auto place = static_cast<unsigned>(
      (((passed >> 7) * kOnesStep8) >> 56) * 8);
  const std::uint64_t before = ((sums << 8) >> place) & 0xFF;
  return place + kSelectInByte[(r - before) << 8 | ((x >> place) & 0xFF)];
}

}  // namespace

AliveSet::AliveSet(std::size_t n) : count_(n) {
  if (n == 0) return;
  words_.assign(std::bit_ceil((n + 63) / 64), 0);
  for (std::size_t w = 0; w < n / 64; ++w) words_[w] = ~std::uint64_t{0};
  if (n % 64 != 0) words_[n / 64] = (std::uint64_t{1} << (n % 64)) - 1;
  build_fenwick();
}

void AliveSet::grow(std::size_t n) {
  const std::size_t need = (n + 63) / 64;
  if (need <= words_.size()) return;
  // The capacity is a power of two (or zero), so the next power of two
  // at or above `need` is a repeated doubling.
  words_.resize(std::bit_ceil(need), 0);
  build_fenwick();
}

void AliveSet::flip(NodeId v, bool present) {
  words_[v >> 6] ^= std::uint64_t{1} << (v & 63);
  const std::size_t cap = words_.size();
  for (std::size_t i = (v >> 6) + 1; i <= cap; i += i & -i) {
    if (present) {
      ++fenwick_[i];
    } else {
      --fenwick_[i];
    }
  }
  if (present) {
    ++count_;
  } else {
    --count_;
  }
}

void AliveSet::build_fenwick() {
  // Linear build: each entry pushes its finished sum to its parent. The
  // pushes run up to the capacity, not the last populated word, so the
  // entries covering empty words still carry their left siblings' sums.
  const std::size_t cap = words_.size();
  fenwick_.assign(cap + 1, 0);
  for (std::size_t i = 1; i <= cap; ++i) {
    fenwick_[i] += static_cast<std::uint32_t>(std::popcount(words_[i - 1]));
    const std::size_t parent = i + (i & -i);
    if (parent <= cap) fenwick_[parent] += fenwick_[i];
  }
}

NodeId AliveSet::kth(std::size_t r) const {
  DASH_CHECK_MSG(r < count_, "alive rank out of range");
  // Fenwick descent to the word holding the r-th member. The capacity
  // is a power of two and its root entry holds the full count, which r
  // is below, so the descent starts one level down; each level takes
  // its step or not with masks instead of a branch.
  const std::size_t cap = words_.size();
  std::size_t word = 0;
  for (std::size_t step = cap >> 1; step != 0; step >>= 1) {
    const std::size_t count = fenwick_[word + step];
    const std::size_t take = std::size_t{0} - (count <= r);
    word += step & take;
    r -= count & take;
  }
  return static_cast<NodeId>(word * 64 + select_in_word(words_[word], r));
}

}  // namespace dash::graph

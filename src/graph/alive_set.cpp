#include "graph/alive_set.h"

#include "util/check.h"

namespace dash::graph {

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
  // Fenwick descent to the word holding the r-th member; the capacity
  // is a power of two, so the step halves from it.
  const std::size_t cap = words_.size();
  std::size_t word = 0;
  for (std::size_t step = cap; step != 0; step >>= 1) {
    if (word + step <= cap && fenwick_[word + step] <= r) {
      word += step;
      r -= fenwick_[word];
    }
  }
  // Select the r-th set bit inside the word by halving on popcounts.
  std::uint64_t bits = words_[word];
  unsigned pos = 0;
  for (unsigned width = 32; width != 0; width >>= 1) {
    const std::uint64_t low = bits & ((std::uint64_t{1} << width) - 1);
    const auto in_low = static_cast<std::size_t>(std::popcount(low));
    if (r >= in_low) {
      r -= in_low;
      bits >>= width;
      pos += width;
    } else {
      bits = low;
    }
  }
  return static_cast<NodeId>(word * 64 + pos);
}

}  // namespace dash::graph

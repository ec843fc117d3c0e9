#include "graph/sample.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>

namespace dash::graph {

namespace {

/// Open-addressing map from Fisher-Yates positions to the ranks parked
/// there; a position it does not hold still holds its own rank. Sized
/// for at most `entries` inserts at load <= 1/2. Small samples (every
/// churn and join draw) probe a stack table, so they allocate nothing.
class SwapMap {
 public:
  explicit SwapMap(std::size_t entries) {
    const std::size_t size =
        std::bit_ceil(std::max<std::size_t>(2 * entries, kInline));
    if (size == kInline) {
      slots_ = inline_;
    } else {
      heap_.resize(size);
      slots_ = heap_;
    }
    std::fill(slots_.begin(), slots_.end(), Slot{kEmpty, 0});
    shift_ = 64 - std::countr_zero(size);
  }
  SwapMap(const SwapMap&) = delete;
  SwapMap& operator=(const SwapMap&) = delete;

  std::uint64_t get(std::uint64_t pos) const {
    const Slot& s = slots_[find(pos)];
    return s.pos == kEmpty ? pos : s.rank;
  }

  void set(std::uint64_t pos, std::uint64_t rank) {
    slots_[find(pos)] = {pos, rank};
  }

 private:
  struct Slot {
    std::uint64_t pos;
    std::uint64_t rank;
  };
  static constexpr std::size_t kInline = 16;
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// The slot holding pos, or the empty slot where it would go.
  std::size_t find(std::uint64_t pos) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>((pos * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (slots_[i].pos != pos && slots_[i].pos != kEmpty) {
      i = (i + 1) & mask;
    }
    return i;
  }

  std::array<Slot, kInline> inline_{};
  std::vector<Slot> heap_;
  std::span<Slot> slots_;
  int shift_ = 0;
};

}  // namespace

std::vector<NodeId> sample_alive(const Graph& g, dash::util::Rng& rng,
                                 std::size_t k) {
  const std::uint64_t n = g.num_alive();
  const std::size_t take =
      static_cast<std::size_t>(std::min<std::uint64_t>(k, n));
  std::vector<NodeId> out;
  out.reserve(take);
  if (take == 0) return out;
  SwapMap parked(take);
  for (std::size_t i = 0; i < take; ++i) {
    const std::uint64_t j = i + rng.below(n - i);
    out.push_back(g.kth_alive(static_cast<std::size_t>(parked.get(j))));
    // Position i is spent; j now holds what i held.
    if (j != i) parked.set(j, parked.get(i));
  }
  return out;
}

}  // namespace dash::graph

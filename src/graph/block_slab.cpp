#include "graph/block_slab.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace dash::graph {

std::uint32_t BlockSlab::alloc_block(std::uint32_t cap) {
  const auto cls = static_cast<std::size_t>(std::countr_zero(cap));
  if (cls < free_lists_.size() && !free_lists_[cls].empty()) {
    const std::uint32_t offset = free_lists_[cls].back();
    free_lists_[cls].pop_back();
    free_entries_ -= cap;
    return offset;
  }
  const std::size_t offset = slab_.size();
  DASH_CHECK_MSG(offset + cap <= 0xFFFFFFFFu, "neighbor slab overflow");
  slab_.resize(offset + cap);
  return static_cast<std::uint32_t>(offset);
}

void BlockSlab::free_block(std::uint32_t offset, std::uint32_t cap) {
  const auto cls = static_cast<std::size_t>(std::countr_zero(cap));
  if (free_lists_.size() <= cls) free_lists_.resize(cls + 1);
  free_lists_[cls].push_back(offset);
  free_entries_ += cap;
}

void BlockSlab::grow_insert(NodeId v, std::uint32_t idx, NodeId x) {
  const std::uint32_t old_off = offset_[v];
  const std::uint32_t old_cap = capacity_[v];
  const std::uint32_t new_cap = old_cap == 0 ? 2 : old_cap * 2;
  const std::uint32_t new_off = alloc_block(new_cap);  // may move slab_
  NodeId* src = slab_.data() + old_off;
  NodeId* dst = slab_.data() + new_off;
  std::copy(src, src + idx, dst);
  dst[idx] = x;
  std::copy(src + idx, src + old_cap, dst + idx + 1);
  if (old_cap != 0) free_block(old_off, old_cap);
  offset_[v] = new_off;
  capacity_[v] = new_cap;
  size_[v] = old_cap + 1;
}

std::uint32_t BlockSlab::sort_unique(NodeId v) {
  NodeId* block = slab_.data() + offset_[v];
  std::sort(block, block + size_[v]);
  size_[v] = static_cast<std::uint32_t>(
      std::unique(block, block + size_[v]) - block);
  return size_[v];
}

void BlockSlab::release(NodeId v) {
  if (capacity_[v] != 0) {
    free_block(offset_[v], capacity_[v]);
    offset_[v] = 0;
    capacity_[v] = 0;
  }
  size_[v] = 0;
}

void BlockSlab::pack(std::span<const std::uint32_t> counts) {
  const std::size_t n = counts.size();
  offset_.resize(n);
  size_.assign(n, 0);
  capacity_.resize(n);
  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t cap =
        counts[v] == 0 ? 0 : std::bit_ceil(std::max(counts[v], 2u));
    DASH_CHECK_MSG(total + cap <= 0xFFFFFFFFu, "neighbor slab overflow");
    offset_[v] = static_cast<std::uint32_t>(total);
    capacity_[v] = cap;
    total += cap;
  }
  // Reserve the room doubling growth would have left, so the first
  // block that outgrows its own extends the slab without moving it;
  // capacity never touched is not resident.
  slab_.clear();
  if (total != 0) slab_.reserve(std::bit_ceil(total));
  slab_.resize(total);
  free_lists_.clear();
  free_entries_ = 0;
}

bool BlockSlab::operator==(const BlockSlab& other) const {
  if (num_lists() != other.num_lists()) return false;
  for (NodeId v = 0; v < num_lists(); ++v) {
    const auto mine = list(v);
    if (!std::ranges::equal(mine, other.list(v))) return false;
  }
  return true;
}

}  // namespace dash::graph

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

void BlockSlab::release(NodeId v) {
  if (capacity_[v] != 0) {
    free_block(offset_[v], capacity_[v]);
    offset_[v] = 0;
    capacity_[v] = 0;
  }
  size_[v] = 0;
}

bool BlockSlab::reserve(NodeId v, std::size_t expected) {
  if (expected <= capacity_[v]) return false;
  const auto new_cap = static_cast<std::uint32_t>(
      std::bit_ceil(std::max<std::size_t>(expected, 2)));
  const std::uint32_t old_off = offset_[v];
  const std::uint32_t old_cap = capacity_[v];
  const std::uint32_t new_off = alloc_block(new_cap);  // may move slab_
  std::copy(slab_.begin() + old_off, slab_.begin() + old_off + size_[v],
            slab_.begin() + new_off);
  if (old_cap != 0) free_block(old_off, old_cap);
  offset_[v] = new_off;
  capacity_[v] = new_cap;
  return true;
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

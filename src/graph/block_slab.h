// block_slab.h -- one variable-length NodeId list per id, packed into a
// single shared slab: the storage under Graph's adjacency (graph.h) and
// HealingState's healing graph G' (core/healing_state.h).
//
// Every list owns one contiguous block {offset, size, capacity} inside
// one NodeId slab. Capacities are powers of two (0 means no block yet);
// a full block moves to one of twice the capacity, and released or
// outgrown blocks park on per-class free lists until an allocation of
// the same class takes them back (LIFO, so reuse is deterministic and
// cache-warm). Once the slab and its free lists have reached a
// workload's working size, churn only moves blocks between lists and
// calls no allocator: a million lists are three flat descriptor arrays
// and one slab, not a million vectors. A bulk build (pack) lays every
// block out at once, in id order, and leaves no free block.
//
// The slab imposes no order of its own: insert_at and erase_at shift a
// block's tail inside the block. Graph inserts at the sorted position
// and keeps sorted blocks; G' appends and so keeps insertion order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace dash::graph {

class BlockSlab {
 public:
  /// n empty lists, ids 0..n-1. Allocates no block.
  explicit BlockSlab(std::size_t n = 0)
      : offset_(n, 0), size_(n, 0), capacity_(n, 0) {}

  /// Number of lists (one per id).
  std::size_t num_lists() const { return size_.size(); }

  /// Append one empty list; its id is the old num_lists().
  void add_list() {
    offset_.push_back(0);
    size_.push_back(0);
    capacity_.push_back(0);
  }

  /// Lay every list out afresh: list v gets an empty block with room
  /// for counts[v] entries (the capacity doubling would reach, none for
  /// 0), all blocks back to back in id order and no free block left.
  void pack(std::span<const std::uint32_t> counts);

  /// v's entries: a view into the slab, valid until the next call that
  /// grows a block (insert_at, push_back, pack).
  std::span<const NodeId> list(NodeId v) const {
    return {slab_.data() + offset_[v], size_[v]};
  }
  std::uint32_t size(NodeId v) const { return size_[v]; }

  /// Insert x before entry idx (idx <= size(v)), doubling v's block
  /// when it is full.
  void insert_at(NodeId v, std::uint32_t idx, NodeId x) {
    const std::uint32_t size = size_[v];
    if (size == capacity_[v]) {
      grow_insert(v, idx, x);
      return;
    }
    NodeId* block = slab_.data() + offset_[v];
    std::copy_backward(block + idx, block + size, block + size + 1);
    block[idx] = x;
    size_[v] = size + 1;
  }
  void push_back(NodeId v, NodeId x) { insert_at(v, size_[v], x); }
  /// Remove entry idx; the entries after it keep their order.
  void erase_at(NodeId v, std::uint32_t idx) {
    NodeId* block = slab_.data() + offset_[v];
    std::copy(block + idx + 1, block + size_[v], block + idx);
    --size_[v];
  }
  /// Sort v's entries ascending and drop repeats; returns the new size.
  std::uint32_t sort_unique(NodeId v);
  /// Empty v's list and return its block to the free lists.
  void release(NodeId v);

  /// Equal lists, entry for entry; the slab layout is not compared.
  bool operator==(const BlockSlab& other) const;

  // ---- raw layout (FlatView mirrors it) -------------------------------

  const std::vector<std::uint32_t>& offsets() const { return offset_; }
  const std::vector<std::uint32_t>& sizes() const { return size_; }
  const std::vector<NodeId>& entries() const { return slab_; }

  /// Total slab entries (live blocks + recycled free blocks).
  std::size_t slab_size() const { return slab_.size(); }
  /// Entries currently parked on the per-class free lists.
  std::size_t free_entries() const { return free_entries_; }

 private:
  /// insert_at into a full block: move v to a block of twice the
  /// capacity, copying around the insertion hole.
  void grow_insert(NodeId v, std::uint32_t idx, NodeId x);
  /// Pop a block of `cap` (power of two) entries from the free list or
  /// extend the slab. Returns the block's offset.
  std::uint32_t alloc_block(std::uint32_t cap);
  void free_block(std::uint32_t offset, std::uint32_t cap);

  // SoA per-list block descriptors. capacity_ is 0 (no block yet) or a
  // power of two >= 2.
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> capacity_;
  std::vector<NodeId> slab_;
  /// Free blocks per power-of-two class: free_lists_[k] holds offsets
  /// of recycled blocks with capacity 1<<k.
  std::vector<std::vector<std::uint32_t>> free_lists_;
  std::size_t free_entries_ = 0;
};

}  // namespace dash::graph

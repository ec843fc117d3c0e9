#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "util/check.h"

namespace dash::graph {

namespace {
std::uint64_t next_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Graph::Graph(std::size_t n)
    : offset_(n, 0),
      degree_(n, 0),
      capacity_(n, 0),
      alive_(n),
      uid_(next_uid()) {}

Graph::Graph(const Graph& other)
    : offset_(other.offset_),
      degree_(other.degree_),
      capacity_(other.capacity_),
      slab_(other.slab_),
      free_lists_(other.free_lists_),
      free_entries_(other.free_entries_),
      alive_(other.alive_),
      edge_count_(other.edge_count_),
      generation_(other.generation_),
      uid_(next_uid()),
      touched_(other.touched_),
      touched_base_(other.touched_base_),
      view_(other.view_) {}  // degree_tree_ starts empty: rebuilt on demand

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  Graph copy(other);  // fresh uid
  *this = std::move(copy);
  return *this;
}

void Graph::touch(NodeId v) {
  // Compact by dropping the whole retained window once it outgrows ~2n:
  // consumers further behind than that would take the full-rebuild
  // fallback anyway, and the bound keeps log memory O(n) under
  // unbounded churn.
  if (touched_.size() >= std::max<std::size_t>(256, 2 * degree_.size())) {
    touched_base_ += touched_.size();
    touched_.clear();
  }
  touched_.push_back(v);
}

NodeId Graph::add_node() {
  const NodeId v = static_cast<NodeId>(degree_.size());
  offset_.push_back(0);
  degree_.push_back(0);
  capacity_.push_back(0);
  alive_.grow(degree_.size());
  alive_.insert(v);
  ++generation_;
  touch(v);
  return v;
}

std::uint32_t Graph::alloc_block(std::uint32_t cap) {
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

void Graph::free_block(std::uint32_t offset, std::uint32_t cap) {
  const auto cls = static_cast<std::size_t>(std::countr_zero(cap));
  if (free_lists_.size() <= cls) free_lists_.resize(cls + 1);
  free_lists_[cls].push_back(offset);
  free_entries_ += cap;
}

void Graph::regrow(NodeId v, std::uint32_t new_cap) {
  const std::uint32_t old_off = offset_[v];
  const std::uint32_t old_cap = capacity_[v];
  const std::uint32_t new_off = alloc_block(new_cap);  // may move slab_
  std::copy(slab_.begin() + old_off, slab_.begin() + old_off + degree_[v],
            slab_.begin() + new_off);
  if (old_cap != 0) free_block(old_off, old_cap);
  offset_[v] = new_off;
  capacity_[v] = new_cap;
}

bool Graph::block_insert(NodeId v, NodeId x) {
  const std::uint32_t deg = degree_[v];
  const NodeId* base = slab_.data() + offset_[v];
  const std::uint32_t idx = static_cast<std::uint32_t>(
      std::lower_bound(base, base + deg, x) - base);
  if (idx < deg && base[idx] == x) return false;
  if (deg == capacity_[v]) {
    // Grow to the doubled block, copying around an insertion hole.
    const std::uint32_t old_off = offset_[v];
    const std::uint32_t old_cap = capacity_[v];
    const std::uint32_t new_cap = old_cap == 0 ? 2 : old_cap * 2;
    const std::uint32_t new_off = alloc_block(new_cap);  // may move slab_
    NodeId* src = slab_.data() + old_off;
    NodeId* dst = slab_.data() + new_off;
    std::copy(src, src + idx, dst);
    dst[idx] = x;
    std::copy(src + idx, src + deg, dst + idx + 1);
    if (old_cap != 0) free_block(old_off, old_cap);
    offset_[v] = new_off;
    capacity_[v] = new_cap;
  } else {
    NodeId* block = slab_.data() + offset_[v];
    std::copy_backward(block + idx, block + deg, block + deg + 1);
    block[idx] = x;
  }
  degree_[v] = deg + 1;
  return true;
}

bool Graph::block_erase(NodeId v, NodeId x) {
  const std::uint32_t deg = degree_[v];
  NodeId* base = slab_.data() + offset_[v];
  const std::uint32_t idx = static_cast<std::uint32_t>(
      std::lower_bound(base, base + deg, x) - base);
  if (idx == deg || base[idx] != x) return false;
  std::copy(base + idx + 1, base + deg, base + idx);
  degree_[v] = deg - 1;
  return true;
}

bool Graph::add_edge(NodeId a, NodeId b) {
  check_alive(a);
  check_alive(b);
  DASH_CHECK_MSG(a != b, "self-loops are not representable");
  if (!block_insert(a, b)) return false;
  block_insert(b, a);
  ++edge_count_;
  ++generation_;
  touch(a);
  touch(b);
  return true;
}

bool Graph::remove_edge(NodeId a, NodeId b) {
  check_alive(a);
  check_alive(b);
  if (!block_erase(a, b)) return false;
  block_erase(b, a);
  --edge_count_;
  ++generation_;
  touch(a);
  touch(b);
  return true;
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  DASH_CHECK(a < degree_.size() && b < degree_.size());
  if (!alive(a) || !alive(b)) return false;
  const NodeId* base = slab_.data() + offset_[a];
  return std::binary_search(base, base + degree_[a], b);
}

std::vector<NodeId> Graph::delete_node(NodeId v) {
  check_alive(v);
  const NodeId* base = slab_.data() + offset_[v];
  std::vector<NodeId> former_neighbors(base, base + degree_[v]);
  for (NodeId u : former_neighbors) {
    block_erase(u, v);
    touch(u);
  }
  if (capacity_[v] != 0) {
    free_block(offset_[v], capacity_[v]);
    offset_[v] = 0;
    capacity_[v] = 0;
  }
  degree_[v] = 0;
  edge_count_ -= former_neighbors.size();
  alive_.erase(v);
  ++generation_;
  touch(v);
  return former_neighbors;
}

void Graph::reserve_neighbors(NodeId v, std::size_t expected) {
  check_alive(v);
  if (expected <= capacity_[v]) return;
  const std::uint32_t new_cap = static_cast<std::uint32_t>(
      std::bit_ceil(std::max<std::size_t>(expected, 2)));
  regrow(v, new_cap);
  // No generation bump (topology is unchanged), but the block moved, so
  // delta-patching consumers must re-mirror v's descriptor.
  touch(v);
}

const FlatView& Graph::flat_view() const {
  if (!view_.matches(generation_)) view_.refresh(*this);
  return view_;
}

NodeId Graph::argmax_degree() const {
  sync_degree_tree();
  const std::uint64_t top = degree_tree_[1];
  return top == 0 ? kInvalidNode : static_cast<NodeId>(~top);
}

void Graph::sync_degree_tree() const {
  const auto key = [this](NodeId v) -> std::uint64_t {
    if (!alive(v)) return 0;
    return ((std::uint64_t{degree_[v]} + 1) << 32) | static_cast<NodeId>(~v);
  };
  const std::size_t n = degree_.size();
  const std::size_t leaves = degree_tree_.size() / 2;
  const std::uint64_t window = touched_end() - degree_tree_seq_;
  // Rebuild when the tree is absent (first call, a copy), outgrown, or
  // behind the compacted log, or when patching would cost more: a
  // patch walks up to log2(leaves) levels per logged vertex, a rebuild
  // about two steps per leaf.
  if (leaves < std::max<std::size_t>(n, 1) ||
      degree_tree_seq_ < touched_base_ ||
      window * std::bit_width(leaves) > 2 * leaves) {
    const std::size_t size = std::bit_ceil(std::max<std::size_t>(n, 1));
    degree_tree_.assign(2 * size, 0);
    for (NodeId v = 0; v < n; ++v) degree_tree_[size + v] = key(v);
    for (std::size_t i = size - 1; i != 0; --i) {
      degree_tree_[i] = std::max(degree_tree_[2 * i], degree_tree_[2 * i + 1]);
    }
  } else {
    for (std::size_t e = static_cast<std::size_t>(degree_tree_seq_ -
                                                  touched_base_);
         e < touched_.size(); ++e) {
      const NodeId v = touched_[e];
      const std::uint64_t k = key(v);
      std::size_t i = leaves + v;
      if (degree_tree_[i] == k) continue;  // a repeat, or no change
      degree_tree_[i] = k;
      // Walk up until an ancestor's max comes out unchanged.
      for (i >>= 1; i != 0; i >>= 1) {
        const std::uint64_t best =
            std::max(degree_tree_[2 * i], degree_tree_[2 * i + 1]);
        if (degree_tree_[i] == best) break;
        degree_tree_[i] = best;
      }
    }
  }
  degree_tree_seq_ = touched_end();
}

std::vector<NodeId> Graph::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(alive_.size());
  for (const NodeId v : alive_) out.push_back(v);
  return out;
}

bool Graph::same_topology(const Graph& other) const {
  if (num_nodes() != other.num_nodes()) return false;
  const NodeId n = static_cast<NodeId>(degree_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (alive(v) != other.alive(v)) return false;
    if (!alive(v)) continue;
    if (degree_[v] != other.degree_[v]) return false;
    const NodeId* mine = slab_.data() + offset_[v];
    const NodeId* theirs = other.slab_.data() + other.offset_[v];
    if (!std::equal(mine, mine + degree_[v], theirs)) return false;
  }
  return true;
}

}  // namespace dash::graph

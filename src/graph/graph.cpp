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
      alive_words_(std::bit_ceil(std::max<std::size_t>(1, (n + 63) / 64)),
                   0),
      alive_count_(n),
      uid_(next_uid()) {
  for (std::size_t w = 0; w < n / 64; ++w) alive_words_[w] = ~std::uint64_t{0};
  if (n % 64 != 0) alive_words_[n / 64] = (std::uint64_t{1} << (n % 64)) - 1;
  build_alive_fenwick();
}

Graph::Graph(const Graph& other)
    : offset_(other.offset_),
      degree_(other.degree_),
      capacity_(other.capacity_),
      slab_(other.slab_),
      free_lists_(other.free_lists_),
      free_entries_(other.free_entries_),
      alive_words_(other.alive_words_),
      alive_fenwick_(other.alive_fenwick_),
      alive_count_(other.alive_count_),
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

void Graph::check_alive(NodeId v) const {
  DASH_CHECK_MSG(v < degree_.size(), "node id out of range");
  DASH_CHECK_MSG(alive(v), "operation on deleted node");
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

void Graph::set_alive(NodeId v, bool alive) {
  alive_words_[v >> 6] ^= std::uint64_t{1} << (v & 63);
  const std::size_t cap = alive_words_.size();
  for (std::size_t i = (v >> 6) + 1; i <= cap; i += i & -i) {
    if (alive) {
      ++alive_fenwick_[i];
    } else {
      --alive_fenwick_[i];
    }
  }
}

void Graph::build_alive_fenwick() {
  // Linear build: each entry pushes its finished sum to its parent. The
  // pushes run up to the capacity, not the last populated word, so the
  // entries covering empty words still carry their left siblings' sums.
  const std::size_t cap = alive_words_.size();
  alive_fenwick_.assign(cap + 1, 0);
  for (std::size_t i = 1; i <= cap; ++i) {
    alive_fenwick_[i] +=
        static_cast<std::uint32_t>(std::popcount(alive_words_[i - 1]));
    const std::size_t parent = i + (i & -i);
    if (parent <= cap) alive_fenwick_[parent] += alive_fenwick_[i];
  }
}

NodeId Graph::add_node() {
  const NodeId v = static_cast<NodeId>(degree_.size());
  offset_.push_back(0);
  degree_.push_back(0);
  capacity_.push_back(0);
  if ((v >> 6) >= alive_words_.size()) {
    // Double the capacity (from one word in a moved-from graph).
    alive_words_.resize(std::max<std::size_t>(1, 2 * alive_words_.size()), 0);
    build_alive_fenwick();
  }
  set_alive(v, true);
  ++alive_count_;
  ++generation_;
  touch(v);
  return v;
}

NodeId Graph::kth_alive(std::size_t r) const {
  DASH_CHECK_MSG(r < alive_count_, "alive rank out of range");
  // Fenwick descent to the word holding the r-th alive bit; the
  // capacity is a power of two, so the step halves from it.
  const std::size_t cap = alive_words_.size();
  std::size_t word = 0;
  for (std::size_t step = cap; step != 0; step >>= 1) {
    if (word + step <= cap && alive_fenwick_[word + step] <= r) {
      word += step;
      r -= alive_fenwick_[word];
    }
  }
  // Select the r-th set bit inside the word by halving on popcounts.
  std::uint64_t bits = alive_words_[word];
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
  set_alive(v, false);
  --alive_count_;
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
  out.reserve(alive_count_);
  for (std::size_t w = 0; w < alive_words_.size(); ++w) {
    for (std::uint64_t bits = alive_words_[w]; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<NodeId>(w * 64 + std::countr_zero(bits)));
    }
  }
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

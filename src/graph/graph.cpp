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

/// Retained touched-log entries past which touch() compacts: ~2n.
std::size_t touched_cap(std::size_t n) {
  return std::max<std::size_t>(256, 2 * n);
}
}  // namespace

Graph::Graph(std::size_t n) : slab_(n), alive_(n), uid_(next_uid()) {}

Graph Graph::from_edges(std::size_t n, std::span<const NodeId> endpoints) {
  DASH_CHECK_MSG(endpoints.size() % 2 == 0, "edge list needs two ids per edge");
  std::vector<std::uint32_t> count(n, 0);
  for (std::size_t i = 0; i < endpoints.size(); i += 2) {
    const NodeId a = endpoints[i];
    const NodeId b = endpoints[i + 1];
    DASH_CHECK_MSG(a < n && b < n, "node id out of range");
    DASH_CHECK_MSG(a != b, "self-loops are not representable");
    ++count[a];
    ++count[b];
  }
  Graph g(n);
  g.slab_.pack(count);
  for (std::size_t i = 0; i < endpoints.size(); i += 2) {
    g.slab_.push_back(endpoints[i], endpoints[i + 1]);
    g.slab_.push_back(endpoints[i + 1], endpoints[i]);
  }
  std::size_t entries = 0;
  for (NodeId v = 0; v < n; ++v) entries += g.slab_.sort_unique(v);
  g.edge_count_ = entries / 2;
  // The log fills to its cap before it first compacts; an edge-by-edge
  // build leaves it that large, and so does this reservation, instead
  // of regrowing it by doubling through the first events.
  g.touched_.reserve(touched_cap(n));
  return g;
}

Graph::Graph(const Graph& other)
    : slab_(other.slab_),
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
  // Compact by dropping the older half of the retained window once it
  // reaches ~2n: a consumer synced within the newer half can still
  // patch, moving the half costs O(1) amortized per touch, and the
  // bound keeps log memory O(n) under unbounded churn.
  if (touched_.size() >= touched_cap(num_nodes())) {
    const std::size_t dropped = touched_.size() - touched_.size() / 2;
    touched_base_ += dropped;
    touched_.erase(touched_.begin(),
                   touched_.begin() + static_cast<std::ptrdiff_t>(dropped));
  }
  touched_.push_back(v);
}

NodeId Graph::add_node() {
  const NodeId v = static_cast<NodeId>(num_nodes());
  slab_.add_list();
  alive_.grow(num_nodes());
  alive_.insert(v);
  ++generation_;
  touch(v);
  return v;
}

bool Graph::block_insert(NodeId v, NodeId x) {
  const auto block = slab_.list(v);
  const auto at = std::lower_bound(block.begin(), block.end(), x);
  if (at != block.end() && *at == x) return false;
  slab_.insert_at(v, static_cast<std::uint32_t>(at - block.begin()), x);
  return true;
}

bool Graph::block_erase(NodeId v, NodeId x) {
  const auto block = slab_.list(v);
  const auto at = std::lower_bound(block.begin(), block.end(), x);
  if (at == block.end() || *at != x) return false;
  slab_.erase_at(v, static_cast<std::uint32_t>(at - block.begin()));
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
  DASH_CHECK(a < num_nodes() && b < num_nodes());
  if (!alive(a) || !alive(b)) return false;
  const auto block = slab_.list(a);
  return std::binary_search(block.begin(), block.end(), b);
}

void Graph::delete_node(NodeId v, std::vector<NodeId>& former_neighbors) {
  check_alive(v);
  const auto block = slab_.list(v);
  former_neighbors.assign(block.begin(), block.end());
  for (NodeId u : former_neighbors) {
    block_erase(u, v);
    touch(u);
  }
  slab_.release(v);
  edge_count_ -= former_neighbors.size();
  alive_.erase(v);
  ++generation_;
  touch(v);
}

std::vector<NodeId> Graph::delete_node(NodeId v) {
  std::vector<NodeId> former_neighbors;
  delete_node(v, former_neighbors);
  return former_neighbors;
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
    return ((std::uint64_t{slab_.size(v)} + 1) << 32) | static_cast<NodeId>(~v);
  };
  const std::size_t n = num_nodes();
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
  const NodeId n = static_cast<NodeId>(num_nodes());
  for (NodeId v = 0; v < n; ++v) {
    if (alive(v) != other.alive(v)) return false;
    if (!alive(v)) continue;
    if (!std::ranges::equal(slab_.list(v), other.slab_.list(v))) return false;
  }
  return true;
}

}  // namespace dash::graph

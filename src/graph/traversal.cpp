#include "graph/traversal.h"

#include <algorithm>
#include <cstring>

namespace dash::graph {

void TraversalScratch::begin(std::size_t n) {
  if (stamp_.size() < n) {
    stamp_.resize(n, 0);
    dist_.resize(n);
    // One slot of slack: the branchless top-down loop stores
    // queue[tail] unconditionally, so a stale edge check after the
    // final node is discovered touches (but never keeps) index n.
    frontier_.resize(n + 1);
    frontier_bits_.resize((n + 63) / 64, 0);
    unvisited_.resize(n);
  }
  if (++epoch_ == 0) {
    // The 8-bit epoch wrapped: one wholesale clear every 255
    // traversals, O(n)/255 amortized per call.
    std::fill(stamp_.begin(), stamp_.end(), std::uint8_t{0});
    epoch_ = 1;
  }
  visited_count_ = 0;
}

// ---- flat engine -----------------------------------------------------

std::size_t bfs_distances(const FlatView& view, NodeId src,
                          TraversalScratch& scratch) {
  scratch.begin(view.num_nodes());
  auto* dist = scratch.dist_.data();
  auto* stamp = scratch.stamp_.data();
  auto* queue = scratch.frontier_.data();
  const std::uint8_t epoch = scratch.epoch_;

  // Level-synchronous, direction-optimizing loop (Beamer's hybrid):
  // sparse frontiers expand top-down (scan the frontier's adjacency,
  // one byte-sized random load per edge); once the frontier holds more
  // than a quarter of the unvisited remainder -- the dense middle
  // levels of a small-diameter graph, where almost every top-down
  // check hits an already-visited node -- the level flips bottom-up:
  // sweep the still-unvisited ids and stop at the first neighbor on
  // the frontier. Frontier membership is a bitmap (n/8 bytes,
  // L1-resident; each level clears exactly the bits it set), and the
  // candidates come from a compacting pool of unvisited alive ids, so
  // consecutive bottom-up levels only touch the shrinking remainder.
  // Either way each level appends its nodes to the queue, so distances
  // are exact and visit order stays nondecreasing in depth.
  std::size_t tail = 0;
  stamp[src] = epoch;
  dist[src] = 0;
  queue[tail++] = src;
  std::size_t level_start = 0;
  std::uint32_t depth = 0;
  std::size_t unvisited = view.num_alive() - 1;
  auto* pool = scratch.unvisited_.data();
  std::size_t pool_size = 0;
  bool pool_ready = false;
  while (level_start < tail) {
    const std::size_t level_end = tail;
    const std::uint32_t child_depth = depth + 1;
    if (level_end - level_start > unvisited / 4) {
      auto* bits = scratch.frontier_bits_.data();
      for (std::size_t i = level_start; i < level_end; ++i) {
        const NodeId v = queue[i];
        bits[v >> 6] |= std::uint64_t{1} << (v & 63);
      }
      const auto probe = [&](NodeId u) {
        for (NodeId w : view.neighbors(u)) {
          if ((bits[w >> 6] >> (w & 63)) & 1) {
            stamp[u] = epoch;
            dist[u] = child_depth;
            queue[tail++] = u;
            return true;
          }
        }
        return false;
      };
      std::size_t kept = 0;
      if (!pool_ready) {
        // First bottom-up level: build the pool and probe in one sweep.
        if (view.num_alive() == view.num_nodes()) {
          // Fully-alive graph: scan the stamps eight at a time (SWAR
          // zero-byte trick on stamp ^ epoch) so the majority-visited
          // entries cost one word load instead of one mispredicted
          // branch each; only genuinely unvisited ids reach probe().
          // Visit order matches the per-id loop below exactly.
          const std::uint64_t bcast = 0x0101010101010101ull * epoch;
          const std::size_t nwords = view.num_nodes() / 8;
          for (std::size_t wi = 0; wi < nwords; ++wi) {
            std::uint64_t x;
            std::memcpy(&x, stamp + wi * 8, 8);
            x ^= bcast;  // zero byte <=> visited this epoch
            std::uint64_t m = (((x | 0x8080808080808080ull) -
                                0x0101010101010101ull) |
                               x) &
                              0x8080808080808080ull;
            while (m) {
              const unsigned byte =
                  static_cast<unsigned>(__builtin_ctzll(m)) >> 3;
              m &= m - 1;
              const NodeId u = static_cast<NodeId>(wi * 8 + byte);
              if (!probe(u)) pool[kept++] = u;
            }
          }
          for (NodeId u = static_cast<NodeId>(nwords * 8);
               u < view.num_nodes(); ++u) {
            if (stamp[u] != epoch && !probe(u)) pool[kept++] = u;
          }
        } else {
          for (NodeId u : view.alive_set()) {
            if (stamp[u] == epoch) continue;
            if (!probe(u)) pool[kept++] = u;
          }
        }
        pool_ready = true;
      } else {
        for (std::size_t i = 0; i < pool_size; ++i) {
          const NodeId u = pool[i];
          if (stamp[u] == epoch) continue;  // settled top-down since
          if (!probe(u)) pool[kept++] = u;
        }
      }
      pool_size = kept;
      for (std::size_t i = level_start; i < level_end; ++i) {
        const NodeId v = queue[i];
        bits[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
      }
    } else {
      // Branchless discovery: top-down only runs on levels where a
      // large fraction of edge checks discover (the dense wasteful
      // levels flip bottom-up), which makes the "seen before?" branch
      // maximally unpredictable. Unconditional idempotent stores + a
      // cmov'd dist and a `tail += fresh` append trade a few extra
      // uops for zero mispredicts; discovery order is unchanged.
      for (std::size_t i = level_start; i < level_end; ++i) {
        for (NodeId u : view.neighbors(queue[i])) {
          const bool fresh = stamp[u] != epoch;
          stamp[u] = epoch;
          dist[u] = fresh ? child_depth : dist[u];
          queue[tail] = u;
          tail += fresh;
        }
      }
    }
    unvisited -= tail - level_end;
    if (unvisited == 0) break;  // nothing left to discover
    level_start = level_end;
    ++depth;
  }
  scratch.visited_count_ = tail;
  return tail;
}

bool is_connected(const FlatView& view, TraversalScratch& scratch) {
  const std::size_t alive = view.num_alive();
  if (alive <= 1) return true;
  return bfs_distances(view, view.kth_alive(0), scratch) == alive;
}

std::size_t Components::largest() const {
  if (sizes.empty()) return 0;
  return *std::max_element(sizes.begin(), sizes.end());
}

void connected_components(const FlatView& view, TraversalScratch& scratch,
                          Components& out) {
  const std::size_t n = view.num_nodes();
  out.label.assign(n, kInvalidComponent);
  out.sizes.clear();
  scratch.begin(n);  // only the frontier buffer is used here
  auto* queue = scratch.frontier_.data();
  for (NodeId root : view.alive_set()) {
    if (out.label[root] != kInvalidComponent) continue;
    const auto comp = static_cast<std::uint32_t>(out.sizes.size());
    std::size_t head = 0;
    std::size_t tail = 0;
    out.label[root] = comp;
    queue[tail++] = root;
    while (head < tail) {
      const NodeId v = queue[head++];
      for (NodeId u : view.neighbors(v)) {
        if (out.label[u] == kInvalidComponent) {
          out.label[u] = comp;
          queue[tail++] = u;
        }
      }
    }
    out.sizes.push_back(static_cast<std::uint32_t>(tail));
  }
}

std::uint32_t bfs_distance(const FlatView& view, NodeId src, NodeId dst,
                           TraversalScratch& scratch) {
  if (src == dst) return 0;
  scratch.begin(view.num_nodes());
  auto* dist = scratch.dist_.data();
  auto* stamp = scratch.stamp_.data();
  const std::uint8_t epoch = scratch.epoch_;

  // One search grows from each end, level by level, in its own queue
  // (the frontier and pool buffers, n entries each). A node belongs to
  // the side that reached it first; dist_ holds its depth from that
  // side's root, with the top bit naming the side. Until the searches
  // touch, each side's visited set is exactly the ball of its depth, so
  // the first edge from one side's level into a node the other side
  // holds closes a shortest path: every such edge in that level gives
  // the same length, and the search returns at the first.
  constexpr std::uint32_t kBackward = std::uint32_t{1} << 31;
  struct Side {
    NodeId* queue;
    std::uint32_t mark;
    std::size_t level_start = 0;
    std::size_t tail = 0;
    std::uint32_t depth = 0;
    std::size_t work = 0;  ///< adjacency entries of the current level
  };
  Side fwd{scratch.frontier_.data(), 0};
  Side bwd{scratch.unvisited_.data(), kBackward};
  const auto start = [&](Side& side, NodeId root) {
    stamp[root] = epoch;
    dist[root] = side.mark;
    side.queue[side.tail++] = root;
    side.work = view.degree(root);
  };
  start(fwd, src);
  start(bwd, dst);

  const std::uint32_t found = [&]() -> std::uint32_t {
    // A side whose level comes up empty has exhausted its component
    // without meeting the other: the endpoints are disconnected.
    while (fwd.level_start < fwd.tail && bwd.level_start < bwd.tail) {
      // Expand the side whose next level costs fewer edge checks.
      Side& side = fwd.work <= bwd.work ? fwd : bwd;
      const std::size_t level_end = side.tail;
      const std::uint32_t child_depth = side.depth + 1;
      std::size_t next_work = 0;
      for (std::size_t i = side.level_start; i < level_end; ++i) {
        for (NodeId u : view.neighbors(side.queue[i])) {
          if (stamp[u] != epoch) {
            stamp[u] = epoch;
            dist[u] = side.mark | child_depth;
            side.queue[side.tail++] = u;
            next_work += view.degree(u);
          } else if ((dist[u] & kBackward) != side.mark) {
            return child_depth + (dist[u] & ~kBackward);
          }
        }
      }
      side.level_start = level_end;
      side.depth = child_depth;
      side.work = next_work;
    }
    return kUnreachable;
  }();
  // The stamps mix both sides' depths: open a fresh epoch so the
  // scratch reads as if no traversal had run.
  scratch.begin(view.num_nodes());
  return found;
}

// ---- on the graph's cached view --------------------------------------

namespace {
/// One warm scratch per thread serves every Graph-taking call, so they
/// ride the zero-alloc engine too.
TraversalScratch& local_scratch() {
  thread_local TraversalScratch scratch;
  return scratch;
}
}  // namespace

bool is_connected(const Graph& g) {
  return is_connected(g.flat_view(), local_scratch());
}

Components connected_components(const Graph& g) {
  Components out;
  connected_components(g.flat_view(), local_scratch(), out);
  return out;
}

std::vector<std::uint32_t> all_pairs_distances(const Graph& g) {
  const std::size_t n = g.num_nodes();
  const FlatView& view = g.flat_view();
  TraversalScratch& scratch = local_scratch();
  std::vector<std::uint32_t> mat(n * n, kUnreachable);
  for (NodeId v : view.alive_set()) {
    bfs_distances(view, v, scratch);
    auto* row = mat.data() + static_cast<std::size_t>(v) * n;
    for (NodeId u : scratch.visited()) row[u] = scratch.distance(u);
  }
  return mat;
}

}  // namespace dash::graph

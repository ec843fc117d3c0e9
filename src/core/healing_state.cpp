#include "core/healing_state.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/check.h"

namespace dash::core {

HealingState::HealingState(const Graph& g, dash::util::Rng& rng) {
  const std::size_t n = g.num_nodes();
  initial_degree_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    DASH_CHECK_MSG(g.alive(v), "HealingState requires the time-0 graph");
    initial_degree_[v] = g.degree(v);
  }
  // Random permutation of 0..n-1 realizes the paper's "uniform random id
  // in [0,1]": distinct values with uniformly random relative order.
  initial_id_.resize(n);
  std::iota(initial_id_.begin(), initial_id_.end(), 0ULL);
  rng.shuffle(initial_id_);

  component_id_ = initial_id_;
  delta_.assign(n, 0);
  weight_.assign(n, 1);
  id_changes_.assign(n, 0);
  msgs_sent_.assign(n, 0);
  msgs_recv_.assign(n, 0);
  forest_adj_.assign(n, {});
  next_fresh_id_ = n;
}

NodeId HealingState::join_node(Graph& g,
                               const std::vector<NodeId>& attach_to) {
  DASH_CHECK_MSG(g.num_nodes() == initial_degree_.size(),
                 "state out of sync with graph");
  const NodeId v = g.add_node();
  for (NodeId u : attach_to) {
    const bool fresh = g.add_edge(v, u);
    DASH_CHECK_MSG(fresh, "duplicate attach target");
    // Organic growth shifts the target's baseline, not its delta.
    ++initial_degree_[u];
  }
  initial_degree_.push_back(attach_to.size());
  initial_id_.push_back(next_fresh_id_);
  component_id_.push_back(next_fresh_id_);
  ++next_fresh_id_;
  delta_.push_back(0);
  weight_.push_back(1);
  id_changes_.push_back(0);
  msgs_sent_.push_back(0);
  msgs_recv_.push_back(0);
  forest_adj_.emplace_back();
  return v;
}

std::int64_t HealingState::raw_degree_increase(const Graph& g,
                                               NodeId v) const {
  return static_cast<std::int64_t>(g.degree(v)) -
         static_cast<std::int64_t>(initial_degree_[v]);
}

std::int32_t HealingState::max_delta_alive(const Graph& g) const {
  std::int32_t best = 0;
  for (NodeId v = 0; v < delta_.size(); ++v) {
    if (g.alive(v)) best = std::max(best, delta_[v]);
  }
  return best;
}

std::uint32_t HealingState::max_id_changes() const {
  std::uint32_t best = 0;
  for (auto c : id_changes_) best = std::max(best, c);
  return best;
}

std::uint64_t HealingState::max_messages() const {
  std::uint64_t best = 0;
  for (NodeId v = 0; v < msgs_sent_.size(); ++v) {
    best = std::max(best, msgs_sent_[v] + msgs_recv_[v]);
  }
  return best;
}

std::uint64_t HealingState::max_messages_sent() const {
  std::uint64_t best = 0;
  for (auto s : msgs_sent_) best = std::max(best, s);
  return best;
}

bool HealingState::healing_graph_is_forest(const Graph& g) const {
  // BFS with parent tracking; a visited neighbor that is not the BFS
  // parent closes a cycle. E' edges to dead nodes were detached at
  // deletion time, so adjacency only references alive nodes.
  std::vector<char> visited(forest_adj_.size(), 0);
  std::deque<std::pair<NodeId, NodeId>> frontier;  // (node, parent)
  for (NodeId root = 0; root < forest_adj_.size(); ++root) {
    if (!g.alive(root) || visited[root]) continue;
    visited[root] = 1;
    frontier.emplace_back(root, graph::kInvalidNode);
    while (!frontier.empty()) {
      auto [v, parent] = frontier.front();
      frontier.pop_front();
      bool skipped_parent_edge = false;
      for (NodeId u : forest_adj_[v]) {
        if (u == parent && !skipped_parent_edge) {
          // Skip exactly one edge back to the parent (E' is simple, so
          // one occurrence).
          skipped_parent_edge = true;
          continue;
        }
        if (visited[u]) return false;
        visited[u] = 1;
        frontier.emplace_back(u, v);
      }
    }
  }
  return true;
}

std::vector<NodeId> HealingState::healing_component(const Graph& g,
                                                    NodeId v) const {
  DASH_CHECK(g.alive(v));
  std::vector<NodeId> comp;
  std::vector<char> visited(forest_adj_.size(), 0);
  std::deque<NodeId> frontier{v};
  visited[v] = 1;
  while (!frontier.empty()) {
    const NodeId x = frontier.front();
    frontier.pop_front();
    comp.push_back(x);
    for (NodeId u : forest_adj_[x]) {
      if (!visited[u]) {
        visited[u] = 1;
        frontier.push_back(u);
      }
    }
  }
  return comp;
}

std::uint64_t HealingState::rem(const Graph& g, NodeId v) const {
  DASH_CHECK(g.alive(v));
  // rem(v) = sum_u W(T(u,v)) - max_u W(T(u,v)) + w(v), over G'-neighbors
  // u of v, where T(u,v) is u's subtree when v is removed from its tree.
  std::uint64_t sum = 0;
  std::uint64_t largest = 0;
  std::vector<char> visited(forest_adj_.size(), 0);
  visited[v] = 1;
  for (NodeId u : forest_adj_[v]) {
    // Weight of u's side when the edge {v,u} is cut.
    std::uint64_t w_subtree = 0;
    std::deque<NodeId> frontier{u};
    DASH_CHECK_MSG(!visited[u], "rem() requires E' to be a forest");
    visited[u] = 1;
    while (!frontier.empty()) {
      const NodeId x = frontier.front();
      frontier.pop_front();
      w_subtree += weight_[x];
      for (NodeId y : forest_adj_[x]) {
        if (!visited[y]) {
          visited[y] = 1;
          frontier.push_back(y);
        }
      }
    }
    sum += w_subtree;
    largest = std::max(largest, w_subtree);
  }
  return sum - largest + weight_[v];
}

DeletionContext HealingState::begin_deletion(const Graph& g, NodeId v) {
  DASH_CHECK(g.alive(v));
  DeletionContext ctx;
  ctx.deleted = v;
  const auto nbrs = g.neighbors(v);
  ctx.neighbors_g.assign(nbrs.begin(), nbrs.end());
  ctx.forest_neighbors = forest_adj_[v];
  ctx.component_id = component_id_[v];
  ctx.weight = weight_[v];

  // Lemma 2's weight transfer: w(v) joins an arbitrary G'-neighbor; we
  // pick the one with the lowest initial id for determinism. A node with
  // no G'-neighbor donates to a G-neighbor so total weight is conserved
  // whenever any neighbor survives.
  const std::vector<NodeId>* heirs = &ctx.forest_neighbors;
  if (heirs->empty()) heirs = &ctx.neighbors_g;
  if (!heirs->empty()) {
    NodeId heir = (*heirs)[0];
    for (NodeId u : *heirs) {
      if (initial_id_[u] < initial_id_[heir]) heir = u;
    }
    weight_[heir] += weight_[v];
  }
  weight_[v] = 0;

  // Detach v from G'.
  for (NodeId u : forest_adj_[v]) {
    auto& adj = forest_adj_[u];
    adj.erase(std::remove(adj.begin(), adj.end(), v), adj.end());
    --healing_edges_;
  }
  forest_adj_[v].clear();

  // Every surviving neighbor is about to lose its edge to v: the
  // paper's delta is the *net* degree change, so charge the -1 now
  // (healing will add back +1 per reconstruction-tree edge).
  for (NodeId u : ctx.neighbors_g) {
    --delta_[u];
  }
  return ctx;
}

std::vector<NodeId> HealingState::unique_neighbors(
    const DeletionContext& ctx) const {
  // Partition N(v,G) by current component id, excluding v's own id;
  // representative = lowest *initial* id in the partition (Sec. 2.1).
  std::vector<NodeId> reps;
  for (NodeId u : ctx.neighbors_g) {
    if (component_id_[u] == ctx.component_id) continue;
    bool placed = false;
    for (NodeId& r : reps) {
      if (component_id_[r] == component_id_[u]) {
        if (initial_id_[u] < initial_id_[r]) r = u;
        placed = true;
        break;
      }
    }
    if (!placed) reps.push_back(u);
  }
  return reps;
}

std::vector<NodeId> HealingState::reconnection_set(
    const DeletionContext& ctx) const {
  std::vector<NodeId> s = unique_neighbors(ctx);
  // UN(v,G) and N(v,G') are disjoint: forest neighbors carry v's own
  // component id, which unique_neighbors excluded.
  s.insert(s.end(), ctx.forest_neighbors.begin(),
           ctx.forest_neighbors.end());
  sort_by_delta(s);
  return s;
}

void HealingState::sort_by_delta(std::vector<NodeId>& nodes) const {
  std::sort(nodes.begin(), nodes.end(), [this](NodeId a, NodeId b) {
    if (delta_[a] != delta_[b]) return delta_[a] < delta_[b];
    return initial_id_[a] < initial_id_[b];
  });
}

bool HealingState::add_healing_edge(Graph& g, NodeId a, NodeId b) {
  DASH_CHECK(a != b);
  const bool new_in_g = g.add_edge(a, b);
  if (new_in_g) {
    ++delta_[a];
    ++delta_[b];
    max_delta_ever_ = std::max({max_delta_ever_, delta_[a], delta_[b]});
  }
  // Record in E' unless this healing edge is already there (possible if
  // an earlier heal added it and the pair meets again).
  auto& adj = forest_adj_[a];
  if (std::find(adj.begin(), adj.end(), b) == adj.end()) {
    forest_adj_[a].push_back(b);
    forest_adj_[b].push_back(a);
    ++healing_edges_;
  }
  return new_in_g;
}

std::size_t HealingState::propagate_min_id(
    const Graph& g, const std::vector<NodeId>& seeds) {
  if (seeds.empty()) return 0;
  std::uint64_t min_id = component_id_[seeds.front()];
  for (NodeId s : seeds) min_id = std::min(min_id, component_id_[s]);

  // Each merged tree was uniformly labelled and holds a seed, so the
  // nodes whose id changes are exactly those reachable from a
  // non-minimum seed through non-minimum nodes. Relabelling a node as
  // it is reached doubles as the visited mark, and the walk never
  // enters the part of the merged tree that already holds the minimum.
  std::size_t changed = 0;
  std::vector<NodeId> frontier;
  const auto relabel = [&](NodeId x) {
    component_id_[x] = min_id;
    ++id_changes_[x];
    // Lemma 8: a node whose id changes broadcasts it to its G-neighbors.
    msgs_sent_[x] += g.degree(x);
    for (NodeId w : g.neighbors(x)) ++msgs_recv_[w];
    frontier.push_back(x);
    ++changed;
  };
  for (NodeId s : seeds) {
    if (component_id_[s] != min_id) relabel(s);
  }
  while (!frontier.empty()) {
    const NodeId x = frontier.back();
    frontier.pop_back();
    for (NodeId u : forest_adj_[x]) {
      if (component_id_[u] != min_id) relabel(u);
    }
  }
  return changed;
}

std::uint64_t HealingState::total_alive_weight(const Graph& g) const {
  std::uint64_t total = 0;
  for (NodeId v = 0; v < weight_.size(); ++v) {
    if (g.alive(v)) total += weight_[v];
  }
  return total;
}

// ---- checkpointing ----------------------------------------------------

namespace {
constexpr const char* kStateHeader = "dashheal-state-v1";

template <typename T>
void write_vector(std::ostream& out, const std::vector<T>& v) {
  out << v.size();
  for (const auto& x : v) out << ' ' << +x;
  out << '\n';
}

template <typename T>
std::vector<T> read_vector(std::istream& in) {
  std::size_t n = 0;
  if (!(in >> n)) throw std::runtime_error("state: bad vector length");
  std::vector<T> v(n);
  for (auto& x : v) {
    long long raw;
    if (!(in >> raw)) throw std::runtime_error("state: bad vector entry");
    x = static_cast<T>(raw);
  }
  return v;
}
}  // namespace

void HealingState::save(std::ostream& out) const {
  out << kStateHeader << '\n';
  out << initial_degree_.size() << ' ' << healing_edges_ << ' '
      << max_delta_ever_ << ' ' << next_fresh_id_ << '\n';
  write_vector(out, initial_degree_);
  write_vector(out, initial_id_);
  write_vector(out, component_id_);
  write_vector(out, delta_);
  write_vector(out, weight_);
  write_vector(out, id_changes_);
  write_vector(out, msgs_sent_);
  write_vector(out, msgs_recv_);
  for (const auto& adj : forest_adj_) write_vector(out, adj);
}

HealingState HealingState::load(std::istream& in) {
  std::string header;
  if (!(in >> header) || header != kStateHeader) {
    throw std::runtime_error("state: bad header");
  }
  HealingState st;
  std::size_t n = 0;
  long long max_delta = 0;
  if (!(in >> n >> st.healing_edges_ >> max_delta >> st.next_fresh_id_)) {
    throw std::runtime_error("state: bad counters");
  }
  st.max_delta_ever_ = static_cast<std::int32_t>(max_delta);
  st.initial_degree_ = read_vector<std::size_t>(in);
  st.initial_id_ = read_vector<std::uint64_t>(in);
  st.component_id_ = read_vector<std::uint64_t>(in);
  st.delta_ = read_vector<std::int32_t>(in);
  st.weight_ = read_vector<std::uint64_t>(in);
  st.id_changes_ = read_vector<std::uint32_t>(in);
  st.msgs_sent_ = read_vector<std::uint64_t>(in);
  st.msgs_recv_ = read_vector<std::uint64_t>(in);
  st.forest_adj_.resize(n);
  for (auto& adj : st.forest_adj_) adj = read_vector<NodeId>(in);

  const auto check_size = [n](std::size_t got) {
    if (got != n) throw std::runtime_error("state: field length mismatch");
  };
  check_size(st.initial_degree_.size());
  check_size(st.initial_id_.size());
  check_size(st.component_id_.size());
  check_size(st.delta_.size());
  check_size(st.weight_.size());
  check_size(st.id_changes_.size());
  check_size(st.msgs_sent_.size());
  check_size(st.msgs_recv_.size());
  return st;
}

bool HealingState::operator==(const HealingState& other) const {
  return initial_degree_ == other.initial_degree_ &&
         initial_id_ == other.initial_id_ &&
         component_id_ == other.component_id_ && delta_ == other.delta_ &&
         weight_ == other.weight_ && id_changes_ == other.id_changes_ &&
         msgs_sent_ == other.msgs_sent_ &&
         msgs_recv_ == other.msgs_recv_ &&
         forest_adj_ == other.forest_adj_ &&
         healing_edges_ == other.healing_edges_ &&
         max_delta_ever_ == other.max_delta_ever_ &&
         next_fresh_id_ == other.next_fresh_id_;
}

}  // namespace dash::core

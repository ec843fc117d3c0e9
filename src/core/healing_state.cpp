#include "core/healing_state.h"

#include <algorithm>
#include <charconv>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

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
  forest_ = graph::BlockSlab(n);
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
  forest_.add_list();
  return v;
}

std::int64_t HealingState::raw_degree_increase(const Graph& g,
                                               NodeId v) const {
  return static_cast<std::int64_t>(g.degree(v)) -
         static_cast<std::int64_t>(initial_degree_[v]);
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

std::vector<NodeId> HealingState::healing_component(const Graph& g,
                                                    NodeId v) const {
  DASH_CHECK(g.alive(v));
  std::vector<NodeId> comp;
  std::vector<char> visited(forest_.num_lists(), 0);
  std::deque<NodeId> frontier{v};
  visited[v] = 1;
  while (!frontier.empty()) {
    const NodeId x = frontier.front();
    frontier.pop_front();
    comp.push_back(x);
    for (NodeId u : forest_.list(x)) {
      if (!visited[u]) {
        visited[u] = 1;
        frontier.push_back(u);
      }
    }
  }
  return comp;
}

void HealingState::forest_erase(NodeId u, NodeId v) {
  const auto list = forest_.list(u);
  const auto at = std::find(list.begin(), list.end(), v);
  DASH_DCHECK(at != list.end());
  forest_.erase_at(u, static_cast<std::uint32_t>(at - list.begin()));
}

DeletionContext HealingState::begin_deletion(const Graph& g, NodeId v) {
  DeletionContext ctx;
  begin_deletion(g, v, ctx);
  return ctx;
}

void HealingState::begin_deletion(const Graph& g, NodeId v,
                                  DeletionContext& ctx) {
  DASH_CHECK(g.alive(v));
  ctx.deleted = v;
  const auto nbrs = g.neighbors(v);
  ctx.neighbors_g.assign(nbrs.begin(), nbrs.end());
  const auto forest = forest_.list(v);
  ctx.forest_neighbors.assign(forest.begin(), forest.end());
  ctx.component_id = component_id_[v];
  ctx.weight = weight_[v];

  const NodeId to = heir(ctx.forest_neighbors, ctx.neighbors_g);
  if (to != graph::kInvalidNode) weight_[to] += weight_[v];
  weight_[v] = 0;

  // Detach v from G' and hand its block back to the slab.
  for (NodeId u : ctx.forest_neighbors) forest_erase(u, v);
  healing_edges_ -= ctx.forest_neighbors.size();
  forest_.release(v);

  // Every surviving neighbor is about to lose its edge to v: the
  // paper's delta is the *net* degree change, so charge the -1 now
  // (healing will add back +1 per reconstruction-tree edge).
  for (NodeId u : ctx.neighbors_g) {
    --delta_[u];
  }
}

void HealingState::begin_cluster_deletions(const Graph& g,
                                           const BatchDeletionContext& ctx,
                                           const std::vector<char>& in_batch) {
  for (const auto& cluster : ctx.clusters) {
    const NodeId to =
        heir(cluster.forest_neighbors, cluster.survivor_neighbors);
    if (to != graph::kInvalidNode) weight_[to] += cluster.weight;
    for (NodeId v : cluster.deleted) weight_[v] = 0;

    // Net-delta convention: each survivor loses one degree per edge
    // into the cluster.
    for (NodeId v : cluster.deleted) {
      for (NodeId u : g.neighbors(v)) {
        if (!in_batch[u]) --delta_[u];
      }
    }

    // Detach the cluster from G', counting each incident forest edge
    // exactly once (survivor edges when seen from the deleted side,
    // internal edges from their lower endpoint).
    std::size_t removed_edges = 0;
    for (NodeId v : cluster.deleted) {
      for (NodeId u : forest_.list(v)) {
        if (!in_batch[u]) {
          forest_erase(u, v);
          ++removed_edges;
        } else if (v < u) {
          ++removed_edges;
        }
      }
    }
    for (NodeId v : cluster.deleted) forest_.release(v);
    healing_edges_ -= removed_edges;
  }
}

NodeId HealingState::heir(std::span<const NodeId> forest_neighbors,
                          std::span<const NodeId> neighbors_g) const {
  // Lemma 2's weight transfer: the weight joins an arbitrary
  // G'-neighbor; the lowest initial id makes it deterministic. Without
  // a G'-neighbor it goes to a G-neighbor, so total weight is conserved
  // whenever any neighbor survives.
  const auto heirs = forest_neighbors.empty() ? neighbors_g : forest_neighbors;
  NodeId best = graph::kInvalidNode;
  for (NodeId u : heirs) {
    if (best == graph::kInvalidNode || initial_id_[u] < initial_id_[best]) {
      best = u;
    }
  }
  return best;
}

void HealingState::representatives(std::span<const NodeId> neighbors,
                                   std::span<const std::uint64_t> own_ids,
                                   std::vector<NodeId>& reps) const {
  // Partition by current component id; representative = lowest
  // *initial* id in the partition (Sec. 2.1).
  reps.clear();
  for (NodeId u : neighbors) {
    const std::uint64_t cid = component_id_[u];
    if (std::find(own_ids.begin(), own_ids.end(), cid) != own_ids.end()) {
      continue;
    }
    bool placed = false;
    for (NodeId& r : reps) {
      if (component_id_[r] == cid) {
        if (initial_id_[u] < initial_id_[r]) r = u;
        placed = true;
        break;
      }
    }
    if (!placed) reps.push_back(u);
  }
}

std::vector<NodeId> HealingState::reconnection_set(
    const DeletionContext& ctx) const {
  std::vector<NodeId> s;
  reconnection_set(ctx, s);
  return s;
}

void HealingState::reconnection_set(const DeletionContext& ctx,
                                    std::vector<NodeId>& s) const {
  representatives(ctx.neighbors_g, {&ctx.component_id, 1}, s);
  // UN(v,G) and N(v,G') are disjoint: forest neighbors carry v's own
  // component id, which representatives() skipped.
  s.insert(s.end(), ctx.forest_neighbors.begin(),
           ctx.forest_neighbors.end());
  sort_by_delta(s);
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
  const auto list = forest_.list(a);
  if (std::find(list.begin(), list.end(), b) == list.end()) {
    forest_.push_back(a, b);
    forest_.push_back(b, a);
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
  frontier_.clear();
  const auto relabel = [&](NodeId x) {
    component_id_[x] = min_id;
    ++id_changes_[x];
    // Lemma 8: a node whose id changes broadcasts it to its G-neighbors.
    msgs_sent_[x] += g.degree(x);
    for (NodeId w : g.neighbors(x)) ++msgs_recv_[w];
    frontier_.push_back(x);
    ++changed;
  };
  for (NodeId s : seeds) {
    if (component_id_[s] != min_id) relabel(s);
  }
  while (!frontier_.empty()) {
    const NodeId x = frontier_.back();
    frontier_.pop_back();
    for (NodeId u : forest_.list(x)) {
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

[[noreturn]] void malformed(const std::string& why) {
  throw std::runtime_error("state: " + why);
}

/// A vector or E' list: its length, then its entries.
template <typename List>
void write_vector(std::ostream& out, const List& v) {
  out << v.size();
  for (const auto& x : v) out << ' ' << +x;
  out << '\n';
}

/// One whitespace-separated value of `field`. The token must spell a
/// value of T exactly: no sign on an unsigned field, nothing outside
/// T's range, no trailing characters.
template <typename T>
T read_value(std::istream& in, const std::string& field) {
  std::string token;
  if (!(in >> token)) malformed(field + " is truncated");
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || stop != end) {
    malformed(field + " value '" + token + "' is malformed or out of range");
  }
  return value;
}

/// A length-prefixed vector of `field` with at most `max_len` entries
/// (exactly `max_len` when `exact`), read one entry at a time so a
/// hostile length allocates nothing before its entries exist.
template <typename T>
std::vector<T> read_vector(std::istream& in, const std::string& field,
                           std::size_t max_len, bool exact) {
  const auto len = read_value<std::size_t>(in, field + " length");
  if (len > max_len || (exact && len != max_len)) {
    malformed(field + " has " + std::to_string(len) + " entries for " +
              std::to_string(max_len) + " nodes");
  }
  std::vector<T> v;
  v.reserve(std::min<std::size_t>(len, std::size_t{1} << 16));
  for (std::size_t i = 0; i < len; ++i) v.push_back(read_value<T>(in, field));
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
  for (NodeId v = 0; v < forest_.num_lists(); ++v) {
    write_vector(out, forest_.list(v));
  }
}

HealingState HealingState::load(std::istream& in) {
  std::string header;
  if (!(in >> header) || header != kStateHeader) malformed("bad header");
  HealingState st;
  const auto n = read_value<std::size_t>(in, "node count");
  if (n >= graph::kInvalidNode) malformed("node count exceeds the id space");
  st.healing_edges_ = read_value<std::size_t>(in, "healing_edges");
  st.max_delta_ever_ = read_value<std::int32_t>(in, "max_delta_ever");
  st.next_fresh_id_ = read_value<std::uint64_t>(in, "next_fresh_id");
  if (st.max_delta_ever_ < 0) malformed("max_delta_ever is negative");
  // Ids are handed out densely: every id below next_fresh_id belongs to
  // exactly one node, ever.
  if (st.next_fresh_id_ != n) {
    malformed("next_fresh_id " + std::to_string(st.next_fresh_id_) +
              " != node count " + std::to_string(n));
  }
  st.initial_degree_ = read_vector<std::size_t>(in, "initial_degree", n, true);
  st.initial_id_ = read_vector<std::uint64_t>(in, "initial_id", n, true);
  st.component_id_ = read_vector<std::uint64_t>(in, "component_id", n, true);
  st.delta_ = read_vector<std::int32_t>(in, "delta", n, true);
  st.weight_ = read_vector<std::uint64_t>(in, "weight", n, true);
  st.id_changes_ = read_vector<std::uint32_t>(in, "id_changes", n, true);
  st.msgs_sent_ = read_vector<std::uint64_t>(in, "msgs_sent", n, true);
  st.msgs_recv_ = read_vector<std::uint64_t>(in, "msgs_recv", n, true);
  const auto check_ids = [n](const std::vector<std::uint64_t>& ids,
                             const char* field) {
    for (std::size_t v = 0; v < n; ++v) {
      if (ids[v] >= n) {
        malformed(std::string(field) + " of node " + std::to_string(v) +
                  " is " + std::to_string(ids[v]) +
                  ", not below next_fresh_id");
      }
    }
  };
  check_ids(st.initial_id_, "initial_id");
  check_ids(st.component_id_, "component_id");

  // E' must be a simple undirected graph on the n ids: every entry
  // names another node, once, and is mirrored in that node's list.
  st.forest_ = graph::BlockSlab(n);
  std::vector<std::pair<NodeId, NodeId>> arcs;
  std::vector<std::pair<NodeId, NodeId>> mirrored;
  for (std::size_t v = 0; v < n; ++v) {
    const auto id = static_cast<NodeId>(v);
    const std::string field = "forest_adj of node " + std::to_string(v);
    for (NodeId u : read_vector<NodeId>(in, field, n, false)) {
      if (u >= n || u == v) {
        malformed(field + " names node " + std::to_string(u) + " of " +
                  std::to_string(n));
      }
      st.forest_.push_back(id, u);
      arcs.emplace_back(id, u);
      mirrored.emplace_back(u, id);
    }
  }
  std::sort(arcs.begin(), arcs.end());
  std::sort(mirrored.begin(), mirrored.end());
  if (std::adjacent_find(arcs.begin(), arcs.end()) != arcs.end()) {
    malformed("forest_adj lists an edge twice");
  }
  if (arcs != mirrored) malformed("forest_adj is not symmetric");
  if (arcs.size() != 2 * st.healing_edges_) {
    malformed("healing_edges " + std::to_string(st.healing_edges_) +
              " != " + std::to_string(arcs.size() / 2) +
              " edges in forest_adj");
  }
  return st;
}

bool HealingState::operator==(const HealingState& other) const {
  return initial_degree_ == other.initial_degree_ &&
         initial_id_ == other.initial_id_ &&
         component_id_ == other.component_id_ && delta_ == other.delta_ &&
         weight_ == other.weight_ && id_changes_ == other.id_changes_ &&
         msgs_sent_ == other.msgs_sent_ &&
         msgs_recv_ == other.msgs_recv_ &&
         forest_ == other.forest_ &&
         healing_edges_ == other.healing_edges_ &&
         max_delta_ever_ == other.max_delta_ever_ &&
         next_fresh_id_ == other.next_fresh_id_;
}

}  // namespace dash::core

#include "graph/dynamic_connectivity.h"

#include <span>

#include "util/check.h"

namespace dash::graph {

DynamicConnectivity::DynamicConnectivity(const Graph& g)
    : g_(&g),
      uf_(g.num_nodes()),
      alive_size_(g.num_nodes(), 0),
      is_seed_(g.num_nodes(), 0),
      visit_epoch_(g.num_nodes(), 0),
      root_epoch_(g.num_nodes(), 0) {
  const NodeId n = static_cast<NodeId>(g.num_nodes());
  for (NodeId v = 0; v < n; ++v) {
    if (!g.alive(v)) continue;
    for (NodeId u : g.neighbors(v)) {
      if (u > v) uf_.unite(v, u);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (g.alive(v)) ++alive_size_[uf_.find(v)];
  }
  for (NodeId v = 0; v < n; ++v) {
    // Sets built from alive nodes only, so every populated root is its
    // own alive member.
    if (g.alive(v) && uf_.find(v) == v) {
      hist_add(alive_size_[v]);
      ++components_;
    }
  }
}

// ---- size histogram -----------------------------------------------------

void DynamicConnectivity::hist_add(std::size_t s) {
  if (s >= size_count_.size()) size_count_.resize(s + 1, 0);
  ++size_count_[s];
  if (s > largest_) largest_ = s;
}

void DynamicConnectivity::hist_remove(std::size_t s) {
  DASH_DCHECK(s < size_count_.size() && size_count_[s] > 0);
  --size_count_[s];
  while (largest_ > 0 && size_count_[largest_] == 0) --largest_;
}

// ---- mutation stream ------------------------------------------------------

void DynamicConnectivity::node_added(NodeId v) {
  DASH_CHECK_MSG(v == uf_.size(),
                 "node_added out of sync with the graph's id space");
  uf_.add();
  alive_size_.push_back(1);
  is_seed_.push_back(0);
  visit_epoch_.push_back(0);
  root_epoch_.push_back(0);
  ++components_;
  hist_add(1);
  ++partition_changes_;
}

void DynamicConnectivity::edge_added(NodeId a, NodeId b) {
  const UnionFind::UniteReport r = uf_.unite_report(a, b);
  if (!r.merged) return;
  const std::size_t sa = alive_size_[r.root];
  const std::size_t sb = alive_size_[r.absorbed];
  hist_add(sa + sb);  // add before remove: see the cost model (header)
  hist_remove(sa);
  hist_remove(sb);
  alive_size_[r.root] = static_cast<std::uint32_t>(sa + sb);
  --components_;
  ++partition_changes_;
}

void DynamicConnectivity::edge_removed(NodeId a, NodeId b) {
  // The union-find cannot split; seed both sides so the next query's
  // re-scan resolves whether the component actually came apart.
  seed(a);
  seed(b);
}

void DynamicConnectivity::drop_alive_member(NodeId v) {
  const NodeId r = uf_.find(v);
  const std::size_t s = alive_size_[r];
  DASH_CHECK_MSG(s > 0, "deleting from an already-empty component");
  if (s == 1) {
    --components_;
  } else {
    hist_add(s - 1);  // add before remove: see the cost model (header)
  }
  hist_remove(s);
  alive_size_[r] = static_cast<std::uint32_t>(s - 1);
}

void DynamicConnectivity::node_removed(NodeId v,
                                       const std::vector<NodeId>& survivors,
                                       bool may_split) {
  drop_alive_member(v);
  if (may_split && survivors.size() >= 2) {
    for (NodeId s : survivors) seed(s);
  } else if (is_seed_[v] && !survivors.empty()) {
    // v backed a pending re-scan; its piece stays whole (certified, or
    // a single survivor), so one survivor inherits the seed duty.
    seed(survivors.front());
  }
  is_seed_[v] = 0;  // dead seeds are skipped at flush anyway
}

void DynamicConnectivity::batch_removed(
    const std::vector<NodeId>& members,
    const std::vector<NodeId>& survivors, bool may_split) {
  bool member_was_seed = false;
  for (NodeId v : members) {
    drop_alive_member(v);
    member_was_seed |= is_seed_[v] != 0;
  }
  if (may_split && survivors.size() >= 2) {
    for (NodeId s : survivors) seed(s);
  } else if (member_was_seed && !survivors.empty()) {
    // A certified batch keeps its piece whole, so one survivor can
    // inherit the seed duty the dead members were carrying.
    seed(survivors.front());
  }
  for (NodeId v : members) is_seed_[v] = 0;
}

// ---- queries ----------------------------------------------------------------

bool DynamicConnectivity::connected() {
  flush();
  return g_->num_alive() <= 1 || components_ <= 1;
}

std::size_t DynamicConnectivity::component_count() {
  flush();
  return components_;
}

std::size_t DynamicConnectivity::largest_component() {
  flush();
  return largest_;
}

bool DynamicConnectivity::same_component(NodeId a, NodeId b) {
  DASH_CHECK_MSG(g_->alive(a) && g_->alive(b),
                 "same_component needs alive nodes");
  flush();
  return uf_.connected(a, b);
}

std::size_t DynamicConnectivity::component_size(NodeId v) {
  DASH_CHECK_MSG(g_->alive(v), "component_size needs an alive node");
  flush();
  return alive_size_[uf_.find(v)];
}

// ---- lazy re-scan ----------------------------------------------------------

void DynamicConnectivity::seed(NodeId v) {
  if (is_seed_[v]) return;
  is_seed_[v] = 1;
  seeds_.push_back(v);
}

void DynamicConnectivity::flush() {
  if (seeds_.empty()) return;
  ++epoch_;

  // One BFS group per piece, discovered from the alive seeds. The
  // invariant in the header guarantees the groups cover every alive
  // member of every set the union-find may be holding too coarse.
  // Groups live packed in scan_nodes_ (scan_offsets_ delimits them) --
  // persistent flat buffers, so the re-scan allocates nothing once
  // warm, matching the zero-alloc traversal engine.
  scan_nodes_.clear();
  scan_offsets_.clear();
  scan_offsets_.push_back(0);
  for (NodeId s : seeds_) {
    is_seed_[s] = 0;
    if (!g_->alive(s) || visit_epoch_[s] == epoch_) continue;
    visit_epoch_[s] = epoch_;
    scan_nodes_.push_back(s);
    for (std::size_t i = scan_offsets_.back(); i < scan_nodes_.size(); ++i) {
      for (NodeId u : g_->neighbors(scan_nodes_[i])) {
        if (visit_epoch_[u] != epoch_) {
          visit_epoch_[u] = epoch_;
          scan_nodes_.push_back(u);
        }
      }
    }
    scan_offsets_.push_back(scan_nodes_.size());
  }
  seeds_.clear();
  const std::size_t groups = scan_offsets_.size() - 1;
  auto group = [this](std::size_t i) {
    return std::span<const NodeId>(scan_nodes_.data() + scan_offsets_[i],
                                   scan_offsets_[i + 1] - scan_offsets_[i]);
  };

  // Dissolve the affected sets' books first (roots must be read before
  // any reroot rewrites them), then install the exact new partition.
  for (std::size_t i = 0; i < groups; ++i) {
    for (NodeId u : group(i)) {
      const NodeId r = uf_.find(u);
      if (root_epoch_[r] == epoch_) continue;
      root_epoch_[r] = epoch_;
      hist_remove(alive_size_[r]);
      alive_size_[r] = 0;
      --components_;
    }
  }
  for (std::size_t i = 0; i < groups; ++i) {
    const std::span<const NodeId> members = group(i);
    uf_.reroot(members);
    alive_size_[members.front()] =
        static_cast<std::uint32_t>(members.size());
    hist_add(members.size());
    ++components_;
  }

  ++rebuilds_;
  nodes_rescanned_ += scan_nodes_.size();
  ++partition_changes_;
}

}  // namespace dash::graph

#include "graph/flat_view.h"

#include <algorithm>

#include "graph/graph.h"

namespace dash::graph {

void FlatView::rebuild(const Graph& g) {
  offsets_ = g.slab_.offsets();
  degrees_ = g.slab_.sizes();
  edges_ = g.slab_.entries();
  edge_entries_ = 2 * g.num_edges();
  alive_ = g.alive_;
  generation_ = g.generation();
  graph_uid_ = g.uid();
  log_seq_ = g.touched_end();
  valid_ = true;
  died_.clear();
  ++full_rebuilds_;
}

void FlatView::refresh(const Graph& g) {
  if (!try_patch(g)) rebuild(g);
}

bool FlatView::try_patch(const Graph& g) {
  // The patch is sound only against the same graph instance, and only
  // while the log still retains every entry since our last sync.
  if (!valid_ || graph_uid_ != g.uid()) return false;
  if (log_seq_ < g.touched_begin() || log_seq_ > g.touched_end()) {
    return false;
  }
  if (log_seq_ == g.touched_end()) {  // nothing happened since the sync
    generation_ = g.generation();
    died_.clear();
    return true;
  }

  const std::size_t n = g.num_nodes();
  const std::vector<NodeId>& log = g.touched_log();
  const std::size_t window_begin =
      static_cast<std::size_t>(log_seq_ - g.touched_begin());

  // Dedupe the window with epoch stamps; bail to the full rebuild once
  // the distinct set crosses the patch threshold.
  const std::size_t limit = std::max<std::size_t>(
      64, static_cast<std::size_t>(kPatchFractionLimit *
                                   static_cast<double>(n)));
  if (stamp_.size() < n) stamp_.resize(n, 0);
  ++stamp_epoch_;
  touched_scratch_.clear();
  for (std::size_t i = window_begin; i < log.size(); ++i) {
    const NodeId v = log[i];
    if (stamp_[v] == stamp_epoch_) continue;
    stamp_[v] = stamp_epoch_;
    touched_scratch_.push_back(v);
    if (touched_scratch_.size() > limit) return false;
  }

  // Mirror growth (node ids and the slab only ever extend; resize keeps
  // every untouched prefix byte in place).
  const std::size_t old_n = degrees_.size();
  if (n > old_n) {
    offsets_.resize(n, 0);
    degrees_.resize(n, 0);
  }
  const std::vector<NodeId>& slab = g.slab_.entries();
  if (edges_.size() < slab.size()) edges_.resize(slab.size());
  alive_.grow(n);

  died_.clear();
  for (const NodeId v : touched_scratch_) {
    const bool now_alive = g.alive(v);
    if (alive_.contains(v) != now_alive) {
      if (now_alive) {
        alive_.insert(v);
      } else {
        alive_.erase(v);
        died_.push_back(v);
      }
    }
    const std::uint32_t old_deg = degrees_[v];
    const std::uint32_t new_deg = g.slab_.sizes()[v];
    const std::uint32_t off = g.slab_.offsets()[v];
    offsets_[v] = off;
    degrees_[v] = new_deg;
    std::copy(slab.begin() + off, slab.begin() + off + new_deg,
              edges_.begin() + off);
    edge_entries_ += new_deg;
    edge_entries_ -= old_deg;
  }

  std::sort(died_.begin(), died_.end());

  generation_ = g.generation();
  log_seq_ = g.touched_end();
  ++patched_refreshes_;
  vertices_patched_ += touched_scratch_.size();
  return true;
}

}  // namespace dash::graph

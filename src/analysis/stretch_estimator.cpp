#include "analysis/stretch_estimator.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "graph/traversal.h"
#include "util/check.h"

namespace dash::analysis {

using graph::FlatView;
using graph::Graph;
using graph::kUnreachable;
using graph::NodeId;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// One pair of distinct alive ranks, drawn as every sample always has.
std::pair<std::size_t, std::size_t> draw_ranks(util::Rng& rng,
                                               std::size_t alive) {
  const auto ui = static_cast<std::size_t>(rng.below(alive));
  auto vi = static_cast<std::size_t>(rng.below(alive - 1));
  if (vi >= ui) ++vi;
  return {ui, vi};
}
}  // namespace

StretchEstimator::StretchEstimator(const Graph& original,
                                   StretchEstimatorOptions opts)
    : n_(original.num_nodes()), opts_(opts), rng_(opts.seed) {
  DASH_CHECK_MSG(graph::is_connected(original),
                 "stretch baseline must be connected");
  const FlatView& view = original.flat_view();
  DASH_CHECK_MSG(view.num_alive() != 0, "empty baseline");
  const std::size_t k = std::min<std::size_t>(
      {std::max<std::size_t>(opts.landmarks, 1), 64, view.num_alive()});

  // Farthest-point selection: start from the lowest alive id, then
  // repeatedly add the node farthest from every chosen landmark. Each
  // step's BFS row is exactly the landmark row we need to keep, so
  // selection costs nothing beyond the O(k * (n + m)) row builds.
  graph::TraversalScratch scratch;
  std::vector<std::uint32_t> nearest(n_, kUnreachable);
  d0_.resize(k * n_, kUnreachable);
  NodeId next_landmark = view.kth_alive(0);
  for (std::size_t i = 0; i < k; ++i) {
    landmarks_.push_back(next_landmark);
    graph::bfs_distances(view, next_landmark, scratch);
    std::uint32_t* row = d0_.data() + i * n_;
    std::uint32_t best = 0;
    for (const NodeId v : view.alive_set()) {
      const std::uint32_t d = scratch.distance(v);
      row[v] = d;
      if (d < nearest[v]) nearest[v] = d;
      if (nearest[v] > best) {
        best = nearest[v];
        next_landmark = v;
      }
    }
    if (best == 0) {  // every alive node is already a landmark
      d0_.resize((i + 1) * n_);
      break;
    }
  }
}

void StretchEstimator::begin_sample(const FlatView& view) {
  DASH_CHECK_MSG(view.num_nodes() == n_,
                 "estimator and healed graph id spaces differ");
  if (slot_.empty()) {
    slot_.assign(n_, kNoSlot);
    pool_.resize(n_);
    reached_.resize(n_);
    frontier_.resize(n_);
    next_.resize(n_);
  }
  // Retire the last sample's slots by moving the base past them. A
  // sample hands out at most one slot per alive node, and slot() must
  // read every older value and kNoSlot as no slot, so renumber from 0
  // before base + alive could reach kNoSlot.
  slot_base_ += static_cast<std::uint32_t>(endpoint_.size());
  if (kNoSlot - slot_base_ < view.num_alive()) {
    std::fill(slot_.begin(), slot_.end(), kNoSlot);
    slot_base_ = 0;
  }
  endpoint_.clear();
  depth_.clear();
  // Alive nodes only have alive neighbors, so the wave never reads a
  // dead node's masks and only the alive ones need clearing.
  std::size_t size = 0;
  for (const NodeId v : view.alive_set()) {
    pool_[size++] = v;
    reached_[v] = frontier_[v] = next_[v] = 0;
  }
}

void StretchEstimator::add_endpoint(std::size_t key, NodeId v) {
  if (slot(key) < endpoint_.size()) return;
  slot_[key] = slot_base_ + static_cast<std::uint32_t>(endpoint_.size());
  endpoint_.push_back(v);
  depth_.resize(depth_.size() + landmarks_.size(), kUnreachable);
}

// One wave from the surviving landmarks -- the bit-parallel level
// advance the exact tracker's wave_partials uses, minus the per-pair
// accounting. A node is settled once every surviving landmark's bit has
// reached it: its depths are final and it can learn nothing more. The
// wave stops once every endpoint is settled, or once a level reaches
// nothing new (the rest never will).
//
// The first levels push: while the frontier's adjacency is under a
// quarter of the graph's, scanning it costs less than a pull sweep.
// Push levels keep `next` clear between levels and keep the frontier
// list and the next one in pool_. The pull levels then sweep a pool of
// unsettled alive ids, dropping each node once it settles; a node's
// gather stops once it covers the node's missing bits. A settled node's
// frontier and next entries keep the bits it last received, which is
// harmless: each such bit reached the node's neighbors one level later,
// so every later gather masks it out.
void StretchEstimator::run_wave(const FlatView& view) {
  const std::size_t k = landmarks_.size();
  auto* reached = reached_.data();
  NodeId* list = pool_.data();
  std::size_t size = 0;
  std::size_t adjacency = 0;  // of the frontier list
  std::uint64_t all = 0;      // bits of the surviving landmarks
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId s = landmarks_[i];
    if (!view.alive(s)) continue;
    reached[s] = frontier_[s] = std::uint64_t{1} << i;
    all |= std::uint64_t{1} << i;
    list[size++] = s;
    adjacency += view.degree(s);
  }
  if (all == 0) return;  // every pair is unbounded

  // Record the bits that reached each unsettled endpoint at `depth` --
  // its frontier entry -- and forget the endpoints that are now settled.
  unsettled_.resize(endpoint_.size());
  for (std::uint32_t s = 0; s < unsettled_.size(); ++s) unsettled_[s] = s;
  const auto record = [&](std::uint32_t depth) {
    std::size_t kept = 0;
    for (const std::uint32_t s : unsettled_) {
      const NodeId e = endpoint_[s];
      std::uint64_t bits = frontier_[e];
      std::uint32_t* row = depth_.data() + s * k;
      while (bits != 0) {
        row[std::countr_zero(bits)] = depth;
        bits &= bits - 1;
      }
      if (reached[e] != all) unsettled_[kept++] = s;
    }
    unsettled_.resize(kept);
  };
  record(0);  // landmark endpoints

  std::uint32_t depth = 1;
  // The next list grows behind the frontier list and holds at most its
  // adjacency, so both fit in pool_ while size + adjacency <= n.
  while (!unsettled_.empty() && 4 * adjacency < view.num_edge_entries() &&
         size + adjacency <= n_) {
    auto* frontier = frontier_.data();
    auto* next = next_.data();
    std::size_t grown = size;
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint64_t bits = frontier[list[i]];
      for (const NodeId w : view.neighbors(list[i])) {
        const std::uint64_t fresh = bits & ~reached[w];
        if (fresh == 0) continue;
        if (next[w] == 0) list[grown++] = w;
        next[w] |= fresh;
      }
    }
    for (std::size_t i = 0; i < size; ++i) frontier[list[i]] = 0;
    adjacency = 0;
    for (std::size_t i = size; i < grown; ++i) {
      reached[list[i]] |= next[list[i]];
      adjacency += view.degree(list[i]);
    }
    std::copy(list + size, list + grown, list);
    size = grown - size;
    std::swap(frontier_, next_);
    if (size == 0) return;  // the unsettled endpoints stay out of reach
    record(depth++);
  }

  NodeId* pool = pool_.data();
  std::size_t pool_size = 0;
  for (const NodeId v : view.alive_set()) {
    if (reached[v] != all) pool[pool_size++] = v;
  }
  for (; !unsettled_.empty(); ++depth) {
    const auto* frontier = frontier_.data();
    auto* next = next_.data();
    bool active = false;
    std::size_t kept = 0;
    for (std::size_t p = 0; p < pool_size; ++p) {
      const NodeId v = pool[p];
      const std::uint64_t missing = all & ~reached[v];
      std::uint64_t gather = 0;
      for (const NodeId u : view.neighbors(v)) {
        gather |= frontier[u];
        if ((gather & missing) == missing) break;
      }
      const std::uint64_t fresh = gather & missing;
      next[v] = fresh;
      reached[v] |= fresh;
      active |= fresh != 0;
      if (fresh != missing) pool[kept++] = v;
    }
    pool_size = kept;
    std::swap(frontier_, next_);
    if (!active) break;  // the unsettled endpoints stay out of reach
    record(depth);
  }
}

PairBound StretchEstimator::bound(std::uint32_t su, std::uint32_t sv) const {
  DASH_CHECK_MSG(su < endpoint_.size() && sv < endpoint_.size(),
                 "pair endpoints must be added before the wave");
  const NodeId u = endpoint_[su];
  const NodeId v = endpoint_[sv];
  DASH_CHECK_MSG(u != v, "stretch is defined over distinct pairs");
  PairBound b;
  b.u = u;
  b.v = v;

  const std::size_t k = landmarks_.size();
  const std::uint32_t* ut = depth_.data() + su * k;
  const std::uint32_t* vt = depth_.data() + sv * k;
  std::uint32_t o_lb = 1;  // distinct alive nodes are >= 1 hop apart
  std::uint32_t o_ub = kUnreachable;
  std::uint32_t h_lb = 1;
  std::uint32_t h_ub = kUnreachable;
  bool covered = false;
  bool one_sided = false;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t du0 = d0_[i * n_ + u];
    const std::uint32_t dv0 = d0_[i * n_ + v];
    // Time-0 rows are complete (connected baseline).
    o_ub = std::min(o_ub, du0 + dv0);
    o_lb = std::max(o_lb, du0 > dv0 ? du0 - dv0 : dv0 - du0);

    const std::uint32_t dut = ut[i];
    const std::uint32_t dvt = vt[i];
    const bool ru = dut != kUnreachable;
    const bool rv = dvt != kUnreachable;
    if (ru && rv) {
      covered = true;
      h_ub = std::min(h_ub, dut + dvt);
      h_lb = std::max(h_lb, dut > dvt ? dut - dvt : dvt - dut);
    } else if (ru != rv) {
      // The landmark's component contains exactly one endpoint, so the
      // pair is disconnected -- a certificate, not an estimate.
      one_sided = true;
    }
  }
  b.original_lower = o_lb;
  b.original_upper = o_ub;
  if (one_sided) {
    b.disconnected = true;
    b.lower = b.upper = kInf;
    return b;
  }
  if (!covered) {
    b.unbounded = true;
    return b;
  }
  b.healed_lower = h_lb;
  b.healed_upper = h_ub;
  b.lower = static_cast<double>(h_lb) / static_cast<double>(o_ub);
  b.upper = static_cast<double>(h_ub) / static_cast<double>(o_lb);
  return b;
}

std::vector<PairBound> StretchEstimator::bound_pairs(
    const Graph& healed, std::span<const std::pair<NodeId, NodeId>> pairs) {
  const FlatView& view = healed.flat_view();
  begin_sample(view);
  for (const auto& [u, v] : pairs) {
    DASH_CHECK_MSG(view.alive(u) && view.alive(v),
                   "stretch is defined over alive pairs");
    add_endpoint(u, u);
    add_endpoint(v, v);
  }
  run_wave(view);
  std::vector<PairBound> out;
  out.reserve(pairs.size());
  for (const auto& [u, v] : pairs) out.push_back(bound(slot(u), slot(v)));
  return out;
}

StretchEstimate StretchEstimator::estimate(const Graph& healed,
                                           std::vector<PairBound>* detail) {
  if (detail != nullptr) detail->clear();
  StretchEstimate out;
  if (healed.num_alive() < 2) return out;
  const FlatView& view = healed.flat_view();
  begin_sample(view);

  // The draws run twice and are stored nowhere: once now, to give the
  // wave its endpoints (pool_ is still the ascending alive list), and
  // once after it from a copy of the stream, to bound them.
  util::Rng replay = rng_;
  const std::size_t alive = view.num_alive();
  for (std::size_t p = 0; p < opts_.pairs; ++p) {
    const auto [ui, vi] = draw_ranks(rng_, alive);
    add_endpoint(ui, pool_[ui]);
    add_endpoint(vi, pool_[vi]);
  }
  run_wave(view);

  double sum_lower = 0.0;
  double sum_upper = 0.0;
  for (std::size_t p = 0; p < opts_.pairs; ++p) {
    const auto [ui, vi] = draw_ranks(replay, alive);
    const PairBound b = bound(slot(ui), slot(vi));
    if (detail != nullptr) detail->push_back(b);
    ++out.pairs;
    if (b.disconnected) {
      ++out.disconnected;
    } else if (b.unbounded) {
      ++out.unbounded;
    } else {
      ++out.bounded;
      out.max_lower = std::max(out.max_lower, b.lower);
      out.max_upper = std::max(out.max_upper, b.upper);
      sum_lower += b.lower;
      sum_upper += b.upper;
    }
  }
  if (out.bounded > 0) {
    out.avg_lower = sum_lower / static_cast<double>(out.bounded);
    out.avg_upper = sum_upper / static_cast<double>(out.bounded);
  }
  if (out.disconnected > 0) out.max_lower = out.max_upper = kInf;
  return out;
}

}  // namespace dash::analysis

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

// One 64-source wave from the surviving landmarks, recording the round
// each landmark's bit first reaches each node -- the same bit-parallel
// level advance the exact tracker's wave_partials uses, minus the
// per-pair accounting. Every level sweeps the alive ids and every pair
// draw looks one up by rank, so a sample decodes the view's alive set
// into a list once instead of per level and per draw.
void StretchEstimator::sample_wave(const Graph& healed) {
  DASH_CHECK_MSG(healed.num_nodes() == n_,
                 "estimator and healed graph id spaces differ");
  const FlatView& view = healed.flat_view();
  alive_.clear();
  for (const NodeId v : view.alive_set()) alive_.push_back(v);
  const std::size_t k = landmarks_.size();

  dt_.assign(k * n_, kUnreachable);
  reached_.assign(n_, 0);
  frontier_.assign(n_, 0);
  next_.resize(n_);
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId s = landmarks_[i];
    if (!view.alive(s)) continue;
    reached_[s] = frontier_[s] = std::uint64_t{1} << i;
    dt_[i * n_ + s] = 0;
  }

  auto* reached = reached_.data();
  std::uint32_t depth = 0;
  bool active = true;
  while (active) {
    active = false;
    ++depth;
    const auto* frontier = frontier_.data();
    auto* next = next_.data();
    for (const NodeId v : alive_) {
      std::uint64_t gather = 0;
      for (const NodeId u : view.neighbors(v)) gather |= frontier[u];
      std::uint64_t fresh = gather & ~reached[v];
      next[v] = fresh;
      if (fresh == 0) continue;
      active = true;
      reached[v] |= fresh;
      do {
        const auto i = static_cast<unsigned>(std::countr_zero(fresh));
        fresh &= fresh - 1;
        dt_[i * n_ + v] = depth;
      } while (fresh != 0);
    }
    std::swap(frontier_, next_);
  }
}

PairBound StretchEstimator::bound_pair(NodeId u, NodeId v) const {
  DASH_CHECK_MSG(u != v, "stretch is defined over distinct pairs");
  PairBound b;
  b.u = u;
  b.v = v;

  std::uint32_t o_lb = 1;  // distinct alive nodes are >= 1 hop apart
  std::uint32_t o_ub = kUnreachable;
  std::uint32_t h_lb = 1;
  std::uint32_t h_ub = kUnreachable;
  bool covered = false;
  bool one_sided = false;
  const std::size_t k = landmarks_.size();
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t du0 = d0_[i * n_ + u];
    const std::uint32_t dv0 = d0_[i * n_ + v];
    // Time-0 rows are complete (connected baseline).
    o_ub = std::min(o_ub, du0 + dv0);
    o_lb = std::max(o_lb, du0 > dv0 ? du0 - dv0 : dv0 - du0);

    const std::uint32_t dut = dt_[i * n_ + u];
    const std::uint32_t dvt = dt_[i * n_ + v];
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

StretchEstimate StretchEstimator::estimate(const Graph& healed,
                                           std::vector<PairBound>* detail) {
  if (detail != nullptr) detail->clear();
  StretchEstimate out;
  if (healed.num_alive() < 2) return out;
  sample_wave(healed);

  double sum_lower = 0.0;
  double sum_upper = 0.0;
  for (std::size_t p = 0; p < opts_.pairs; ++p) {
    const std::size_t ui =
        static_cast<std::size_t>(rng_.below(alive_.size()));
    std::size_t vi = static_cast<std::size_t>(rng_.below(alive_.size() - 1));
    if (vi >= ui) ++vi;
    const PairBound b = bound_pair(alive_[ui], alive_[vi]);
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

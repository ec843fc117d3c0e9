// stretch_estimator_reference.h -- the landmark stretch estimator as it
// was before analysis::StretchEstimator learned to record depths only at
// a sample's endpoints: every sample clears and fills a k x n depth
// matrix with one wave that sweeps every alive node's adjacency on every
// level, then draws its pairs against it. The constructor, sample_wave,
// bound_pair and estimate are kept verbatim so the differential tests
// can demand identical PairBound and StretchEstimate values, and an
// identical pair-sampling stream, from the library's estimator.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/stretch_estimator.h"
#include "graph/graph.h"
#include "graph/traversal.h"
#include "util/check.h"
#include "util/rng.h"

namespace dash::testing {

class ReferenceStretchEstimator {
 public:
  using FlatView = graph::FlatView;
  using Graph = graph::Graph;
  using NodeId = graph::NodeId;
  using PairBound = analysis::PairBound;
  using StretchEstimate = analysis::StretchEstimate;

  explicit ReferenceStretchEstimator(const Graph& original,
                                     analysis::StretchEstimatorOptions opts =
                                         {})
      : n_(original.num_nodes()), opts_(opts), rng_(opts.seed) {
    DASH_CHECK_MSG(graph::is_connected(original),
                   "stretch baseline must be connected");
    const FlatView& view = original.flat_view();
    DASH_CHECK_MSG(view.num_alive() != 0, "empty baseline");
    const std::size_t k = std::min<std::size_t>(
        {std::max<std::size_t>(opts.landmarks, 1), 64, view.num_alive()});

    graph::TraversalScratch scratch;
    std::vector<std::uint32_t> nearest(n_, graph::kUnreachable);
    d0_.resize(k * n_, graph::kUnreachable);
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

  StretchEstimate estimate(const Graph& healed,
                           std::vector<PairBound>* detail = nullptr) {
    if (detail != nullptr) detail->clear();
    StretchEstimate out;
    if (healed.num_alive() < 2) return out;
    sample_wave(healed);

    double sum_lower = 0.0;
    double sum_upper = 0.0;
    for (std::size_t p = 0; p < opts_.pairs; ++p) {
      const std::size_t ui =
          static_cast<std::size_t>(rng_.below(alive_.size()));
      std::size_t vi =
          static_cast<std::size_t>(rng_.below(alive_.size() - 1));
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

  void sample_wave(const Graph& healed) {
    DASH_CHECK_MSG(healed.num_nodes() == n_,
                   "estimator and healed graph id spaces differ");
    const FlatView& view = healed.flat_view();
    alive_.clear();
    for (const NodeId v : view.alive_set()) alive_.push_back(v);
    const std::size_t k = landmarks_.size();

    dt_.assign(k * n_, graph::kUnreachable);
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

  PairBound bound_pair(NodeId u, NodeId v) const {
    DASH_CHECK_MSG(u != v, "stretch is defined over distinct pairs");
    PairBound b;
    b.u = u;
    b.v = v;

    std::uint32_t o_lb = 1;
    std::uint32_t o_ub = graph::kUnreachable;
    std::uint32_t h_lb = 1;
    std::uint32_t h_ub = graph::kUnreachable;
    bool covered = false;
    bool one_sided = false;
    const std::size_t k = landmarks_.size();
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t du0 = d0_[i * n_ + u];
      const std::uint32_t dv0 = d0_[i * n_ + v];
      o_ub = std::min(o_ub, du0 + dv0);
      o_lb = std::max(o_lb, du0 > dv0 ? du0 - dv0 : dv0 - du0);

      const std::uint32_t dut = dt_[i * n_ + u];
      const std::uint32_t dvt = dt_[i * n_ + v];
      const bool ru = dut != graph::kUnreachable;
      const bool rv = dvt != graph::kUnreachable;
      if (ru && rv) {
        covered = true;
        h_ub = std::min(h_ub, dut + dvt);
        h_lb = std::max(h_lb, dut > dvt ? dut - dvt : dvt - dut);
      } else if (ru != rv) {
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

  std::size_t num_landmarks() const { return landmarks_.size(); }
  const std::vector<NodeId>& landmarks() const { return landmarks_; }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  std::size_t n_ = 0;
  analysis::StretchEstimatorOptions opts_;
  util::Rng rng_;
  std::vector<NodeId> landmarks_;
  std::vector<std::uint32_t> d0_;
  std::vector<std::uint32_t> dt_;
  std::vector<NodeId> alive_;
  std::vector<std::uint64_t> reached_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> next_;
};

}  // namespace dash::testing

// stretch_estimator.h -- sublinear landmark bounds on the Section
// 4.6.1 stretch metric, for graphs far past the exact tracker's O(n^2)
// baseline (a million-node network would need terabytes of APSP rows).
//
// The estimator fixes k <= 64 landmarks on the *time-0* network by
// farthest-point selection and keeps one exact BFS distance row per
// landmark (O(k*n) memory). Each sample then runs a single 64-source
// bit-parallel BFS wave from the surviving landmarks over the healed
// graph's CSR snapshot -- O((n + m) * diameter) word ops, the same
// engine the exact tracker's waves use -- and bounds every queried
// pair (u, v) by the triangle inequality:
//
//   healed:    max_L |dT(L,u) - dT(L,v)|  <=  dT(u,v)  <=  min_L dT(L,u) + dT(L,v)
//   original:  max_L |d0(L,u) - d0(L,v)|  <=  d0(u,v)  <=  min_L d0(L,u) + d0(L,v)
//
// so the true stretch dT(u,v) / d0(u,v) is *contained* in
// [healed_lower / original_upper, healed_upper / original_lower].
// Containment is the guarantee the differential tests pin down; the
// interval's width depends on how well the landmarks cover the graph
// (exact whenever some landmark lies on a shortest path of both
// numerator and denominator, e.g. always for pairs involving a
// landmark).
//
// Disconnection is detected for free: a landmark whose wave reaches
// exactly one endpoint of an alive pair proves the pair disconnected
// (infinite stretch, matching the exact tracker's convention). A pair
// no surviving landmark reaches at all is reported `unbounded` and
// excluded from the aggregates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace dash::analysis {

struct StretchEstimatorOptions {
  /// Landmark count, clamped to [1, min(64, alive nodes)]. More
  /// landmarks tighten both bounds at O(n) memory and wave cost each.
  std::size_t landmarks = 16;
  /// Alive pairs sampled per estimate() call.
  std::size_t pairs = 256;
  /// Seed of the pair-sampling stream (deterministic across runs; the
  /// stream advances estimate() to estimate()).
  std::uint64_t seed = 0x5eed;
};

/// Stretch interval for one pair, plus the distance bounds it came from.
struct PairBound {
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
  std::uint32_t healed_lower = 0;    ///< lower bound on dT(u,v)
  std::uint32_t healed_upper = 0;    ///< upper bound on dT(u,v)
  std::uint32_t original_lower = 0;  ///< lower bound on d0(u,v)
  std::uint32_t original_upper = 0;  ///< upper bound on d0(u,v)
  double lower = 0.0;  ///< stretch interval: true stretch in [lower, upper]
  double upper = 0.0;
  bool disconnected = false;  ///< certainly disconnected at sample time
  bool unbounded = false;     ///< no surviving landmark covers the pair
};

/// Aggregates over one estimate() call's sampled pairs. The true
/// sampled maximum lies in [max_lower, max_upper]; sampled averages
/// likewise. Any disconnected pair forces both maxima to +inf (the
/// exact tracker's convention for disconnected networks).
struct StretchEstimate {
  double max_lower = 0.0;
  double max_upper = 0.0;
  double avg_lower = 0.0;
  double avg_upper = 0.0;
  std::size_t pairs = 0;         ///< pairs sampled
  std::size_t bounded = 0;       ///< pairs with a finite interval
  std::size_t disconnected = 0;  ///< provably disconnected pairs
  std::size_t unbounded = 0;     ///< pairs no landmark covers
};

class StretchEstimator {
 public:
  /// Freezes landmark rows of `original` (must be connected, like the
  /// exact tracker's baseline). O(k * (n + m)) time, O(k * n) memory.
  explicit StretchEstimator(const graph::Graph& original,
                            StretchEstimatorOptions opts = {});

  /// One sample: a landmark wave over `healed` (same node-id space as
  /// the original) plus `opts.pairs` random alive pairs. `detail`,
  /// when given, receives the per-pair bounds.
  StretchEstimate estimate(const graph::Graph& healed,
                           std::vector<PairBound>* detail = nullptr);

  /// Re-run the landmark wave against `healed`'s current state without
  /// sampling pairs; bound_pair() then answers against this wave.
  void sample_wave(const graph::Graph& healed);

  /// Bounds for one alive pair (u != v) against the last sample_wave().
  PairBound bound_pair(graph::NodeId u, graph::NodeId v) const;

  std::size_t num_landmarks() const { return landmarks_.size(); }
  const std::vector<graph::NodeId>& landmarks() const { return landmarks_; }

 private:
  std::size_t n_ = 0;
  StretchEstimatorOptions opts_;
  util::Rng rng_;
  std::vector<graph::NodeId> landmarks_;
  std::vector<std::uint32_t> d0_;  ///< [landmark][node] time-0 rows
  std::vector<std::uint32_t> dt_;  ///< [landmark][node] last wave rows
  /// Wave workspace (persisted; warm samples allocate nothing).
  std::vector<graph::NodeId> alive_;  ///< last wave's alive ids, ascending
  std::vector<std::uint64_t> reached_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> next_;
};

}  // namespace dash::analysis

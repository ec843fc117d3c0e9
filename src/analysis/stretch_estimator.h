// stretch_estimator.h -- sublinear landmark bounds on the Section
// 4.6.1 stretch metric, for graphs far past the exact tracker's O(n^2)
// baseline (a million-node network would need terabytes of APSP rows).
//
// The estimator fixes k <= 64 landmarks on the *time-0* network by
// farthest-point selection and keeps one exact BFS distance row per
// landmark (O(k*n) memory). A sample draws its pairs first, then runs a
// single 64-source bit-parallel BFS wave from the surviving landmarks
// over the healed graph's CSR snapshot, the same engine the exact
// tracker's waves use, and records each landmark's depth only at the
// drawn endpoints. The first levels push from the frontier while its
// adjacency is small; the rest pull over the alive nodes some surviving
// landmark has not reached yet, and a node's gather stops once its
// missing landmarks are covered. The wave ends as soon as every
// endpoint has been reached by every surviving landmark -- at most
// O((n + m) * levels) word ops, and each level only touches unsettled
// nodes. Every pair (u, v) is then bounded by the triangle inequality:
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
//
// Memory: the k time-0 rows (4kn bytes); per node, three wave masks, a
// sweep-pool entry and an endpoint slot (32n bytes); and per distinct
// endpoint, its id, its k depths and a settle-list entry (4(k + 2)
// bytes). Nothing is stored per sampled pair: estimate() replays its
// draws instead, so `pairs` has no memory cost of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
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

  /// One sample: `opts.pairs` random alive pairs of `healed` (same
  /// node-id space as the original), bounded by one landmark wave.
  /// `detail`, when given, receives the per-pair bounds.
  StretchEstimate estimate(const graph::Graph& healed,
                           std::vector<PairBound>* detail = nullptr);

  /// Bounds for each of `pairs` (alive in `healed`, u != v), in order,
  /// from one landmark wave that runs until their endpoints are
  /// settled. Leaves the pair-sampling stream untouched.
  std::vector<PairBound> bound_pairs(
      const graph::Graph& healed,
      std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs);

  std::size_t num_landmarks() const { return landmarks_.size(); }
  const std::vector<graph::NodeId>& landmarks() const { return landmarks_; }

 private:
  /// Open a sample over `view`: no endpoint yet, the alive ids' masks
  /// clear, and pool_ lists the alive ids ascending -- the rank -> id
  /// map estimate() draws through before the wave reuses the buffer.
  void begin_sample(const graph::FlatView& view);
  /// Give alive node v a depth-table slot under `key` unless the key
  /// has one already. A sample keys its endpoints one way throughout:
  /// estimate() by alive rank, so its replayed draws find their slots
  /// without turning ranks back into ids, and bound_pairs() by id.
  void add_endpoint(std::size_t key, graph::NodeId v);
  /// The slot of `key`; endpoint_.size() or more when it has none.
  std::uint32_t slot(std::size_t key) const { return slot_[key] - slot_base_; }
  /// The wave: record every surviving landmark's depth at each endpoint.
  void run_wave(const graph::FlatView& view);
  /// Interval for the pair of endpoints in slots su and sv.
  PairBound bound(std::uint32_t su, std::uint32_t sv) const;

  std::size_t n_ = 0;
  StretchEstimatorOptions opts_;
  util::Rng rng_;
  std::vector<graph::NodeId> landmarks_;
  std::vector<std::uint32_t> d0_;  ///< [landmark][node] time-0 rows
  /// Per key: slot_base_ + its endpoint's slot when it has one in the
  /// current sample. Earlier samples' values lie below slot_base_, so
  /// one unsigned compare tells them apart without clearing the map.
  std::vector<std::uint32_t> slot_;
  std::uint32_t slot_base_ = 0;
  std::vector<graph::NodeId> endpoint_;  ///< [slot] node id
  /// [slot][landmark] healed depths (kUnreachable until reached).
  std::vector<std::uint32_t> depth_;
  // Wave workspace (persisted; warm samples allocate nothing).
  /// Frontier lists while the wave pushes, then the alive ids still
  /// missing a surviving landmark.
  std::vector<graph::NodeId> pool_;
  std::vector<std::uint32_t> unsettled_;  ///< slots still missing one
  std::vector<std::uint64_t> reached_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> next_;
};

}  // namespace dash::analysis

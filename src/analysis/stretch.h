// stretch.h -- the Section 4.6.1 stretch metric.
//
// stretch(u,v) = dist_healed(u,v) / dist_original(u,v); network stretch
// is the maximum over alive pairs. Distances in the *original* network
// are frozen at construction (deleted nodes still count as hops there,
// exactly as in the paper, where the denominator is the time-0 network).
//
// Sampling runs on the flat traversal engine (graph/flat_view.h): one
// CSR snapshot shared by the whole sample, sources advanced 64 at a
// time as bit-parallel BFS waves over one reusable workspace, and a
// single pass that yields max and average together -- callers that
// report both no longer pay APSP twice.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/traversal.h"

namespace dash::analysis {

/// One stretch sample: the max and the average over alive pairs,
/// computed in a single APSP pass. Both are +inf when some alive pair
/// is disconnected, 0 when fewer than 2 nodes are alive.
struct StretchStats {
  double max = 0.0;
  double average = 0.0;
};

class StretchTracker {
 public:
  /// Snapshots all-pairs distances of `original` (must be connected).
  /// O(n^2) memory -- intended for graphs up to a few thousand nodes.
  explicit StretchTracker(const graph::Graph& original);

  /// Max and average stretch over all alive pairs of `healed` (same
  /// node-id space as the original), computed in 64-source bit-parallel
  /// BFS waves. The reduction folds per-source partials in ascending
  /// source order.
  StretchStats stretch_stats(const graph::Graph& healed) const;

  std::uint32_t original_distance(graph::NodeId u, graph::NodeId v) const {
    return original_[u * n_ + v];
  }

 private:
  /// Per-source partial: max ratio and sum of ratios over pairs (u, v)
  /// with v > u; `disconnected` set when some alive v is unreachable
  /// from u.
  struct SourcePartial {
    double max = 0.0;
    double sum = 0.0;
    bool disconnected = false;
  };

  /// State for one 64-source wave of the bit-parallel APSP
  /// (see stretch.cpp): per-node reach/frontier masks plus per-source
  /// accumulators indexed by the pair's original distance (bounded by
  /// the time-0 diameter). The hot loops do pure word ops and integer
  /// adds; the ~diameter divisions happen once per source. max folds
  /// as max_b(max_d[b] / b) -- every division is the identical IEEE op
  /// the per-pair formulation performs, so the max is bit-identical to
  /// it; the sum folds as sum_b(sum_d[b] / b) in ascending b
  /// (documented rounding, deterministic).
  struct SampleWorkspace {
    std::vector<std::uint64_t> reached;    ///< per node: source bits seen
    std::vector<std::uint64_t> frontier;   ///< bits that arrived last round
    std::vector<std::uint64_t> next;       ///< bits arriving this round
    /// Per node: bits of this wave's sources with id < node -- pairs
    /// are credited to their smaller-id endpoint exactly once.
    std::vector<std::uint64_t> prefix_mask;
    std::vector<std::uint64_t> sum_d;  ///< [source][base] distance sums
    std::vector<std::uint32_t> max_d;  ///< [source][base] distance maxes
  };

  /// Run one wave in ws_: sources alive[idx0 .. idx0+count) with
  /// count <= 64, writing out[0..count) partials.
  void wave_partials(const graph::FlatView& view,
                     const std::vector<graph::NodeId>& alive,
                     std::size_t idx0, std::size_t count,
                     SourcePartial* out) const;
  /// Decode the view's alive set into alive_: every wave level sweeps
  /// the ids and every wave indexes its sources by rank, so a sample
  /// pays for the decode once.
  void list_alive(const graph::FlatView& view) const;

  std::size_t n_;
  std::vector<std::uint32_t> original_;  ///< row-major APSP matrix
  std::uint32_t diameter0_ = 0;          ///< max finite original distance
  /// Reusable wave workspace. Mutable workspace only -- samples are
  /// const reads of the tracker; concurrent samples on one tracker need
  /// external synchronization.
  mutable SampleWorkspace ws_;
  /// The current sample's alive ids, ascending (see list_alive()).
  mutable std::vector<graph::NodeId> alive_;
};

}  // namespace dash::analysis

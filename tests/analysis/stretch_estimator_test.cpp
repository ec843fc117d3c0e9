// StretchEstimator differential against the exact tracker: the
// guarantee under test is *containment* -- every pair's true stretch
// lies inside the estimator's [lower, upper] interval, and the
// estimate's aggregate bounds bracket the exact values computed from
// the same pairs.
#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/stretch.h"
#include "analysis/stretch_estimator.h"
#include "api/network.h"
#include "api/observers.h"
#include "api/scenario.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::analysis {
namespace {

using graph::Graph;
using graph::NodeId;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Exact stretch of one pair: BFS on the healed graph over the frozen
/// time-0 denominator.
double exact_stretch(const StretchTracker& tracker, const Graph& healed,
                     NodeId u, NodeId v) {
  graph::TraversalScratch scratch;
  const std::uint32_t dt =
      graph::bfs_distance(healed.flat_view(), u, v, scratch);
  if (dt == graph::kUnreachable) return kInf;
  return static_cast<double>(dt) /
         static_cast<double>(tracker.original_distance(u, v));
}

/// Heal-churn a BA graph with DASH and check every sampled pair's
/// interval against the exact value, at several points of the run.
void run_containment_check(std::size_t n, std::size_t landmarks,
                           std::uint64_t seed) {
  util::Rng graph_rng(seed);
  Graph original = graph::barabasi_albert(n, 2, graph_rng);
  const StretchTracker tracker(original);
  StretchEstimator estimator(
      original, {.landmarks = landmarks, .pairs = 64, .seed = seed});

  // Play in slices so the check sees several healed states, not just
  // the final one.
  api::Network net(Graph(original), "dash", seed);
  std::vector<PairBound> detail;
  for (int slice = 0; slice < 4; ++slice) {
    util::Rng slice_rng(seed + 10 + static_cast<std::uint64_t>(slice));
    (void)net.play(api::Scenario::parse("strike:maxnodex8"), slice_rng);
    const Graph& healed = net.graph();
    const StretchEstimate est = estimator.estimate(healed, &detail);
    ASSERT_EQ(est.pairs, 64u);

    double exact_max = 0.0;
    std::size_t exact_max_pairs = 0;
    for (const PairBound& b : detail) {
      const double truth = exact_stretch(tracker, healed, b.u, b.v);
      if (b.disconnected) {
        // Disconnection claims are certificates, never guesses.
        EXPECT_TRUE(std::isinf(truth));
        continue;
      }
      if (b.unbounded) continue;
      EXPECT_FALSE(std::isinf(truth));
      EXPECT_LE(b.lower, truth + 1e-12)
          << "pair (" << b.u << "," << b.v << ")";
      EXPECT_GE(b.upper, truth - 1e-12)
          << "pair (" << b.u << "," << b.v << ")";
      // Distance bounds bracket the true distances too.
      graph::TraversalScratch scratch;
      const std::uint32_t dt =
          graph::bfs_distance(healed.flat_view(), b.u, b.v, scratch);
      EXPECT_LE(b.healed_lower, dt);
      EXPECT_GE(b.healed_upper, dt);
      const std::uint32_t d0 = tracker.original_distance(b.u, b.v);
      EXPECT_LE(b.original_lower, d0);
      EXPECT_GE(b.original_upper, d0);
      exact_max = std::max(exact_max, truth);
      ++exact_max_pairs;
    }
    if (exact_max_pairs > 0 && est.disconnected == 0) {
      EXPECT_LE(est.max_lower, exact_max + 1e-12);
      EXPECT_GE(est.max_upper, exact_max - 1e-12);
    }
  }
}

TEST(StretchEstimator, ContainmentSmall) {
  run_containment_check(128, 8, 0xE57);
}

TEST(StretchEstimator, ContainmentMediumMoreLandmarks) {
  run_containment_check(512, 24, 0xE58);
}

TEST(StretchEstimator, ContainmentLargeN1024) {
  run_containment_check(1024, 16, 0xE59);
}

TEST(StretchEstimator, PairsInvolvingLandmarksAreExact) {
  // A landmark lies on every shortest path from itself, so pairs with a
  // landmark endpoint get a zero-width healed bound and an exact
  // denominator: lower == upper == the true stretch.
  util::Rng rng(7);
  Graph g = graph::random_tree(64, rng);
  const StretchTracker tracker(g);
  StretchEstimator estimator(g, {.landmarks = 4, .pairs = 8, .seed = 7});
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId lm : estimator.landmarks()) {
    for (NodeId v = 0; v < 64; v += 9) {
      if (v != lm) pairs.emplace_back(lm, v);
    }
  }
  // healed == original: stretch 1 everywhere
  const std::vector<PairBound> bounds = estimator.bound_pairs(g, pairs);
  ASSERT_EQ(bounds.size(), pairs.size());
  for (const PairBound& b : bounds) {
    EXPECT_DOUBLE_EQ(b.lower, 1.0);
    EXPECT_DOUBLE_EQ(b.upper, 1.0);
  }
}

TEST(StretchEstimator, DetectsDisconnection) {
  // Two nodes joined by a bridge; deleting the bridge node splits the
  // graph. Every surviving landmark sits on one side, so any sampled
  // cross pair is certified disconnected.
  Graph g = graph::path_graph(9);
  StretchEstimator estimator(g, {.landmarks = 3, .pairs = 16, .seed = 1});
  g.delete_node(4);
  const std::pair<NodeId, NodeId> cross{0, 8};
  const PairBound b = estimator.bound_pairs(g, {&cross, 1}).front();
  EXPECT_TRUE(b.disconnected);
  EXPECT_TRUE(std::isinf(b.lower));
  EXPECT_TRUE(std::isinf(b.upper));

  const StretchEstimate est = estimator.estimate(g);
  EXPECT_GT(est.disconnected, 0u);
  EXPECT_TRUE(std::isinf(est.max_upper));
}

TEST(StretchEstimator, LandmarkCountClampsToDistinctNodes) {
  Graph g = graph::path_graph(3);
  StretchEstimator estimator(g, {.landmarks = 64, .pairs = 4, .seed = 2});
  EXPECT_EQ(estimator.num_landmarks(), 3u);
}

TEST(StretchEstimatorObserver, EstimateModeSamplesUpperBound) {
  util::Rng rng(21);
  Graph g = graph::barabasi_albert(96, 2, rng);
  api::Network net(std::move(g), "dash", 21);
  auto obs = std::make_unique<api::StretchObserver>(
      api::StretchObserverOptions{.sample_every = 2,
                                  .estimate = true,
                                  .landmarks = 8,
                                  .pairs = 32});
  const api::StretchObserver* raw = obs.get();
  net.add_observer(std::move(obs));
  util::Rng play(22);
  (void)net.play(api::Scenario::parse("strike:maxnodex12"), play);
  EXPECT_TRUE(raw->estimating());
  EXPECT_GT(raw->last_estimate().pairs, 0u);
  EXPECT_EQ(raw->last_sample(), raw->last_estimate().max_upper);
  EXPECT_GE(raw->last_estimate().max_upper,
            raw->last_estimate().max_lower);
  EXPECT_GT(raw->max_stretch(), 0.0);
}

}  // namespace
}  // namespace dash::analysis

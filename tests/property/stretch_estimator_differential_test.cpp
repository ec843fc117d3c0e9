// stretch_estimator_differential_test.cpp -- analysis::StretchEstimator
// (depths recorded only at a sample's endpoints, a sweep that drops
// settled nodes and stops once every endpoint is settled) against the
// k x n estimator it replaced, kept verbatim in
// tests/stretch_estimator_reference.h. Both are built with equal
// options and seed on the same time-0 graph and must agree exactly:
//
//   * after every round of every registered healer under strike,
//     targeted and batch schedules, down to 2 alive nodes, with 1, 3,
//     16 and 64 landmarks and 1, 2 and 256 pairs per sample -- every
//     PairBound field of every sampled pair and every StretchEstimate
//     field. Each round samples again on the same streams, so the
//     pair-sampling stream must also end where the reference's does.
//     Joins are left out: they stop stretch sampling.
//   * on hand-picked pairs through bound_pairs(): landmark endpoints,
//     and endpoints repeated within one call.
//
// The runs must reach states where every landmark is dead (unbounded
// pairs) and, under `none`, disconnected ones (certified pairs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../stretch_estimator_reference.h"
#include "../test_helpers.h"
#include "analysis/stretch_estimator.h"
#include "api/api.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dash {
namespace {

using analysis::PairBound;
using analysis::StretchEstimate;
using analysis::StretchEstimator;
using analysis::StretchEstimatorOptions;
using dash::util::Rng;
using graph::Graph;
using graph::NodeId;
using testing::ReferenceStretchEstimator;

bool same(const PairBound& a, const PairBound& b) {
  // Exact compares throughout: infinite bounds compare equal.
  return a.u == b.u && a.v == b.v && a.healed_lower == b.healed_lower &&
         a.healed_upper == b.healed_upper &&
         a.original_lower == b.original_lower &&
         a.original_upper == b.original_upper && a.lower == b.lower &&
         a.upper == b.upper && a.disconnected == b.disconnected &&
         a.unbounded == b.unbounded;
}

bool same(const StretchEstimate& a, const StretchEstimate& b) {
  return a.max_lower == b.max_lower && a.max_upper == b.max_upper &&
         a.avg_lower == b.avg_lower && a.avg_upper == b.avg_upper &&
         a.pairs == b.pairs && a.bounded == b.bounded &&
         a.disconnected == b.disconnected && a.unbounded == b.unbounded;
}

std::string describe(const PairBound& b) {
  std::ostringstream out;
  out << "(" << b.u << "," << b.v << ") healed [" << b.healed_lower << ","
      << b.healed_upper << "] original [" << b.original_lower << ","
      << b.original_upper << "] stretch [" << b.lower << "," << b.upper
      << "]" << (b.disconnected ? " disconnected" : "")
      << (b.unbounded ? " unbounded" : "");
  return out.str();
}

std::string describe(const StretchEstimate& e) {
  std::ostringstream out;
  out << "max [" << e.max_lower << "," << e.max_upper << "] avg ["
      << e.avg_lower << "," << e.avg_upper << "] pairs " << e.pairs
      << " bounded " << e.bounded << " disconnected " << e.disconnected
      << " unbounded " << e.unbounded;
  return out.str();
}

/// What the runs of one schedule reached, so the test can demand that
/// the corner cases really were compared.
struct Coverage {
  std::size_t samples = 0;
  std::size_t all_landmarks_dead = 0;  ///< samples with no landmark alive
  std::size_t unbounded_pairs = 0;
  std::size_t disconnected_pairs = 0;
  std::size_t hand_picked_pairs = 0;
  std::size_t min_alive = static_cast<std::size_t>(-1);
};

/// Hand-picked pairs for bound_pairs(): every alive landmark against the
/// lowest and the highest alive id, and the lowest id in several pairs
/// of one call, once in each order and once twice.
std::vector<std::pair<NodeId, NodeId>> hand_picked(
    const Graph& g, const std::vector<NodeId>& landmarks) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  const std::vector<NodeId> alive = g.alive_nodes();
  if (alive.size() < 2) return pairs;
  const NodeId lo = alive.front();
  const NodeId hi = alive.back();
  const NodeId mid = alive[alive.size() / 2];
  for (const NodeId lm : landmarks) {
    if (!g.alive(lm)) continue;
    if (lm != lo) pairs.emplace_back(lm, lo);
    if (lm != hi) pairs.emplace_back(hi, lm);
  }
  pairs.emplace_back(lo, hi);
  pairs.emplace_back(hi, lo);
  pairs.emplace_back(lo, hi);
  if (mid != lo) pairs.emplace_back(lo, mid);
  return pairs;
}

/// After every round: both estimators sample the healed graph, then
/// bound the hand-picked pairs.
class DifferentialObserver final : public api::Observer {
 public:
  DifferentialObserver(const Graph& original, StretchEstimatorOptions opts,
                       Coverage& coverage)
      : estimator_(original, opts),
        reference_(original, opts),
        coverage_(coverage) {}

  std::string name() const override { return "stretch-differential"; }
  void on_round_end(const api::Network& net, const api::RoundEvent&) override {
    compare(net.graph());
  }

  /// Sample once more outside the play (the final state).
  void compare(const Graph& g) {
    const StretchEstimate got = estimator_.estimate(g, &got_detail_);
    const StretchEstimate want = reference_.estimate(g, &want_detail_);
    ++coverage_.samples;
    coverage_.min_alive = std::min(coverage_.min_alive, g.num_alive());
    const bool none_alive = std::none_of(
        reference_.landmarks().begin(), reference_.landmarks().end(),
        [&](NodeId lm) { return g.alive(lm); });
    if (none_alive && g.num_alive() >= 2) ++coverage_.all_landmarks_dead;
    coverage_.unbounded_pairs += want.unbounded;
    coverage_.disconnected_pairs += want.disconnected;
    if (!same(got, want)) {
      mismatch("estimate: got " + describe(got) + ", reference " +
               describe(want));
    }
    if (got_detail_.size() != want_detail_.size()) {
      mismatch("detail sizes " + std::to_string(got_detail_.size()) +
               " vs " + std::to_string(want_detail_.size()));
    } else {
      for (std::size_t i = 0; i < got_detail_.size(); ++i) {
        if (!same(got_detail_[i], want_detail_[i])) {
          mismatch("sampled pair " + std::to_string(i) + ": got " +
                   describe(got_detail_[i]) + ", reference " +
                   describe(want_detail_[i]));
        }
      }
    }

    const auto pairs = hand_picked(g, reference_.landmarks());
    if (pairs.empty()) return;
    const std::vector<PairBound> bounds = estimator_.bound_pairs(g, pairs);
    reference_.sample_wave(g);
    coverage_.hand_picked_pairs += pairs.size();
    if (bounds.size() != pairs.size()) {
      mismatch("bound_pairs returned " + std::to_string(bounds.size()) +
               " bounds for " + std::to_string(pairs.size()) + " pairs");
      return;
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const PairBound want_b =
          reference_.bound_pair(pairs[i].first, pairs[i].second);
      if (!same(bounds[i], want_b)) {
        mismatch("hand-picked pair " + std::to_string(i) + ": got " +
                 describe(bounds[i]) + ", reference " + describe(want_b));
      }
    }
  }

  const StretchEstimator& estimator() const { return estimator_; }
  const ReferenceStretchEstimator& reference() const { return reference_; }
  std::size_t mismatches = 0;
  std::string first_mismatch;

 private:
  void mismatch(std::string what) {
    if (mismatches++ == 0) {
      first_mismatch = "sample " + std::to_string(coverage_.samples) + ": " +
                       std::move(what);
    }
  }

  StretchEstimator estimator_;
  ReferenceStretchEstimator reference_;
  Coverage& coverage_;
  std::vector<PairBound> got_detail_;
  std::vector<PairBound> want_detail_;
};

constexpr const char* kSchedules[] = {
    "floor:2;strike:randomx80",                                  // strike
    "floor:2;targeted:neighborofmax",                            // targeted
    // batch: the batch protocol heals even under `none`, so a strike
    // first gives `none` disconnected states to batch-delete from
    "floor:2;strike:randomx12;batch:4,randomx8;batch:3,hubsx20;"
    "strike:randomx10",
};

class StretchEstimatorSchedules
    : public ::testing::TestWithParam<const char*> {};

TEST_P(StretchEstimatorSchedules, MatchesReferenceAfterEveryRound) {
  const api::Scenario scenario = api::Scenario::parse(GetParam());
  Coverage coverage;
  std::uint64_t seed = 0;
  for (const std::string& healer : testing::every_healer()) {
    for (const std::size_t landmarks : {1, 3, 16, 64}) {
      for (const std::size_t pairs : {1, 2, 256}) {
        ++seed;
        SCOPED_TRACE(healer + " landmarks " + std::to_string(landmarks) +
                     " pairs " + std::to_string(pairs) + " seed " +
                     std::to_string(seed));
        Rng rng(seed);
        // 72 nodes: more than 64, so 64 landmarks use every mask bit.
        Graph original = graph::barabasi_albert(72, 2, rng);
        DifferentialObserver diff(
            original,
            StretchEstimatorOptions{
                .landmarks = landmarks, .pairs = pairs, .seed = seed * 31},
            coverage);
        ASSERT_EQ(diff.estimator().landmarks(), diff.reference().landmarks());
        ASSERT_EQ(diff.estimator().num_landmarks(),
                  std::min<std::size_t>(landmarks, 72));
        api::Network net(std::move(original), healer, seed);
        net.add_observer(&diff);
        net.play(scenario, rng);
        diff.compare(net.graph());
        EXPECT_EQ(diff.mismatches, 0u) << diff.first_mismatch;
      }
    }
  }
  EXPECT_GT(coverage.samples, 0u);
  EXPECT_EQ(coverage.min_alive, 2u);
  EXPECT_GT(coverage.all_landmarks_dead, 0u);
  EXPECT_GT(coverage.unbounded_pairs, 0u);
  EXPECT_GT(coverage.disconnected_pairs, 0u);
  EXPECT_GT(coverage.hand_picked_pairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedules, StretchEstimatorSchedules,
                         ::testing::ValuesIn(kSchedules),
                         testing::spec_test_name);

}  // namespace
}  // namespace dash

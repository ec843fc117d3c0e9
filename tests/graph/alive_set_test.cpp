// graph::AliveSet rank/select against ascending iteration: kth(r) for
// every rank, at sizes on and around word boundaries, at several
// densities, and after grow() adds ids past the old capacity.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/alive_set.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

/// The members in ascending order, as iteration yields them.
std::vector<NodeId> iterate(const AliveSet& set) {
  std::vector<NodeId> out;
  for (const NodeId v : set) out.push_back(v);
  return out;
}

/// kth(r) against the r-th iterated member, for every rank, and the
/// iteration against the membership model it was built from.
void expect_kth_matches_iteration(const AliveSet& set,
                                  const std::vector<bool>& model,
                                  const std::string& what) {
  std::vector<NodeId> want;
  for (NodeId v = 0; v < model.size(); ++v) {
    if (model[v]) want.push_back(v);
  }
  const std::vector<NodeId> members = iterate(set);
  ASSERT_EQ(members, want) << what;
  ASSERT_EQ(set.size(), members.size()) << what;
  for (std::size_t r = 0; r < members.size(); ++r) {
    ASSERT_EQ(set.kth(r), members[r]) << what << ", rank " << r;
  }
}

/// Erase members of a full set of n until about `density` of them
/// remain; returns the membership model.
std::vector<bool> thin(AliveSet& set, std::size_t n, double density,
                       util::Rng& rng) {
  std::vector<bool> model(n, true);
  const auto keep = static_cast<std::uint64_t>(density * 1000.0);
  for (NodeId v = 0; v < n; ++v) {
    if (rng.below(1000) >= keep) {
      set.erase(v);
      model[v] = false;
    }
  }
  return model;
}

TEST(AliveSet, KthMatchesIterationAtEveryRank) {
  for (const std::size_t n : {1, 63, 64, 65, 4096, 5000}) {
    for (const double density : {1.0, 0.9, 0.5, 0.1, 0.01}) {
      util::Rng rng(n * 31 + static_cast<std::uint64_t>(density * 100));
      AliveSet set(n);
      std::vector<bool> model = thin(set, n, density, rng);
      const std::string what =
          "n " + std::to_string(n) + ", density " + std::to_string(density);
      expect_kth_matches_iteration(set, model, what);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(AliveSet, KthAtSingleMembersAndFullWords) {
  // One member at each position of a word, then only the last id, then
  // words that are all ones or all zeros around a lone member.
  for (NodeId only = 0; only < 130; ++only) {
    AliveSet set(130);
    std::vector<bool> model(130, false);
    for (NodeId v = 0; v < 130; ++v) {
      if (v != only) set.erase(v);
    }
    model[only] = true;
    expect_kth_matches_iteration(set, model, "only " + std::to_string(only));
    if (::testing::Test::HasFatalFailure()) return;
  }
  AliveSet set(256);
  std::vector<bool> model(256, true);
  for (NodeId v = 64; v < 128; ++v) {
    set.erase(v);
    model[v] = false;
  }
  expect_kth_matches_iteration(set, model, "an empty word between full ones");
}

TEST(AliveSet, KthMatchesIterationAfterGrow) {
  for (const std::size_t n : {1, 63, 64, 65, 4096, 5000}) {
    util::Rng rng(n + 7);
    AliveSet set(n);
    std::vector<bool> model = thin(set, n, 0.5, rng);
    // Grow one id at a time past a word boundary (a capacity doubling
    // for every n but 5000), inserting about half of the new ids.
    const auto add = [&](NodeId v) {
      model.push_back(false);
      if (rng.below(2) == 0) {
        set.insert(v);
        model[v] = true;
      }
    };
    for (auto v = static_cast<NodeId>(n); v < n + 70; ++v) {
      set.grow(v + 1);
      add(v);
    }
    expect_kth_matches_iteration(set, model,
                                 "n " + std::to_string(n) + " grown by 70");
    if (::testing::Test::HasFatalFailure()) return;
    // Then in one jump.
    const std::size_t before = model.size();
    set.grow(3 * n + 200);
    for (auto v = static_cast<NodeId>(before); v < 3 * n + 200; ++v) add(v);
    expect_kth_matches_iteration(set, model,
                                 "n " + std::to_string(n) + " grown to " +
                                     std::to_string(3 * n + 200));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace dash::graph

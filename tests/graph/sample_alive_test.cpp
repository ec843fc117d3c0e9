// graph::sample_alive against the sampler it replaced: the same draws,
// the same nodes in the same order, and the RNG left in the same state.
#include "graph/sample.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

/// The reference: build the alive list, then partially Fisher-Yates
/// shuffle it in place (the scenario layer's sampler before the alive
/// index existed).
std::vector<NodeId> pick_distinct_alive(const Graph& g, util::Rng& rng,
                                        std::size_t k) {
  auto alive = g.alive_nodes();
  const std::size_t take = std::min(k, alive.size());
  for (std::size_t i = 0; i < take; ++i) {
    const auto j =
        i + static_cast<std::size_t>(rng.below(alive.size() - i));
    std::swap(alive[i], alive[j]);
  }
  alive.resize(take);
  return alive;
}

/// A graph with dead ids scattered through it and joined ids past its
/// initial size.
Graph churned_graph(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Graph g = barabasi_albert(n, 2, rng);
  for (std::size_t i = 0; i < n / 3; ++i) {
    const NodeId v = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (g.alive(v)) g.delete_node(v);
    if (i % 2 == 0) {
      const NodeId u = g.add_node();
      const NodeId peer = g.kth_alive(rng.below(g.num_alive() - 1));
      if (peer != u) g.add_edge(u, peer);
    }
  }
  return g;
}

void expect_same_draws(const Graph& g, std::uint64_t seed, std::size_t k) {
  util::Rng ref(seed);
  util::Rng got(seed);
  EXPECT_EQ(sample_alive(g, got, k), pick_distinct_alive(g, ref, k))
      << "k=" << k << " alive=" << g.num_alive();
  EXPECT_EQ(got.next_u64(), ref.next_u64()) << "k=" << k;
}

TEST(SampleAlive, MatchesBuildAndShuffle) {
  for (const std::size_t n : {3u, 64u, 257u, 1000u}) {
    const Graph g = churned_graph(n, 0x5a + n);
    ASSERT_LT(g.num_alive(), g.num_nodes());
    const std::size_t alive = g.num_alive();
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
          alive - 1, alive, alive + 3}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        expect_same_draws(g, seed * 7919 + k, k);
      }
    }
  }
}

TEST(SampleAlive, StreamStaysAlignedAcrossManyDraws) {
  const Graph g = churned_graph(500, 11);
  util::Rng ref(3);
  util::Rng got(3);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t k = 1 + static_cast<std::size_t>(i % 3);
    ASSERT_EQ(sample_alive(g, got, k), pick_distinct_alive(g, ref, k))
        << "call " << i;
  }
  EXPECT_EQ(got.next_u64(), ref.next_u64());
}

TEST(SampleAlive, WholeLargeGraphIsOnePermutation) {
  // A batch as large as the graph: the swap map holds up to k entries
  // and must stay linear in k (a large `batch:<k>,random`).
  const Graph g = churned_graph(1 << 16, 5);
  expect_same_draws(g, 17, g.num_alive());
  util::Rng rng(17);
  auto all = sample_alive(g, rng, g.num_alive());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, g.alive_nodes());
}

TEST(SampleAlive, EmptyGraphDrawsNothing) {
  Graph g(2);
  g.delete_node(0);
  g.delete_node(1);
  util::Rng got(9);
  util::Rng ref(9);
  EXPECT_TRUE(sample_alive(g, got, 3).empty());
  EXPECT_EQ(got.next_u64(), ref.next_u64());
}

}  // namespace
}  // namespace dash::graph

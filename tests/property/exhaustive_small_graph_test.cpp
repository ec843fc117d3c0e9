// exhaustive_small_graph_test.cpp -- brute-force verification on ALL
// connected graphs of 4 and 5 nodes: DASH (and SDASH) keep the network
// connected and the healing graph a forest for EVERY deletion order
// (n=4) / the canonical order and several random orders (n=5).
// Exhaustive small cases catch edge conditions that random sweeps miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "../forest_reference.h"
#include "core/factory.h"
#include "core/healers.h"
#include "core/healing_state.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash {
namespace {

using core::DeletionContext;
using core::HealingState;
using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

/// Build the n-node graph whose edge set is the bits of `mask` over
/// the lexicographic pair ordering (0,1),(0,2),...,(n-2,n-1).
Graph graph_from_mask(std::size_t n, std::uint32_t mask) {
  Graph g(n);
  std::size_t bit = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b, ++bit) {
      if (mask & (1u << bit)) g.add_edge(a, b);
    }
  }
  return g;
}

/// Run one full deletion order; EXPECTs connectivity and forest-ness
/// after every heal. Returns max delta ever.
std::uint32_t run_order(const Graph& g0, const std::vector<NodeId>& order,
                        const std::string& healer_name,
                        std::uint64_t seed) {
  Graph g = g0;
  Rng rng(seed);
  HealingState st(g, rng);
  auto healer = core::make_strategy(healer_name);
  for (NodeId v : order) {
    if (!g.alive(v) || g.num_alive() <= 1) break;
    const DeletionContext ctx = st.begin_deletion(g, v);
    g.delete_node(v);
    healer->heal(g, st, ctx);
    EXPECT_TRUE(graph::is_connected(g));
    EXPECT_TRUE(dash::testing::healing_graph_is_forest(g, st));
  }
  return st.max_delta_ever();
}

TEST(ExhaustiveSmall, AllConnected4NodeGraphsAllOrders) {
  constexpr std::size_t n = 4;
  constexpr std::uint32_t kMaxMask = 1u << (n * (n - 1) / 2);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);

  std::size_t graphs_tested = 0;
  for (std::uint32_t mask = 0; mask < kMaxMask; ++mask) {
    const Graph g0 = graph_from_mask(n, mask);
    if (!graph::is_connected(g0)) continue;
    ++graphs_tested;
    auto perm = order;
    do {
      for (const char* healer : {"dash", "sdash"}) {
        const std::uint32_t max_delta =
            run_order(g0, perm, healer, 17 + mask);
        // 2 log2 4 = 4.
        EXPECT_LE(max_delta, 4u) << "mask=" << mask << " healer=" << healer;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  // There are 38 connected labeled graphs on 4 nodes.
  EXPECT_EQ(graphs_tested, 38u);
}

TEST(ExhaustiveSmall, AllConnected5NodeGraphsSampledOrders) {
  constexpr std::size_t n = 5;
  constexpr std::uint32_t kMaxMask = 1u << (n * (n - 1) / 2);

  Rng perm_rng(99);
  std::size_t graphs_tested = 0;
  for (std::uint32_t mask = 0; mask < kMaxMask; ++mask) {
    const Graph g0 = graph_from_mask(n, mask);
    if (!graph::is_connected(g0)) continue;
    ++graphs_tested;

    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), 0);
    // Canonical order plus two random permutations per graph.
    run_order(g0, order, "dash", mask);
    for (int r = 0; r < 2; ++r) {
      perm_rng.shuffle(order);
      run_order(g0, order, "dash", mask * 3 + r);
    }
  }
  // There are 728 connected labeled graphs on 5 nodes.
  EXPECT_EQ(graphs_tested, 728u);
}

TEST(ExhaustiveSmall, BaselinesStayConnectedOn4NodeGraphs) {
  constexpr std::size_t n = 4;
  constexpr std::uint32_t kMaxMask = 1u << (n * (n - 1) / 2);
  std::vector<NodeId> order{3, 1, 0, 2};
  for (std::uint32_t mask = 0; mask < kMaxMask; ++mask) {
    const Graph g0 = graph_from_mask(n, mask);
    if (!graph::is_connected(g0)) continue;
    for (const char* healer : {"binarytree", "line", "capped:2"}) {
      Graph g = g0;
      Rng rng(5);
      HealingState st(g, rng);
      auto h = core::make_strategy(healer);
      for (NodeId v : order) {
        if (!g.alive(v) || g.num_alive() <= 1) break;
        const DeletionContext ctx = st.begin_deletion(g, v);
        g.delete_node(v);
        h->heal(g, st, ctx);
        ASSERT_TRUE(graph::is_connected(g))
            << healer << " mask=" << mask;
      }
    }
  }
}

}  // namespace
}  // namespace dash

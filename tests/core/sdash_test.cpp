#include "core/healers.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../forest_reference.h"
#include "../test_helpers.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::core {
namespace {

using dash::testing::RunSpec;
using dash::testing::run_checked;
using dash::util::Rng;

HealAction delete_and_heal(Graph& g, HealingState& st,
                           HealingStrategy& strat, NodeId v) {
  const DeletionContext ctx = st.begin_deletion(g, v);
  g.delete_node(v);
  return strat.heal(g, st, ctx);
}

TEST(Sdash, SurrogateKeepsForestAndConnectivity) {
  Rng rng(1);
  Graph g = graph::star_graph(4);  // hub 0, leaves 1,2,3
  HealingState st(g, rng);
  st.add_healing_edge(g, 3, 1);
  st.add_healing_edge(g, 3, 2);
  st.propagate_min_id(g, {1, 2, 3});

  SdashStrategy sdash;
  delete_and_heal(g, st, sdash, 0);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_TRUE(dash::testing::healing_graph_is_forest(g, st));
}

TEST(Sdash, SurrogateConditionExactlyAlgorithm3) {
  // Target: |S| = 2 with delta(w)=0 and delta(m)=1, so the Algorithm 3
  // test  delta(w) + |S| - 1 <= delta(m)  reads 0 + 1 <= 1 and fires.
  Rng rng(3);
  Graph h = graph::star_graph(4);  // hub 0, leaves 1,2,3
  HealingState st(h, rng);
  st.add_healing_edge(h, 1, 2);  // delta(1)=delta(2)=1
  st.propagate_min_id(h, {1, 2});
  // Deleting the hub: UN = { rep{1,2}, 3 }, so S = {3 (delta 0), rep
  // (delta 1)}.
  SdashStrategy sdash;
  const HealAction a = delete_and_heal(h, st, sdash, 0);
  EXPECT_TRUE(graph::is_connected(h));
  EXPECT_TRUE(a.used_surrogate);
  // w = node 3 gained one star edge and lost its hub edge: net 0.
  EXPECT_EQ(st.delta(3), 0);
}

TEST(Sdash, FallsBackToBinaryTree) {
  Rng rng(4);
  Graph g = graph::star_graph(8);  // all deltas equal (0)
  HealingState st(g, rng);
  SdashStrategy sdash;
  const HealAction a = delete_and_heal(g, st, sdash, 0);
  // Condition: 0 + 7 - 1 = 6 <= 0 fails => DASH-style tree.
  EXPECT_FALSE(a.used_surrogate);
  EXPECT_EQ(a.new_graph_edges.size(), 6u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_LE(st.max_delta_ever(), 3u);
}

TEST(Sdash, FullScheduleInvariantsOnBaGraph) {
  Rng rng(5);
  run_checked(graph::barabasi_albert(128, 2, rng),
              {.attack = "neighborofmax", .healer = "sdash", .seed = 6});
}

TEST(Sdash, FullScheduleOnMaxNodeAttack) {
  Rng rng(6);
  run_checked(graph::barabasi_albert(96, 2, rng),
              {.attack = "maxnode", .healer = "sdash", .seed = 7});
}

TEST(Sdash, EmpiricalDegreeStaysLogarithmic) {
  // The paper observes (not proves) delta <= ~2 log2 n for SDASH; give
  // a small safety factor.
  Rng rng(7);
  const std::size_t n = 256;
  const auto result = run_checked(
      graph::barabasi_albert(n, 2, rng),
      {.attack = "neighborofmax", .healer = "sdash", .seed = 8});
  EXPECT_LE(result.max_delta,
            static_cast<std::uint32_t>(3.0 * std::log2(n)));
}

TEST(Sdash, StretchStaysModestUnderMaxNodeAttack) {
  Rng rng(8);
  const std::size_t n = 64;
  const auto result = run_checked(
      graph::barabasi_albert(n, 2, rng),
      {.attack = "maxnode", .healer = "sdash", .seed = 9,
       .track_stretch = true, .max_deletions = n / 2});
  // Sec 4.6: SDASH keeps stretch around O(log n); generous cap.
  EXPECT_LE(result.max_stretch, 2.0 * std::log2(n));
}

TEST(SdashSlack, SlackLoosensTrigger) {
  // Star of equals: paper rule (slack 0) never surrogates, generous
  // slack always does.
  Rng rng(20);
  Graph g0 = graph::star_graph(6);
  HealingState st0(g0, rng);
  SdashStrategy strict(0);
  const HealAction a0 = delete_and_heal(g0, st0, strict, 0);
  EXPECT_FALSE(a0.used_surrogate);

  Rng rng2(20);
  Graph g1 = graph::star_graph(6);
  HealingState st1(g1, rng2);
  SdashStrategy loose(10);
  const HealAction a1 = delete_and_heal(g1, st1, loose, 0);
  EXPECT_TRUE(a1.used_surrogate);
  EXPECT_TRUE(graph::is_connected(g1));
  EXPECT_TRUE(dash::testing::healing_graph_is_forest(g1, st1));
}

TEST(SdashSlack, NameAndFactory) {
  EXPECT_EQ(SdashStrategy(0).name(), "SDASH");
  EXPECT_EQ(SdashStrategy(3).name(), "SDASH(slack=3)");
  EXPECT_EQ(SdashStrategy(3).surrogate_slack(), 3u);
}

TEST(SdashSlack, FullScheduleStaysConnectedAndBounded) {
  // Generous slack costs at most ~slack above the set's max delta per
  // heal; over a schedule the degree stays modest.
  Rng rng(21);
  Graph g = graph::barabasi_albert(128, 2, rng);
  api::Network net(std::move(g), make_strategy("sdash:4"), rng);
  auto atk = attack::make_attack("maxnode", 22);
  const auto r = dash::testing::play_attack(net, *atk);
  EXPECT_TRUE(r.stayed_connected);
  EXPECT_LE(r.max_delta, static_cast<std::uint32_t>(
                             2.0 * std::log2(128.0)) + 4);
}

TEST(Sdash, SurrogateCountReported) {
  Rng rng(9);
  Graph g = graph::barabasi_albert(128, 2, rng);
  const auto result = run_checked(
      std::move(g),
      {.attack = "neighborofmax", .healer = "sdash", .seed = 10});
  // On a long schedule SDASH should fire the surrogate rule at least
  // once (deltas diverge quickly under NMS).
  EXPECT_GT(result.surrogate_heals, 0u);
}

}  // namespace
}  // namespace dash::core

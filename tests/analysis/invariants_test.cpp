#include "analysis/invariants.h"

#include <gtest/gtest.h>

#include "graph/dynamic_connectivity.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dash::analysis {
namespace {

using core::DeletionContext;
using core::HealAction;
using core::HealingState;
using dash::util::Rng;
using graph::Graph;

TEST(Connectivity, PassAndFail) {
  Graph g = graph::path_graph(4);
  EXPECT_TRUE(check_connectivity(g).ok);
  g.delete_node(1);
  const Check c = check_connectivity(g);
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.violation.find("2 components"), std::string::npos);
}

TEST(Forest, DetectsCycleInHealingGraph) {
  Rng rng(1);
  Graph g(3);
  HealingState st(g, rng);
  st.add_healing_edge(g, 0, 1);
  st.add_healing_edge(g, 1, 2);
  st.propagate_min_id(g, {0, 1, 2});
  HealingForestWalk walk;
  EXPECT_TRUE(walk.check(g, st, {}).ok);
  st.add_healing_edge(g, 2, 0);
  EXPECT_EQ(walk.check(g, st, {}).violation,
            "healing graph G' contains a cycle");
  // Without the forest requirement the cycle only surfaces through the
  // rem bound, which is undefined on it.
  EXPECT_TRUE(walk.check(g, st, {.require_forest = false}).ok);
  EXPECT_EQ(walk.check(g, st, {.require_forest = false,
                               .check_rem_bound = true})
                .violation,
            "rem(0) undefined: its G'-tree contains a cycle");
}

TEST(ComponentIds, MixedIdDetected) {
  Rng rng(2);
  Graph g(3);
  HealingState st(g, rng);
  st.add_healing_edge(g, 0, 1);
  // No propagation: the pair 0-1 still carries two distinct ids.
  HealingForestWalk walk;
  EXPECT_EQ(walk.check(g, st, {}).violation,
            "component of node 0 has mixed ids");
  st.propagate_min_id(g, {0, 1});
  EXPECT_TRUE(walk.check(g, st, {}).ok);
}

TEST(RemBound, HoldsInitially) {
  Rng rng(3);
  const Graph g = graph::path_graph(5);
  const HealingState st(g, rng);
  EXPECT_TRUE(HealingForestWalk().check(g, st, {.check_rem_bound = true}).ok);
}

TEST(WeightConservation, TracksTransfers) {
  Rng rng(4);
  Graph g = graph::path_graph(3);
  HealingState st(g, rng);
  EXPECT_TRUE(check_weight_conservation(g, st, 3).ok);
  st.begin_deletion(g, 0);
  g.delete_node(0);
  EXPECT_TRUE(check_weight_conservation(g, st, 3).ok);
  EXPECT_FALSE(check_weight_conservation(g, st, 4).ok);
}

TEST(Locality, FlagsForeignEdges) {
  DeletionContext ctx;
  ctx.deleted = 9;
  ctx.neighbors_g = {2, 5, 7};

  HealAction good;
  good.new_graph_edges = {{2, 5}, {5, 7}};
  EXPECT_TRUE(check_locality(good, ctx).ok);

  HealAction bad;
  bad.new_graph_edges = {{2, 3}};  // 3 was not a neighbor of 9
  const Check c = check_locality(bad, ctx);
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.violation.find("non-neighbors"), std::string::npos);
}

TEST(DeltaBound, ChecksTwoLogN) {
  Rng rng(5);
  Graph g(16);
  HealingState st(g, rng);
  // 2 log2 16 = 8; push one node's delta to 9 via healing edges.
  for (graph::NodeId u = 1; u <= 9; ++u) st.add_healing_edge(g, 0, u);
  EXPECT_FALSE(check_delta_bound(st, 16).ok);
  EXPECT_TRUE(check_delta_bound(st, 1 << 10).ok);  // bound 20 > 9
}

TEST(CheckStruct, FactoryHelpers) {
  EXPECT_TRUE(Check::pass().ok);
  const Check f = Check::fail("oops");
  EXPECT_FALSE(f.ok);
  EXPECT_EQ(f.violation, "oops");
}

TEST(ComponentTracker, AgreesWithBfsAcrossMutations) {
  Rng rng(21);
  Graph g = graph::barabasi_albert(48, 2, rng);
  graph::DynamicConnectivity dc(g);
  EXPECT_TRUE(check_component_tracker(g, dc).ok);
  const auto survivors = g.delete_node(3);
  dc.node_removed(3, survivors, /*may_split=*/true);
  EXPECT_TRUE(check_component_tracker(g, dc).ok);
}

TEST(ComponentTracker, FlagsDesyncedTracker) {
  Graph g = graph::path_graph(4);
  graph::DynamicConnectivity dc(g);
  // Cut the path WITHOUT telling the tracker: the differential checker
  // must flag the divergence (1 tracked component vs 2 real ones).
  g.remove_edge(1, 2);
  EXPECT_FALSE(check_component_tracker(g, dc).ok);
}

}  // namespace
}  // namespace dash::analysis

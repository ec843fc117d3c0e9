// set_relation_property_test.cpp -- the paper's set identities for the
// reconnection machinery, checked on live schedules:
//   * UN(v,G) and N(v,G') are disjoint (stated in Sec. 2.1);
//   * UN(v,G) u N(v,G') is a subset of N(v,G);
//   * UN members carry pairwise-distinct component ids;
//   * batch-of-one deletions are byte-identical to single deletions.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/batch.h"
#include "core/healers.h"
#include "core/healing_state.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash {
namespace {

using core::DeletionContext;
using core::HealingState;
using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

class SetRelations : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetRelations, UnIdentitiesAlongSchedule) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  Graph g = graph::barabasi_albert(72, 2, rng);
  HealingState st(g, rng);
  core::DashStrategy dash;
  Rng pick(seed * 3 + 1);

  while (g.num_alive() > 2) {
    const auto alive = g.alive_nodes();
    const NodeId v =
        alive[static_cast<std::size_t>(pick.below(alive.size()))];

    const DeletionContext ctx = st.begin_deletion(g, v);
    std::vector<NodeId> un;
    st.representatives(ctx.neighbors_g, {&ctx.component_id, 1}, un);
    const auto rs = st.reconnection_set(ctx);

    // UN ∩ N(v,G') = ∅.
    for (NodeId u : un) {
      ASSERT_TRUE(std::find(ctx.forest_neighbors.begin(),
                            ctx.forest_neighbors.end(),
                            u) == ctx.forest_neighbors.end());
    }
    // UN ∪ N(v,G') ⊆ N(v,G) and sizes add up (disjoint union).
    ASSERT_EQ(rs.size(), un.size() + ctx.forest_neighbors.size());
    for (NodeId u : rs) {
      ASSERT_TRUE(std::binary_search(ctx.neighbors_g.begin(),
                                     ctx.neighbors_g.end(), u));
    }
    // UN representatives have pairwise distinct component ids, none
    // matching the deleted node's component.
    for (std::size_t i = 0; i < un.size(); ++i) {
      ASSERT_NE(st.component_id(un[i]), ctx.component_id);
      for (std::size_t j = i + 1; j < un.size(); ++j) {
        ASSERT_NE(st.component_id(un[i]), st.component_id(un[j]));
      }
    }
    // The reconnection set comes back sorted by (delta, initial id).
    for (std::size_t i = 1; i < rs.size(); ++i) {
      const bool lt = st.delta(rs[i - 1]) < st.delta(rs[i]);
      const bool eq_tie = st.delta(rs[i - 1]) == st.delta(rs[i]) &&
                          st.initial_id(rs[i - 1]) < st.initial_id(rs[i]);
      ASSERT_TRUE(lt || eq_tie);
    }

    g.delete_node(v);
    dash.heal(g, st, ctx);
    ASSERT_TRUE(graph::is_connected(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetRelations,
                         ::testing::Range<std::uint64_t>(1, 9));

class BatchOfOne : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchOfOne, MatchesSingleDeletionExactly) {
  const std::uint64_t seed = GetParam();
  Rng rng_graph(seed);
  const Graph g0 = graph::barabasi_albert(64, 2, rng_graph);

  Rng rng_a(seed + 100), rng_b(seed + 100);
  Graph g_single = g0;
  Graph g_batch = g0;
  HealingState st_single(g_single, rng_a);
  HealingState st_batch(g_batch, rng_b);
  core::DashStrategy dash;
  Rng pick(seed * 7 + 3);

  while (g_single.num_alive() > 1) {
    const auto alive = g_single.alive_nodes();
    const NodeId v =
        alive[static_cast<std::size_t>(pick.below(alive.size()))];

    const DeletionContext ctx = st_single.begin_deletion(g_single, v);
    g_single.delete_node(v);
    dash.heal(g_single, st_single, ctx);

    core::dash_delete_and_heal_batch(g_batch, st_batch, {v});

    ASSERT_TRUE(g_single.same_topology(g_batch));
    for (NodeId u : g_single.alive_nodes()) {
      ASSERT_EQ(st_single.delta(u), st_batch.delta(u));
      ASSERT_EQ(st_single.component_id(u), st_batch.component_id(u));
      ASSERT_EQ(st_single.weight(u), st_batch.weight(u));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchOfOne,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace dash

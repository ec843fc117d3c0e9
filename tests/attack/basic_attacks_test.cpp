#include <gtest/gtest.h>

#include <set>

#include "attack/basic.h"
#include "attack/factory.h"
#include "core/healing_state.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dash::attack {
namespace {

using core::HealingState;
using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

HealingState make_state(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  return HealingState(g, rng);
}

TEST(MaxNode, PicksHub) {
  const Graph g = graph::star_graph(6);
  const auto st = make_state(g, 1);
  MaxNodeAttack atk;
  EXPECT_EQ(atk.select(g, st), 0u);
}

TEST(MaxNode, TieGoesToLowestId) {
  const Graph g = graph::cycle_graph(5);
  const auto st = make_state(g, 2);
  MaxNodeAttack atk;
  EXPECT_EQ(atk.select(g, st), 0u);
}

TEST(NeighborOfMax, PicksANeighborOfHub) {
  const Graph g = graph::star_graph(8);
  const auto st = make_state(g, 3);
  NeighborOfMaxAttack atk(7);
  for (int i = 0; i < 50; ++i) {
    const NodeId v = atk.select(g, st);
    EXPECT_NE(v, 0u);  // never the hub itself
    EXPECT_TRUE(g.has_edge(0, v));
  }
}

TEST(NeighborOfMax, CoversManyNeighbors) {
  const Graph g = graph::star_graph(8);
  const auto st = make_state(g, 4);
  NeighborOfMaxAttack atk(11);
  std::set<NodeId> seen;
  for (int i = 0; i < 200; ++i) seen.insert(atk.select(g, st));
  EXPECT_GE(seen.size(), 5u);  // random choice spreads out
}

TEST(NeighborOfMax, IsolatedHubIsTakenDirectly) {
  Graph g(3);  // all isolated; max-degree node is 0
  const auto st = make_state(g, 5);
  NeighborOfMaxAttack atk(13);
  EXPECT_EQ(atk.select(g, st), 0u);
}

TEST(RandomAttack, OnlyAliveVictims) {
  Graph g = graph::path_graph(6);
  g.delete_node(2);
  const auto st = make_state(graph::path_graph(6), 6);
  RandomAttack atk(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(g.alive(atk.select(g, st)));
  }
}

TEST(RandomAttack, DeterministicPerSeed) {
  const Graph g = graph::path_graph(50);
  const auto st = make_state(g, 7);
  RandomAttack a(19), b(19);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.select(g, st), b.select(g, st));
  }
}

TEST(MinNode, PicksLeaf) {
  const Graph g = graph::star_graph(5);
  const auto st = make_state(g, 8);
  MinNodeAttack atk;
  EXPECT_EQ(atk.select(g, st), 1u);  // lowest-id degree-1 node
}

TEST(MaxDelta, FollowsBurden) {
  Graph g = graph::star_graph(5);
  Rng rng(9);
  HealingState st(g, rng);
  st.add_healing_edge(g, 2, 3);
  st.add_healing_edge(g, 2, 4);  // delta(2) = 2, the max
  MaxDeltaAttack atk;
  EXPECT_EQ(atk.select(g, st), 2u);
}

TEST(Factory, BuildsEveryListedAttack) {
  for (const auto& name : attack_names()) {
    const auto atk = make_attack(name, 42);
    EXPECT_FALSE(atk->name().empty()) << name;
  }
}

TEST(Factory, AliasesAndUnknown) {
  EXPECT_EQ(make_attack("nms", 1)->name(), "NeighborOfMax");
  EXPECT_EQ(make_attack("MAXNODE", 1)->name(), "MaxNode");
  EXPECT_THROW(make_attack("nope", 1), std::invalid_argument);
}

TEST(Factory, UnknownNameErrorListsRegisteredAttacks) {
  try {
    make_attack("nope", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'nope'"), std::string::npos) << msg;
    for (const char* expected : {"maxnode", "neighborofmax", "random",
                                 "minnode", "maxdelta"}) {
      EXPECT_NE(msg.find(expected), std::string::npos)
          << "missing '" << expected << "' in: " << msg;
    }
  }
}

TEST(Factory, RegistryServesLookups) {
  EXPECT_TRUE(attack_registry().contains("maxnode"));
  EXPECT_TRUE(attack_registry().contains("nms"));
  EXPECT_FALSE(attack_registry().contains("levelattack"));
}

}  // namespace
}  // namespace dash::attack

// theorem1_property_test.cpp -- parameterized sweeps checking every
// quantitative bullet of Theorem 1 across graph families, sizes, seeds
// and attack strategies.
#include <gtest/gtest.h>

#include <cmath>

#include "../test_helpers.h"
#include "attack/factory.h"
#include "core/factory.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dash {
namespace {

using core::HealingState;
using dash::util::Rng;
using graph::Graph;

struct Thm1Param {
  const char* family;
  std::size_t n;
  const char* attack;
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<Thm1Param>& info) {
  return std::string(info.param.family) + "_" +
         std::to_string(info.param.n) + "_" + info.param.attack + "_s" +
         std::to_string(info.param.seed);
}

Graph make_family(const char* family, std::size_t n, Rng& rng) {
  const std::string f = family;
  if (f == "ba") return graph::barabasi_albert(n, 2, rng);
  if (f == "tree") return graph::random_tree(n, rng);
  if (f == "gnp") return graph::connected_gnp(n, 6.0 / static_cast<double>(n) + 0.02, rng);
  if (f == "cycle") return graph::cycle_graph(n);
  if (f == "grid") return graph::grid_graph(n / 8, 8);
  ADD_FAILURE() << "unknown family " << family;
  return Graph(1);
}

class Theorem1Sweep : public ::testing::TestWithParam<Thm1Param> {};

TEST_P(Theorem1Sweep, AllBoundsHoldOverFullDeletion) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  Graph g = make_family(p.family, p.n, rng);
  const std::size_t n = g.num_nodes();

  api::Network net(std::move(g), core::make_strategy("dash"), rng);
  auto attacker = attack::make_attack(p.attack, p.seed * 31 + 7);

  api::InvariantOptions inv_opts;
  inv_opts.check_delta_bound = true;
  net.add_observer(std::make_unique<api::InvariantObserver>(inv_opts));
  const auto r = dash::testing::play_attack(net, *attacker);
  const auto& st = net.state();

  // Bullet 1: connectivity through the whole schedule + degree bound.
  EXPECT_TRUE(r.stayed_connected);
  EXPECT_TRUE(r.violation.empty()) << r.violation;
  const double log2n = std::log2(static_cast<double>(n));
  EXPECT_LE(static_cast<double>(r.max_delta), 2.0 * log2n + 1e-9);

  // Bullet 2 (message bound): <= 2 (d + 2 log n) ln n for every node.
  const double lnn = std::log(static_cast<double>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    const double d = static_cast<double>(st.initial_degree(v));
    const double bound = 2.0 * (d + 2.0 * log2n) * lnn;
    EXPECT_LE(static_cast<double>(st.messages_total(v)), bound + 1e-9)
        << "node " << v << " of initial degree " << d;
  }

  // Bullet 3 (record breaking): id changes per node O(log n) whp --
  // generous constant 3 ln n + 4.
  EXPECT_LE(static_cast<double>(st.max_id_changes()), 3.0 * lnn + 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, Theorem1Sweep,
    ::testing::Values(
        Thm1Param{"ba", 64, "neighborofmax", 1},
        Thm1Param{"ba", 128, "neighborofmax", 2},
        Thm1Param{"ba", 256, "neighborofmax", 3},
        Thm1Param{"ba", 128, "maxnode", 4},
        Thm1Param{"ba", 128, "random", 5},
        Thm1Param{"ba", 128, "maxdelta", 6},
        Thm1Param{"ba", 128, "minnode", 7},
        Thm1Param{"tree", 100, "neighborofmax", 8},
        Thm1Param{"tree", 200, "maxnode", 9},
        Thm1Param{"tree", 150, "maxdelta", 10},
        Thm1Param{"gnp", 96, "neighborofmax", 11},
        Thm1Param{"gnp", 128, "random", 12},
        Thm1Param{"cycle", 64, "maxnode", 13},
        Thm1Param{"cycle", 128, "random", 14},
        Thm1Param{"grid", 64, "neighborofmax", 15},
        Thm1Param{"grid", 128, "maxnode", 16}),
    param_name);

// Seeds sweep: the same configuration across many seeds (the "whp"
// claims should never fail at these sizes).
class Theorem1Seeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem1Seeds, DegreeBoundNeverViolated) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  Graph g = graph::barabasi_albert(96, 2, rng);
  api::Network net(std::move(g), core::make_strategy("dash"), rng);
  const auto r =
      net.play(api::Scenario::parse("targeted:neighborofmax"), seed);
  EXPECT_TRUE(r.stayed_connected);
  EXPECT_LE(static_cast<double>(r.max_delta),
            2.0 * std::log2(96.0) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, Theorem1Seeds,
                         ::testing::Range<std::uint64_t>(100, 120));

}  // namespace
}  // namespace dash

#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/traversal.h"
#include "util/hash.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

using dash::util::Rng;

TEST(BarabasiAlbert, SizeAndConnectivity) {
  Rng rng(1);
  for (std::size_t n : {10u, 50u, 200u}) {
    const Graph g = barabasi_albert(n, 2, rng);
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_TRUE(is_connected(g));
    // Star seed has m edges; each of the n-m-1 later nodes adds m.
    EXPECT_EQ(g.num_edges(), 2 + (n - 3) * 2);
  }
}

TEST(BarabasiAlbert, AttachedNodesHaveDegreeAtLeastM) {
  // Nodes beyond the seed star each attach with exactly m edges and can
  // only gain more; seed-star leaves may stay at degree 1.
  Rng rng(2);
  const Graph g = barabasi_albert(100, 3, rng);
  for (NodeId v = 4; v < g.num_nodes(); ++v) {
    EXPECT_GE(g.degree(v), 3u);
  }
}

TEST(BarabasiAlbert, ProducesSkewedDegrees) {
  // Preferential attachment should produce a hub well above the mean.
  Rng rng(3);
  const Graph g = barabasi_albert(500, 2, rng);
  const std::size_t mean_degree = 2 * g.num_edges() / g.num_alive();
  EXPECT_GT(g.degree(g.argmax_degree()), 4 * mean_degree);
}

TEST(BarabasiAlbert, DeterministicGivenSeed) {
  Rng a(7), b(7);
  const Graph g1 = barabasi_albert(60, 2, a);
  const Graph g2 = barabasi_albert(60, 2, b);
  EXPECT_TRUE(g1.same_topology(g2));
}

TEST(ErdosRenyi, EdgeCountNearExpectation) {
  Rng rng(4);
  const std::size_t n = 300;
  const double p = 0.05;
  const Graph g = erdos_renyi_gnp(n, p, rng);
  const double expected = p * static_cast<double>(n * (n - 1)) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              4 * std::sqrt(expected));
}

TEST(ErdosRenyi, ExtremeProbabilities) {
  Rng rng(5);
  EXPECT_EQ(erdos_renyi_gnp(20, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi_gnp(20, 1.0, rng).num_edges(), 190u);
}

TEST(ErdosRenyi, ConnectedVariantIsConnected) {
  Rng rng(6);
  const Graph g = connected_gnp(100, 0.08, rng);
  EXPECT_TRUE(is_connected(g));
}

TEST(RandomTree, IsTree) {
  Rng rng(8);
  for (std::size_t n : {2u, 10u, 100u}) {
    const Graph g = random_tree(n, rng);
    EXPECT_EQ(g.num_edges(), n - 1);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(KaryTree, StructureMetadata) {
  const KaryTree t = complete_kary_tree(3, 2);
  EXPECT_EQ(t.g.num_nodes(), 13u);  // 1 + 3 + 9
  EXPECT_EQ(t.g.num_edges(), 12u);
  EXPECT_TRUE(is_connected(t.g));
  EXPECT_EQ(t.parent[0], kInvalidNode);
  EXPECT_EQ(t.level[0], 0u);
  EXPECT_EQ(t.children[0].size(), 3u);
  for (NodeId c : t.children[0]) {
    EXPECT_EQ(t.parent[c], 0u);
    EXPECT_EQ(t.level[c], 1u);
    EXPECT_EQ(t.children[c].size(), 3u);
  }
  // Deepest level nodes are leaves.
  for (NodeId v = 4; v < 13; ++v) {
    EXPECT_EQ(t.level[v], 2u);
    EXPECT_TRUE(t.children[v].empty());
    EXPECT_EQ(t.g.degree(v), 1u);
  }
}

TEST(KaryTree, DepthZeroIsSingleRoot) {
  const KaryTree t = complete_kary_tree(4, 0);
  EXPECT_EQ(t.g.num_nodes(), 1u);
  EXPECT_EQ(t.g.num_edges(), 0u);
}

TEST(StructuredGraphs, PathCycleStarCompleteGrid) {
  EXPECT_EQ(path_graph(4).num_edges(), 3u);
  EXPECT_EQ(cycle_graph(4).num_edges(), 4u);
  EXPECT_EQ(star_graph(5).num_edges(), 4u);
  EXPECT_EQ(star_graph(5).degree(0), 4u);
  EXPECT_EQ(complete_graph(6).num_edges(), 15u);
  const Graph grid = grid_graph(3, 4);
  EXPECT_EQ(grid.num_nodes(), 12u);
  EXPECT_EQ(grid.num_edges(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_TRUE(is_connected(grid));
}

TEST(WattsStrogatz, PreservesEdgeCountAndConnectivityAtLowBeta) {
  Rng rng(9);
  const Graph g = watts_strogatz(100, 3, 0.1, rng);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 300u);  // rewiring preserves count
  EXPECT_TRUE(is_connected(g));    // k=3 lattice survives 10% rewiring
}

TEST(WattsStrogatz, BetaZeroIsLattice) {
  Rng rng(10);
  const Graph g = watts_strogatz(20, 2, 0.0, rng);
  for (NodeId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4u);
}

/// One generated graph as a line: FNV-1a over every id's sorted
/// neighbour list, the edge count, and the generator's RNG's next draw
/// (0 for the generators that take none).
std::string golden_line(const std::string& name, const Graph& g,
                        std::uint64_t next_draw) {
  std::string lists;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    lists += std::to_string(v) + (g.alive(v) ? ":" : "!");
    if (!g.alive(v)) continue;
    for (const NodeId u : g.neighbors(v)) lists += std::to_string(u) + ",";
    lists += "\n";
  }
  return name + " " + util::hex16(util::fnv1a64(lists)) + " edges " +
         std::to_string(g.num_edges()) + " next " + util::hex16(next_draw);
}

template <typename Make>
std::string seeded_line(const std::string& name, std::uint64_t seed,
                        Make make) {
  Rng rng(seed);
  const Graph g = make(rng);
  return golden_line(name + " seed " + std::to_string(seed), g,
                     rng.next_u64());
}

TEST(GeneratorGolden, EveryGeneratorMatchesRecordedHashes) {
  // Every generator at two or three sizes, hashed with the RNG position
  // it leaves behind: a change to how a generator builds its graph must
  // keep these lines; a change that means to move a graph or a draw
  // re-records them and says so.
  std::vector<std::string> got = {
      seeded_line("ba(60,2)", 1,
                  [](Rng& r) { return barabasi_albert(60, 2, r); }),
      seeded_line("ba(300,3)", 7,
                  [](Rng& r) { return barabasi_albert(300, 3, r); }),
      seeded_line("ba(2000,2)", 42,
                  [](Rng& r) { return barabasi_albert(2000, 2, r); }),
      seeded_line("gnp(80,0.1)", 3,
                  [](Rng& r) { return erdos_renyi_gnp(80, 0.1, r); }),
      seeded_line("gnp(400,0.02)", 11,
                  [](Rng& r) { return erdos_renyi_gnp(400, 0.02, r); }),
      seeded_line("connected_gnp(100,0.08)", 6,
                  [](Rng& r) { return connected_gnp(100, 0.08, r); }),
      seeded_line("connected_gnp(60,0.15)", 13,
                  [](Rng& r) { return connected_gnp(60, 0.15, r); }),
      seeded_line("tree(50)", 8, [](Rng& r) { return random_tree(50, r); }),
      seeded_line("tree(400)", 21,
                  [](Rng& r) { return random_tree(400, r); }),
      seeded_line("ws(100,3,0.1)", 9,
                  [](Rng& r) { return watts_strogatz(100, 3, 0.1, r); }),
      seeded_line("ws(40,2,0.5)", 5,
                  [](Rng& r) { return watts_strogatz(40, 2, 0.5, r); }),
      seeded_line("ws(20,2,0)", 10,
                  [](Rng& r) { return watts_strogatz(20, 2, 0.0, r); }),
      golden_line("path(1)", path_graph(1), 0),
      golden_line("path(17)", path_graph(17), 0),
      golden_line("cycle(3)", cycle_graph(3), 0),
      golden_line("cycle(25)", cycle_graph(25), 0),
      golden_line("star(1)", star_graph(1), 0),
      golden_line("star(30)", star_graph(30), 0),
      golden_line("complete(1)", complete_graph(1), 0),
      golden_line("complete(12)", complete_graph(12), 0),
      golden_line("grid(1,5)", grid_graph(1, 5), 0),
      golden_line("grid(4,7)", grid_graph(4, 7), 0),
  };
  for (const auto& [arity, depth] : {std::pair{3, 2}, std::pair{2, 5}}) {
    const KaryTree t = complete_kary_tree(arity, depth);
    std::string parents;
    for (const NodeId p : t.parent) parents += std::to_string(p) + ",";
    got.push_back(golden_line("kary(" + std::to_string(arity) + "," +
                                  std::to_string(depth) + ") parents " +
                                  util::hex16(util::fnv1a64(parents)),
                              t.g, 0));
  }
  const std::vector<std::string> want = {
      "ba(60,2) seed 1 fc2b228593322f06 edges 116 next 26bb1a822dd12982",
      "ba(300,3) seed 7 3556337330bfc8f2 edges 891 next fdca47a5e38cce01",
      "ba(2000,2) seed 42 a9a8c1ab9e73ba87 edges 3996 next 44cac157ba351741",
      "gnp(80,0.1) seed 3 bd605b8d6d98096d edges 318 next 60a9a113722c44c0",
      "gnp(400,0.02) seed 11 697530ccf704f1c5 edges 1620 next 2142ff2d0230222c",
      "connected_gnp(100,0.08) seed 6 e6171ff3fa6ed179 "
      "edges 359 next 63e74b453832a3c4",
      "connected_gnp(60,0.15) seed 13 5daa5ce3660c5b97 "
      "edges 252 next ea54f24821e3c538",
      "tree(50) seed 8 ce78fab32ac04f67 edges 49 next fe2cd27fdf8aa9c9",
      "tree(400) seed 21 ab92c15879244bd4 edges 399 next 2f28acabb5195cea",
      "ws(100,3,0.1) seed 9 356b74428aaf69ed edges 300 next 4d8d1293190afe48",
      "ws(40,2,0.5) seed 5 8bb7559b90544fe5 edges 80 next 7e0e0934a7687273",
      "ws(20,2,0) seed 10 bb37909b17432a63 edges 40 next 964b4722d6e88da1",
      "path(1) 4e5cfc181d4421df edges 0 next 0000000000000000",
      "path(17) be8c574a102750b9 edges 16 next 0000000000000000",
      "cycle(3) 9d0ccaa7be298168 edges 3 next 0000000000000000",
      "cycle(25) 81f79edc41aff637 edges 25 next 0000000000000000",
      "star(1) 4e5cfc181d4421df edges 0 next 0000000000000000",
      "star(30) a2ec6c3a48bde4cd edges 29 next 0000000000000000",
      "complete(1) 4e5cfc181d4421df edges 0 next 0000000000000000",
      "complete(12) 5a0779b645803ccf edges 66 next 0000000000000000",
      "grid(1,5) b120b608387974ab edges 4 next 0000000000000000",
      "grid(4,7) c7f0e467a026c872 edges 45 next 0000000000000000",
      "kary(3,2) parents 21fca8727711a1ea 970158810888aa01 "
      "edges 12 next 0000000000000000",
      "kary(2,5) parents 827454774df57c18 028c4b0ee4307a0d "
      "edges 62 next 0000000000000000",
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

}  // namespace
}  // namespace dash::graph

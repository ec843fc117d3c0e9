#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

TEST(Io, RoundTripPreservesTopology) {
  dash::util::Rng rng(1);
  Graph g = barabasi_albert(50, 2, rng);
  g.delete_node(10);
  g.delete_node(33);

  std::stringstream buf;
  write_edge_list(buf, g);
  const Graph back = read_edge_list(buf);
  EXPECT_TRUE(g.same_topology(back));
}

TEST(Io, EmptyGraph) {
  std::stringstream buf;
  write_edge_list(buf, Graph(0));
  const Graph back = read_edge_list(buf);
  EXPECT_EQ(back.num_nodes(), 0u);
}

TEST(Io, CommentsAreIgnored) {
  std::istringstream in("# hello\n3\n# another\n0 1\n1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Io, MalformedInputThrows) {
  {
    std::istringstream in("abc\n");
    EXPECT_THROW(read_edge_list(in), std::runtime_error);
  }
  {
    std::istringstream in("3\n0 9\n");  // endpoint out of range
    EXPECT_THROW(read_edge_list(in), std::runtime_error);
  }
  {
    std::istringstream in("3\n1 1\n");  // self loop
    EXPECT_THROW(read_edge_list(in), std::runtime_error);
  }
  {
    std::istringstream in("");  // missing header
    EXPECT_THROW(read_edge_list(in), std::runtime_error);
  }
}

TEST(Metrics, MaxAndArgmaxDegree) {
  const Graph g = star_graph(6);
  EXPECT_EQ(max_degree(g), 5u);
  EXPECT_EQ(g.argmax_degree(), 0u);
}

TEST(Metrics, ArgmaxTiesGoToLowestId) {
  const Graph g = path_graph(4);  // degrees 1,2,2,1
  EXPECT_EQ(g.argmax_degree(), 1u);
}

TEST(Metrics, EmptyGraphDefaults) {
  Graph g(0);
  EXPECT_EQ(max_degree(g), 0u);
  EXPECT_EQ(g.argmax_degree(), kInvalidNode);
  EXPECT_EQ(average_degree(g), 0.0);
}

TEST(Metrics, AverageDegree) {
  const Graph g = cycle_graph(10);
  EXPECT_DOUBLE_EQ(average_degree(g), 2.0);
}

TEST(Metrics, DegreeHistogram) {
  const Graph g = star_graph(5);  // one degree-4 hub, four degree-1 leaves
  const auto hist = degree_histogram(g);
  ASSERT_EQ(hist.size(), 5u);
  EXPECT_EQ(hist[1], 4u);
  EXPECT_EQ(hist[4], 1u);
  EXPECT_EQ(hist[0], 0u);
}

TEST(Metrics, HistogramSkipsDead) {
  Graph g = star_graph(5);
  g.delete_node(0);
  const auto hist = degree_histogram(g);
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0], 4u);  // all leaves now isolated
}

}  // namespace
}  // namespace dash::graph

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/generators.h"
#include "graph/io.h"
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
  // Each rejected input names its line and what is wrong with it.
  const auto error_of = [](const std::string& text) -> std::string {
    std::istringstream in(text);
    try {
      (void)read_edge_list(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "(no error)";
  };
  const struct {
    const char* text;
    const char* message;
  } cases[] = {
      // A dead id listed twice (was a DASH_CHECK abort in delete_node).
      {"3\n! 1\n! 1\n", "line 3: dead node 1 is listed twice"},
      // Bytes after a line's fields (the 7 used to be dropped).
      {"3\n0 1 7\n", "line 2: edge line has bytes after its fields"},
      {"3\n! 1 2\n", "line 2: dead-node line has bytes after its fields"},
      {"3 4\n", "line 1: node-count header has bytes after its fields"},
      {"3\n0 1x\n", "line 2: edge line value '1x' is malformed"},
      // Node counts that do not fit NodeId fail before allocating (a
      // 2^32 header was a std::bad_alloc).
      {"4294967296\n", "line 1: node-count header value '4294967296'"},
      {"4294967295\n", "line 1: node-count header value '4294967295'"},
      {"99999999999999999999999\n", "line 1: node-count header value"},
      {"-3\n", "line 1: node-count header value '-3'"},
      {"# c\n3\n0 -1\n", "line 3: edge line value '-1'"},
      {"3\n0 3\n", "line 2: edge line value '3' is malformed or out of range"},
      {"3\n! 3\n", "line 2: dead-node line value '3'"},
      {"3\n!\n", "line 2: dead-node line is truncated"},
      {"3\n0\n", "line 2: edge line is truncated"},
      {"3\n2 2\n", "line 2: edge line is a self-loop"},
  };
  for (const auto& c : cases) {
    const std::string got = error_of(c.text);
    EXPECT_NE(got.find(c.message), std::string::npos)
        << "input: " << c.text << "error: " << got;
    EXPECT_EQ(got.rfind("edge list: ", 0), 0u) << got;
  }
  // Other spellings the old reader took still load: "!v" without the
  // blank, blank runs and tabs between fields, and CRLF line ends.
  std::istringstream ok("3\r\n!2\n0\t 1 \r\n");
  const Graph g = read_edge_list(ok);
  EXPECT_EQ(g.num_alive(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(Io, RepeatedReversedAndDeadNodeLinesLoadTheSameGraph) {
  // An edge listed twice, or once each way round, is one edge; a dead
  // node's edges go with it; ids never listed stay isolated and alive.
  std::istringstream in(
      "7\n! 3\n0 1\n1 0\n2 1\n0 1\n3 0\n3 2\n4 2\n2 4\n! 5\n5 6\n");
  const Graph g = read_edge_list(in);
  Graph want(7);
  want.add_edge(0, 1);
  want.add_edge(1, 2);
  want.add_edge(2, 4);
  want.add_edge(0, 3);
  want.add_edge(2, 3);
  want.add_edge(5, 6);
  want.delete_node(3);
  want.delete_node(5);
  EXPECT_TRUE(g.same_topology(want));
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_alive(), 5u);
  EXPECT_EQ(g.degree(6), 0u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.alive(3));

  // Written back out, each edge appears once, so the round trip holds.
  std::stringstream buf;
  write_edge_list(buf, g);
  EXPECT_TRUE(read_edge_list(buf).same_topology(g));
}

TEST(Metrics, MaxAndArgmaxDegree) {
  const Graph g = star_graph(6);
  EXPECT_EQ(g.degree(g.argmax_degree()), 5u);
  EXPECT_EQ(g.argmax_degree(), 0u);
}

TEST(Metrics, ArgmaxTiesGoToLowestId) {
  const Graph g = path_graph(4);  // degrees 1,2,2,1
  EXPECT_EQ(g.argmax_degree(), 1u);
}

TEST(Metrics, EmptyGraphDefaults) {
  Graph g(0);
  EXPECT_EQ(g.argmax_degree(), kInvalidNode);
}

}  // namespace
}  // namespace dash::graph

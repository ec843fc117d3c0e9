#include "analysis/dot.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/healers.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dash::analysis {
namespace {

using core::HealingState;
using dash::util::Rng;
using graph::Graph;

TEST(Dot, PlainGraphStructure) {
  Graph g = graph::path_graph(3);
  std::ostringstream out;
  write_dot(out, g);
  const std::string s = out.str();
  EXPECT_NE(s.find("graph network {"), std::string::npos);
  EXPECT_NE(s.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(s.find("n1 -- n2"), std::string::npos);
  EXPECT_EQ(s.find("n0 -- n2"), std::string::npos);
  EXPECT_EQ(s.back(), '\n');
}

TEST(Dot, SkipsDeadNodes) {
  Graph g = graph::path_graph(3);
  g.delete_node(1);
  std::ostringstream out;
  write_dot(out, g);
  EXPECT_EQ(out.str().find("n1"), std::string::npos);
  EXPECT_EQ(out.str().find("--"), std::string::npos);
}

TEST(Dot, HealingOverlayMarksForestEdges) {
  Rng rng(1);
  Graph g = graph::star_graph(5);
  HealingState st(g, rng);
  core::DashStrategy dash;
  const core::DeletionContext ctx = st.begin_deletion(g, 0);
  g.delete_node(0);
  dash.heal(g, st, ctx);

  std::ostringstream out;
  write_dot_with_healing(out, g, st);
  const std::string s = out.str();
  // All surviving edges are healing edges here.
  EXPECT_NE(s.find("color=red"), std::string::npos);
  EXPECT_NE(s.find("penwidth=2"), std::string::npos);
  EXPECT_NE(s.find("d="), std::string::npos);  // delta labels
}

TEST(Dot, OrganicEdgesKeepDefaultColor) {
  Rng rng(2);
  Graph g = graph::path_graph(3);
  HealingState st(g, rng);
  std::ostringstream out;
  write_dot_with_healing(out, g, st);
  EXPECT_NE(out.str().find("color=gray40"), std::string::npos);
  EXPECT_EQ(out.str().find("color=red"), std::string::npos);
}

TEST(Dot, CustomOptions) {
  Graph g = graph::path_graph(2);
  DotOptions opt;
  opt.graph_name = "custom";
  std::ostringstream out;
  write_dot(out, g, opt);
  EXPECT_NE(out.str().find("graph custom {"), std::string::npos);
}

}  // namespace
}  // namespace dash::analysis

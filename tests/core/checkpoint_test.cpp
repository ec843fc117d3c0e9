// checkpoint_test.cpp -- experiment checkpoint/resume: graph +
// healing-state serialization round-trips, and a resumed schedule is
// bit-identical to an uninterrupted one.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attack/factory.h"
#include "core/healers.h"
#include "core/healing_state.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/rng.h"

namespace dash::core {
namespace {

using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

void step_max_degree(Graph& g, HealingState& st, DashStrategy& dash) {
  NodeId best = graph::kInvalidNode;
  std::size_t best_deg = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    if (best == graph::kInvalidNode || g.degree(v) > best_deg) {
      best = v;
      best_deg = g.degree(v);
    }
  }
  const DeletionContext ctx = st.begin_deletion(g, best);
  g.delete_node(best);
  dash.heal(g, st, ctx);
}

TEST(Checkpoint, FreshStateRoundTrips) {
  Rng rng(1);
  Graph g = graph::barabasi_albert(32, 2, rng);
  HealingState st(g, rng);
  std::stringstream buf;
  st.save(buf);
  const HealingState back = HealingState::load(buf);
  EXPECT_TRUE(st == back);
}

TEST(Checkpoint, MidScheduleStateRoundTrips) {
  Rng rng(2);
  Graph g = graph::barabasi_albert(64, 2, rng);
  HealingState st(g, rng);
  DashStrategy dash;
  for (int i = 0; i < 20; ++i) step_max_degree(g, st, dash);

  std::stringstream buf;
  st.save(buf);
  const HealingState back = HealingState::load(buf);
  EXPECT_TRUE(st == back);
  EXPECT_EQ(back.max_delta_ever(), st.max_delta_ever());
  EXPECT_EQ(back.num_healing_edges(), st.num_healing_edges());
}

TEST(Checkpoint, ResumedScheduleMatchesUninterrupted) {
  Rng rng(3);
  const Graph g0 = graph::barabasi_albert(64, 2, rng);

  // Uninterrupted run.
  Rng rng_a(77);
  Graph g_full = g0;
  HealingState st_full(g_full, rng_a);
  DashStrategy dash_a;
  for (int i = 0; i < 40; ++i) step_max_degree(g_full, st_full, dash_a);

  // Interrupted at 20: checkpoint graph + state, reload, continue.
  Rng rng_b(77);
  Graph g_half = g0;
  HealingState st_half(g_half, rng_b);
  DashStrategy dash_b;
  for (int i = 0; i < 20; ++i) step_max_degree(g_half, st_half, dash_b);

  std::stringstream gbuf, sbuf;
  graph::write_edge_list(gbuf, g_half);
  st_half.save(sbuf);
  Graph g_resumed = graph::read_edge_list(gbuf);
  HealingState st_resumed = HealingState::load(sbuf);
  DashStrategy dash_c;
  for (int i = 0; i < 20; ++i) {
    step_max_degree(g_resumed, st_resumed, dash_c);
  }

  EXPECT_TRUE(g_resumed.same_topology(g_full));
  EXPECT_TRUE(st_resumed == st_full);
}

TEST(Checkpoint, MalformedInputThrows) {
  {
    std::istringstream in("not-a-state\n");
    EXPECT_THROW(HealingState::load(in), std::runtime_error);
  }
  {
    std::istringstream in("dashheal-state-v1\n3 0 0\n2 1 1\n");  // short
    EXPECT_THROW(HealingState::load(in), std::runtime_error);
  }
  {
    std::istringstream in("");
    EXPECT_THROW(HealingState::load(in), std::runtime_error);
  }

  // A valid 3-node state with one healing edge {0,1}. Each case below
  // replaces lines of it, and the error must name the broken field.
  const std::vector<std::string> base = {
      "dashheal-state-v1", "3 1 0 3", "3 1 2 1", "3 0 1 2", "3 0 0 2",
      "3 0 1 0",           "3 1 1 1", "3 0 0 0", "3 0 0 0", "3 0 0 0",
      "1 1",               "1 0",     "0"};
  using Edits = std::vector<std::pair<std::size_t, std::string>>;
  const auto text = [&base](const Edits& edits) {
    std::vector<std::string> lines = base;
    for (const auto& [line, with] : edits) lines[line] = with;
    std::string out;
    for (const std::string& line : lines) out += line + '\n';
    return out;
  };
  {
    std::istringstream in(text({}));
    EXPECT_NO_THROW(HealingState::load(in));
  }
  const std::pair<Edits, const char*> cases[] = {
      {{{10, "1 7"}}, "forest_adj of node 0"},     // id past the 3 nodes
      {{{2, "3 -1 2 1"}}, "initial_degree"},       // no sign on a size
      {{{1, "3 1 0 4"}}, "next_fresh_id"},         // ids are dense
      {{{1, "3 1 -1 3"}}, "max_delta_ever"},       // never negative
      {{{3, "3 0 1 3"}}, "initial_id"},            // not yet handed out
      {{{4, "3 0 0 9"}}, "component_id"},
      {{{5, "3 0 2147483648 0"}}, "delta"},        // past int32
      {{{7, "3 0 4294967296 0"}}, "id_changes"},   // past uint32
      {{{6, "3 1 18446744073709551616 1"}}, "weight"},  // past uint64
      {{{8, "3 0 x 0"}}, "msgs_sent"},
      {{{9, "4 0 0 0 0"}}, "msgs_recv"},           // length != node count
      {{{10, "99999999999999999 1"}}, "forest_adj of node 0"},
      {{{10, "1 0"}}, "forest_adj of node 0"},     // self-loop
      {{{11, "0"}}, "forest_adj is not symmetric"},
      {{{12, "1 0"}}, "forest_adj is not symmetric"},
      {{{10, "2 1 1"}, {11, "2 0 0"}}, "forest_adj lists an edge twice"},
      {{{1, "3 2 0 3"}}, "healing_edges"},
      {{{1, "99999999999999999999 1 0 3"}}, "node count"},
  };
  for (const auto& [edits, field] : cases) {
    std::istringstream in(text(edits));
    try {
      HealingState::load(in);
      ADD_FAILURE() << "loaded with a broken " << field;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << field << ": " << e.what();
    }
  }
}

TEST(Checkpoint, EqualityDetectsDifferences) {
  Rng rng(5);
  Graph g = graph::barabasi_albert(16, 2, rng);
  Rng rng2(5);
  Graph g2 = graph::barabasi_albert(16, 2, rng2);
  Rng sa(9), sb(9), sc(10);
  const HealingState a(g, sa);
  const HealingState b(g2, sb);
  const HealingState c(g, sc);
  EXPECT_TRUE(a == b);   // same seed stream -> identical ids
  EXPECT_FALSE(a == c);  // different id permutation
}

}  // namespace
}  // namespace dash::core

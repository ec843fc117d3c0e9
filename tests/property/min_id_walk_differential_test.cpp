// min_id_walk_differential_test.cpp -- the relabel-only min-id walk
// against the whole-tree walk it replaced, kept here as the reference.
//
// HealingState::propagate_min_id starts from the seeds that lack the
// minimum id and steps only into G'-neighbours that lack it too. The
// reference is the earlier implementation: one BFS over the whole
// merged G'-tree from the first seed, relabelling every node whose id
// differs from the seeds' minimum. The two agree exactly when every
// tree a heal merges was uniformly labelled, so this test replays
// every scenario phase type under every registered healer twice:
//
//   * through api::Network, recording each event and the state's save
//     bytes after it;
//   * through the core protocol calls Network makes, where after each
//     heal (each cluster's heal, for batch rounds) the four books the
//     walk writes -- component ids, id changes, messages sent and
//     received -- are recomputed from the pre-heal state by the
//     reference walk and installed in place of the production walk's.
//
// The second run therefore evolves under the reference walk alone, and
// its save bytes must equal the first run's after every event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.h"
#include "core/batch.h"
#include "core/factory.h"
#include "graph/generators.h"
#include "test_helpers.h"

namespace dash::core {
namespace {

constexpr std::size_t kNodes = 48;
constexpr std::uint64_t kGraphSeed = 0xD1FFu;
constexpr std::uint64_t kStateSeed = 3;
constexpr std::uint64_t kPlaySeed = 9;

using dash::testing::save_bytes;
using Event = dash::testing::StateEvent;
using Recorder = dash::testing::StateEventRecorder;
using dash::testing::cluster_seeds;

/// The books the min-id walk writes, copied out of a state.
struct IdBooks {
  explicit IdBooks(const HealingState& st) {
    for (NodeId v = 0; v < st.num_nodes(); ++v) {
      component_id.push_back(st.component_id(v));
      id_changes.push_back(st.id_changes(v));
      msgs_sent.push_back(st.messages_sent(v));
      msgs_recv.push_back(st.messages_received(v));
    }
  }
  std::vector<std::uint64_t> component_id;
  std::vector<std::uint32_t> id_changes;
  std::vector<std::uint64_t> msgs_sent;
  std::vector<std::uint64_t> msgs_recv;
};

/// The reference: the whole-tree walk, run on `books` (taken before
/// the heal) over the G' and G the heal left behind.
void whole_tree_walk(const graph::Graph& g, const HealingState& healed,
                     const std::vector<NodeId>& seeds, IdBooks& books) {
  if (seeds.empty()) return;
  std::uint64_t min_id = books.component_id[seeds.front()];
  for (NodeId s : seeds) min_id = std::min(min_id, books.component_id[s]);
  const std::vector<NodeId> tree = healed.healing_component(g, seeds.front());
  for (NodeId s : seeds) {
    ASSERT_NE(std::find(tree.begin(), tree.end(), s), tree.end())
        << "seed " << s << " is not in the merged tree";
  }
  for (NodeId x : tree) {
    if (books.component_id[x] == min_id) continue;
    books.component_id[x] = min_id;
    ++books.id_changes[x];
    books.msgs_sent[x] += g.degree(x);
    for (NodeId w : g.neighbors(x)) ++books.msgs_recv[w];
  }
}

template <typename T>
std::string vector_line(const std::vector<T>& v) {
  std::ostringstream out;
  out << v.size();
  for (const auto& x : v) out << ' ' << +x;
  return out.str();
}

/// `healed` with its walk books replaced by `books`. HealingState has
/// no setters, so this goes through the checkpoint format: save()
/// writes a header line, a counters line, then one line per per-node
/// vector, component ids third and the id-change and message books
/// sixth to eighth.
HealingState with_books(const HealingState& healed, const IdBooks& books) {
  std::istringstream in(save_bytes(healed));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  lines.at(4) = vector_line(books.component_id);
  lines.at(7) = vector_line(books.id_changes);
  lines.at(8) = vector_line(books.msgs_sent);
  lines.at(9) = vector_line(books.msgs_recv);
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  std::istringstream rebuilt(text);
  return HealingState::load(rebuilt);
}

/// The seeds each registered healer hands to propagate_min_id, from
/// the state it heals (after begin_deletion).
std::vector<NodeId> strategy_seeds(const std::string& healer,
                                   const HealingState& pre,
                                   const DeletionContext& ctx) {
  if (healer == "none") return {};                // never propagates
  if (healer == "graph") return ctx.neighbors_g;  // all of N(v, G)
  return pre.reconnection_set(ctx);               // UN(v,G) + N(v,G')
}

graph::Graph initial_graph() {
  dash::util::Rng rng(kGraphSeed);
  return graph::barabasi_albert(kNodes, 2, rng);
}

/// Replays `events` through the core protocol with the reference walk
/// and compares the save bytes after each one.
void replay_with_reference(const std::string& healer,
                           const std::vector<Event>& events,
                           const std::string& what) {
  graph::Graph g = initial_graph();
  dash::util::Rng state_rng(kStateSeed);
  HealingState st(g, state_rng);
  const auto strategy = make_strategy(healer);

  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.kind == Event::kJoin) {
      ASSERT_EQ(st.join_node(g, e.nodes), e.joined) << what << " event " << i;
    } else if (e.kind == Event::kDelete) {
      const DeletionContext ctx = st.begin_deletion(g, e.nodes.front());
      g.delete_node(e.nodes.front());
      const HealingState pre = st;
      strategy->heal(g, st, ctx);
      IdBooks books(pre);
      whole_tree_walk(g, st, strategy_seeds(healer, pre, ctx), books);
      st = with_books(st, books);
    } else {
      const BatchDeletionContext batch =
          begin_batch_deletion(st, g, e.nodes);
      delete_batch(g, e.nodes);
      for (const ClusterContext& cluster : batch.clusters) {
        BatchDeletionContext one;
        one.clusters = {cluster};
        one.total_deleted = batch.total_deleted;
        const HealingState pre = st;
        dash_heal_batch(g, st, one);
        IdBooks books(pre);
        whole_tree_walk(g, st, cluster_seeds(g, pre, cluster), books);
        st = with_books(st, books);
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(save_bytes(st), e.state)
        << what << ": state differs after event " << i;
  }
}

class MinIdWalkDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(MinIdWalkDifferential, SaveBytesMatchTheWholeTreeWalk) {
  const std::string spec = GetParam();
  for (const std::string& healer : dash::testing::every_healer()) {
    const std::string what = spec + " / " + healer;
    std::vector<Event> events;
    Recorder recorder(events);
    api::Network net(initial_graph(), healer, kStateSeed);
    net.add_observer(&recorder);
    net.play(api::Scenario::parse(spec), kPlaySeed);
    ASSERT_FALSE(events.empty()) << what;
    replay_with_reference(healer, events, what);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPhaseTypes, MinIdWalkDifferential,
                         ::testing::ValuesIn(dash::testing::kEveryPhaseType),
                         dash::testing::spec_test_name);

}  // namespace
}  // namespace dash::core

// healing_forest_walk_differential_test.cpp -- analysis::HealingForestWalk
// (one walk of G' per check) against the five per-property scans it
// replaced, kept below verbatim as the reference. Both must give the
// same `ok` and the same violation string:
//
//   * after every round and join of every registered healer under
//     strike, targeted, churn-with-joins and batch schedules, with the
//     rem bound on and off;
//   * on healthy states corrupted one property at a time and in pairs
//     (a cycle edge, a mixed id, one id on two trees, an E' edge missing
//     from G, a dead E' endpoint, delta drift, a rem violation, and the
//     id, delta and rem cases again on a G'-singleton, plus a dead
//     endpoint below all its E' partners and a cycle edge missing from
//     G), which also pins the order the failures rank in;
//   * on healthy states whose one G'-tree spans every alive node, and
//     every id.
//
// The one place the walk departs from the reference is Lemma 4 on a
// cyclic E', where the reference rem() aborts: the expectation there is
// the walk's named violation at the lowest node of the first cyclic
// tree (rem_bound_with_cycle_rule).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "../forest_reference.h"
#include "../test_helpers.h"
#include "analysis/invariants.h"
#include "api/api.h"
#include "core/healers.h"
#include "core/healing_state.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dash {
namespace {

using analysis::Check;
using analysis::ForestWalkOptions;
using analysis::HealingForestWalk;
using core::HealingState;
using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

// ---- the reference: the five per-property scans, verbatim --------------

namespace reference {

Check check_forest(const Graph& g, const HealingState& state) {
  if (dash::testing::healing_graph_is_forest(g, state)) return Check::pass();
  return Check::fail("healing graph G' contains a cycle");
}

Check check_component_ids(const Graph& g, const HealingState& state) {
  std::vector<char> visited(g.num_nodes(), 0);
  std::unordered_set<std::uint64_t> seen_ids;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (!g.alive(root) || visited[root]) continue;
    const auto comp = state.healing_component(g, root);
    const std::uint64_t id = state.component_id(root);
    for (NodeId v : comp) {
      visited[v] = 1;
      if (state.component_id(v) != id) {
        return Check::fail("component of node " + std::to_string(root) +
                           " has mixed ids");
      }
    }
    if (!seen_ids.insert(id).second) {
      return Check::fail("component id " + std::to_string(id) +
                         " appears in two distinct G'-components");
    }
  }
  return Check::pass();
}

Check check_rem_bound(const Graph& g, const HealingState& state) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    const auto rem = static_cast<double>(dash::testing::rem(g, state, v));
    const double bound = std::exp2(static_cast<double>(state.delta(v)) / 2.0);
    if (rem + 1e-9 < bound) {
      return Check::fail("rem(" + std::to_string(v) + ")=" +
                         std::to_string(rem) + " < 2^(delta/2)=" +
                         std::to_string(bound) + " with delta=" +
                         std::to_string(state.delta(v)));
    }
  }
  return Check::pass();
}

Check check_healing_subgraph(const Graph& g, const HealingState& state) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    for (NodeId u : state.forest_neighbors(v)) {
      if (!g.alive(u) || !g.has_edge(v, u)) {
        return Check::fail("healing edge {" + std::to_string(v) + "," +
                           std::to_string(u) + "} is not in the network");
      }
    }
  }
  return Check::pass();
}

Check check_delta_consistency(const Graph& g, const HealingState& state) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    if (state.delta(v) != state.raw_degree_increase(g, v)) {
      return Check::fail(
          "delta(" + std::to_string(v) + ")=" +
          std::to_string(state.delta(v)) + " != deg_now - deg_init = " +
          std::to_string(state.raw_degree_increase(g, v)));
    }
  }
  return Check::pass();
}

}  // namespace reference

/// check_rem_bound's ascending scan, except that the first alive node
/// whose G'-tree holds a cycle (the lowest node of that tree) fails as
/// the walk names it, where the reference's rem() would abort.
Check rem_bound_with_cycle_rule(const Graph& g, const HealingState& state) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    const std::vector<NodeId> tree = state.healing_component(g, v);
    std::size_t entries = 0;
    for (NodeId x : tree) entries += state.forest_neighbors(x).size();
    if (entries / 2 >= tree.size()) {
      return Check::fail("rem(" + std::to_string(v) +
                         ") undefined: its G'-tree contains a cycle");
    }
    const auto rem = static_cast<double>(dash::testing::rem(g, state, v));
    const double bound = std::exp2(static_cast<double>(state.delta(v)) / 2.0);
    if (rem + 1e-9 < bound) {
      return Check::fail("rem(" + std::to_string(v) + ")=" +
                         std::to_string(rem) + " < 2^(delta/2)=" +
                         std::to_string(bound) + " with delta=" +
                         std::to_string(state.delta(v)));
    }
  }
  return Check::pass();
}

/// The five scans in the order the invariant battery ran them.
Check expected(const Graph& g, const HealingState& state,
               ForestWalkOptions opts) {
  Check c = Check::pass();
  if (opts.require_forest) c = reference::check_forest(g, state);
  if (c.ok) c = reference::check_component_ids(g, state);
  if (c.ok) c = reference::check_healing_subgraph(g, state);
  if (c.ok) c = reference::check_delta_consistency(g, state);
  if (c.ok && opts.check_rem_bound) {
    c = dash::testing::healing_graph_is_forest(g, state)
            ? reference::check_rem_bound(g, state)
            : rem_bound_with_cycle_rule(g, state);
  }
  return c;
}

bool is_cycle_rule(const std::string& violation) {
  return violation.find("undefined: its G'-tree contains a cycle") !=
         std::string::npos;
}

// ---- healers x schedules -------------------------------------------------

/// After every round and every join, the walk (one object, reused as
/// the InvariantObserver reuses its own) against the reference.
class DifferentialObserver final : public api::Observer {
 public:
  explicit DifferentialObserver(bool rem_bound) : rem_bound_(rem_bound) {}

  std::string name() const override { return "walk-differential"; }
  void on_round_end(const api::Network& net, const api::RoundEvent&) override {
    compare(net);
  }
  void on_join(const api::Network& net, const api::JoinEvent&) override {
    compare(net);
  }

  std::size_t compared = 0;
  std::size_t failing = 0;     ///< events the reference flags
  std::size_t cycle_rule = 0;  ///< events ending in the rem-on-cycle rule
  std::vector<std::string> mismatches;

 private:
  void compare(const api::Network& net) {
    const ForestWalkOptions opts{
        .require_forest = net.healer().maintains_forest(),
        .check_rem_bound = rem_bound_};
    const Check got = walk_.check(net.graph(), net.state(), opts);
    const Check want = expected(net.graph(), net.state(), opts);
    ++compared;
    if (!want.ok) ++failing;
    if (is_cycle_rule(want.violation)) ++cycle_rule;
    if (got.ok != want.ok || got.violation != want.violation) {
      mismatches.push_back("event " + std::to_string(compared) + ": walk '" +
                           got.violation + "', reference '" +
                           want.violation + "'");
    }
  }

  bool rem_bound_;
  HealingForestWalk walk_;
};

constexpr const char* kSchedules[] = {
    "strike:randomx40",              // strike
    "targeted:neighborofmax",        // targeted, to exhaustion
    "churn:0.5,0.4x80",              // churn with joins
    "batch:4,randomx6;batch:3,hubsx2",  // batch
};

class ForestWalkSchedules : public ::testing::TestWithParam<const char*> {};

TEST_P(ForestWalkSchedules, MatchesReferenceAfterEveryEvent) {
  const api::Scenario scenario = api::Scenario::parse(GetParam());
  for (const std::string& healer : testing::every_healer()) {
    for (const bool rem_bound : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        SCOPED_TRACE(healer + (rem_bound ? " rem on" : " rem off") +
                     " seed " + std::to_string(seed));
        Rng rng(seed);
        api::Network net(graph::barabasi_albert(48, 2, rng), healer, seed);
        DifferentialObserver diff(rem_bound);
        net.add_observer(&diff);
        net.play(scenario, rng);
        EXPECT_GT(diff.compared, 0u);
        EXPECT_TRUE(diff.mismatches.empty())
            << diff.mismatches.size() << " mismatches, first "
            << diff.mismatches.front();
        if (healer == "graph" && rem_bound && diff.failing > 0) {
          // Healing cliques close cycles in E'; Lemma 4 is undefined on
          // them and the walk says so instead of aborting.
          EXPECT_GT(diff.cycle_rule, 0u);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, ForestWalkSchedules,
                         ::testing::ValuesIn(kSchedules),
                         testing::spec_test_name);

TEST(ForestWalkDifferential, GraphHealerRemBoundNamesTheCycle) {
  // The reference aborts here; the walk's rule is pinned instead.
  Rng rng(3);
  api::Network net(graph::barabasi_albert(48, 2, rng), "graph", 3);
  api::InvariantObserver invariants(
      api::InvariantOptions{.check_rem_bound = true});
  net.add_observer(&invariants);
  net.play(api::Scenario::parse("strike:randomx20"), rng);
  EXPECT_TRUE(is_cycle_rule(invariants.violation())) << invariants.violation();
}

// ---- corrupted healthy states ----------------------------------------------

/// Property ranks: the order check() reports failures in.
enum Rank { kForest, kIds, kSubgraph, kDelta, kRem, kNone };

Rank rank_of(const Check& c) {
  const std::string& v = c.violation;
  if (c.ok) return kNone;
  if (v == "healing graph G' contains a cycle") return kForest;
  if (v.rfind("component ", 0) == 0) return kIds;
  if (v.rfind("healing edge {", 0) == 0) return kSubgraph;
  if (v.rfind("delta(", 0) == 0) return kDelta;
  if (v.rfind("rem(", 0) == 0) return kRem;
  ADD_FAILURE() << "unknown violation '" << v << "'";
  return kNone;
}

/// A network mid-run with several G'-trees: DASH after random strikes.
struct State {
  Graph g;
  HealingState st;
};

State healthy(std::uint64_t seed) {
  Rng rng(seed);
  Graph g = graph::barabasi_albert(40, 2, rng);
  HealingState st(g, rng);
  State s{std::move(g), std::move(st)};
  core::DashStrategy dash;
  const std::size_t rounds = 6 + seed % 10;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::vector<NodeId> alive = s.g.alive_nodes();
    const NodeId v = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const core::DeletionContext ctx = s.st.begin_deletion(s.g, v);
    s.g.delete_node(v);
    dash.heal(s.g, s.st, ctx);
  }
  return s;
}

/// The G'-trees of the alive nodes, in ascending order of their lowest
/// alive node; each tree's alive nodes ascending.
std::vector<std::vector<NodeId>> trees_of(const State& s) {
  std::vector<std::vector<NodeId>> trees;
  std::vector<char> seen(s.g.num_nodes(), 0);
  for (NodeId v = 0; v < s.g.num_nodes(); ++v) {
    if (!s.g.alive(v) || seen[v]) continue;
    std::vector<NodeId> tree;
    for (NodeId x : s.st.healing_component(s.g, v)) {
      seen[x] = 1;
      if (s.g.alive(x)) tree.push_back(x);
    }
    std::sort(tree.begin(), tree.end());
    trees.push_back(std::move(tree));
  }
  return trees;
}

/// A random tree with at least `min_size` alive nodes, or null.
const std::vector<NodeId>* pick_tree(
    const std::vector<std::vector<NodeId>>& trees, std::size_t min_size,
    Rng& rng) {
  std::vector<const std::vector<NodeId>*> big;
  for (const auto& t : trees) {
    if (t.size() >= min_size) big.push_back(&t);
  }
  if (big.empty()) return nullptr;
  return big[static_cast<std::size_t>(rng.below(big.size()))];
}

/// `st` with one per-node line of its checkpoint replaced: save()
/// writes a header, a counters line, then initial degrees, initial ids,
/// component ids (line 4), deltas, weights (line 6), and so on.
template <typename T>
HealingState with_line(const HealingState& st, std::size_t line,
                       const std::vector<T>& values) {
  std::ostringstream out;
  st.save(out);
  std::istringstream in(out.str());
  std::vector<std::string> lines;
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  std::string row = std::to_string(values.size());
  for (const T& x : values) row += ' ' + std::to_string(x);
  lines.at(line) = row;
  std::string text;
  for (const std::string& l : lines) text += l + '\n';
  std::istringstream rebuilt(text);
  return HealingState::load(rebuilt);
}

std::vector<std::uint64_t> component_ids(const HealingState& st) {
  std::vector<std::uint64_t> ids(st.num_nodes());
  for (NodeId v = 0; v < ids.size(); ++v) ids[v] = st.component_id(v);
  return ids;
}

std::vector<std::uint64_t> weights_of(const HealingState& st) {
  std::vector<std::uint64_t> weights(st.num_nodes());
  for (NodeId v = 0; v < weights.size(); ++v) weights[v] = st.weight(v);
  return weights;
}

/// A random alive node without G'-edges (the walk settles these
/// without a BFS), or kInvalidNode.
NodeId pick_singleton(const State& s, Rng& rng) {
  std::vector<NodeId> singles;
  for (NodeId v = 0; v < s.g.num_nodes(); ++v) {
    if (s.g.alive(v) && s.st.forest_neighbors(v).empty()) {
      singles.push_back(v);
    }
  }
  if (singles.empty()) return graph::kInvalidNode;
  return singles[static_cast<std::size_t>(rng.below(singles.size()))];
}

/// Closes a cycle in E': a new healing edge between two nodes of a
/// random tree with at least three alive nodes that E' does not join
/// yet. Returns the pair, or nothing if the state has no place for it.
std::optional<std::pair<NodeId, NodeId>> close_cycle(State& s, Rng& rng) {
  const auto trees = trees_of(s);
  const auto* tree = pick_tree(trees, 3, rng);
  if (tree == nullptr) return std::nullopt;
  for (int tries = 0; tries < 64; ++tries) {
    const NodeId a = (*tree)[rng.below(tree->size())];
    const NodeId b = (*tree)[rng.below(tree->size())];
    const auto& fa = s.st.forest_neighbors(a);
    if (a == b || std::find(fa.begin(), fa.end(), b) != fa.end()) continue;
    s.st.add_healing_edge(s.g, a, b);
    return std::pair{a, b};
  }
  return std::nullopt;
}

struct Corruption {
  const char* name;
  Rank rank;  ///< the property it breaks first
  /// Applies the corruption; false if the state has no place for it.
  bool (*apply)(State&, Rng&);
};

const Corruption kCorruptions[] = {
    {"cycle edge", kForest,
     [](State& s, Rng& rng) { return close_cycle(s, rng).has_value(); }},
    {"mixed id", kIds,
     [](State& s, Rng& rng) {
       const auto trees = trees_of(s);
       const auto* tree = pick_tree(trees, 2, rng);
       if (tree == nullptr) return false;
       auto ids = component_ids(s.st);
       std::unordered_set<std::uint64_t> used(ids.begin(), ids.end());
       std::uint64_t fresh = 0;
       while (used.count(fresh) != 0) ++fresh;
       if (fresh >= ids.size()) return false;
       ids[(*tree)[rng.below(tree->size())]] = fresh;
       s.st = with_line(s.st, 4, ids);
       return true;
     }},
    {"singleton shares an id", kIds,
     [](State& s, Rng& rng) {
       const NodeId x = pick_singleton(s, rng);
       const auto trees = trees_of(s);
       if (x == graph::kInvalidNode || trees.size() < 2) return false;
       NodeId other = x;
       while (other == x) other = trees[rng.below(trees.size())].front();
       auto ids = component_ids(s.st);
       ids[x] = ids[other];
       s.st = with_line(s.st, 4, ids);
       return true;
     }},
    {"shared id", kIds,
     [](State& s, Rng& rng) {
       const auto trees = trees_of(s);
       if (trees.size() < 2) return false;
       const auto a = static_cast<std::size_t>(rng.below(trees.size()));
       auto b = static_cast<std::size_t>(rng.below(trees.size() - 1));
       if (b >= a) ++b;
       auto ids = component_ids(s.st);
       for (NodeId x : s.st.healing_component(s.g, trees[b].front())) {
         ids[x] = ids[trees[a].front()];
       }
       s.st = with_line(s.st, 4, ids);
       return true;
     }},
    {"E' edge missing from G", kSubgraph,
     [](State& s, Rng& rng) {
       const auto trees = trees_of(s);
       const auto* tree = pick_tree(trees, 2, rng);
       if (tree == nullptr) return false;
       for (int tries = 0; tries < 64; ++tries) {
         const NodeId a = (*tree)[rng.below(tree->size())];
         for (NodeId b : s.st.forest_neighbors(a)) {
           if (s.g.alive(b) && s.g.has_edge(a, b)) {
             s.g.remove_edge(a, b);
             return true;
           }
         }
       }
       return false;
     }},
    {"dead E' endpoint", kSubgraph,
     [](State& s, Rng& rng) {
       // Deleted from G behind the state's back: E' still names it.
       const auto trees = trees_of(s);
       const auto* tree = pick_tree(trees, 2, rng);
       if (tree == nullptr) return false;
       s.g.delete_node((*tree)[rng.below(tree->size())]);
       return true;
     }},
    {"dead E' endpoint below its partners", kSubgraph,
     [](State& s, Rng& rng) {
       // The tree's lowest node: every E' edge it leaves behind has its
       // dead end as the lower id, and must be named at the alive one.
       const auto trees = trees_of(s);
       const auto* tree = pick_tree(trees, 2, rng);
       if (tree == nullptr) return false;
       s.g.delete_node(tree->front());
       return true;
     }},
    {"delta drift", kDelta,
     [](State& s, Rng& rng) {
       const std::vector<NodeId> alive = s.g.alive_nodes();
       for (int tries = 0; tries < 64; ++tries) {
         const NodeId a = alive[rng.below(alive.size())];
         const NodeId b = alive[rng.below(alive.size())];
         const auto& fa = s.st.forest_neighbors(a);
         // Not an E' pair: re-adding a missing E' edge would heal it.
         if (a == b || s.g.has_edge(a, b) ||
             std::find(fa.begin(), fa.end(), b) != fa.end()) {
           continue;
         }
         s.g.add_edge(a, b);
         return true;
       }
       return false;
     }},
    {"singleton delta drift", kDelta,
     [](State& s, Rng& rng) {
       const NodeId x = pick_singleton(s, rng);
       if (x == graph::kInvalidNode) return false;
       // One below the truth: the rem bound only gets looser.
       std::vector<std::int32_t> deltas(s.st.num_nodes());
       for (NodeId v = 0; v < deltas.size(); ++v) deltas[v] = s.st.delta(v);
       --deltas[x];
       s.st = with_line(s.st, 5, deltas);
       return true;
     }},
    {"singleton rem violation", kRem,
     [](State& s, Rng& rng) {
       // rem(x) = w(x) = 0 is below 2^(delta/2) for every delta.
       const NodeId x = pick_singleton(s, rng);
       if (x == graph::kInvalidNode) return false;
       auto weights = weights_of(s.st);
       weights[x] = 0;
       s.st = with_line(s.st, 6, weights);
       return true;
     }},
    {"rem violation", kRem,
     [](State& s, Rng& rng) {
       // All of a tree's weight on its root: every other alive node of
       // the tree then has rem 0.
       const auto trees = trees_of(s);
       const auto* tree = pick_tree(trees, 2, rng);
       if (tree == nullptr) return false;
       auto weights = weights_of(s.st);
       const std::vector<NodeId> all =
           s.st.healing_component(s.g, tree->front());
       std::uint64_t total = 0;
       for (NodeId x : all) total += std::exchange(weights[x], 0);
       weights[tree->front()] = total;
       s.st = with_line(s.st, 6, weights);
       return true;
     }},
    {"random weights", kNone,
     [](State& s, Rng& rng) {
       std::vector<std::uint64_t> weights(s.st.num_nodes());
       for (NodeId v = 0; v < weights.size(); ++v) {
         weights[v] = rng.below(3);
       }
       s.st = with_line(s.st, 6, weights);
       return true;
     }},
    {"cycle E' edge missing from G", kForest,
     [](State& s, Rng& rng) {
       // Without require_forest the E' edge failure must still be
       // named; when the BFS reaches the closing edge last, it is the
       // one E' edge off the BFS tree.
       const auto edge = close_cycle(s, rng);
       if (!edge) return false;
       s.g.remove_edge(edge->first, edge->second);
       return true;
     }},
};

constexpr ForestWalkOptions kOptionSets[] = {
    {.require_forest = true, .check_rem_bound = true},
    {.require_forest = true, .check_rem_bound = false},
    {.require_forest = false, .check_rem_bound = true},
    {.require_forest = false, .check_rem_bound = false},
};

/// Walk vs reference on `s` under every option set; with all checks
/// on, the failure must also rank as `rank` (kNone: not pinned).
void expect_agreement(const State& s, Rank rank, const std::string& what) {
  HealingForestWalk walk;
  for (const ForestWalkOptions& opts : kOptionSets) {
    const Check got = walk.check(s.g, s.st, opts);
    const Check want = expected(s.g, s.st, opts);
    EXPECT_EQ(got.ok, want.ok) << what;
    EXPECT_EQ(got.violation, want.violation)
        << what << " (forest " << opts.require_forest << ", rem "
        << opts.check_rem_bound << ")";
    if (rank != kNone && opts.require_forest && opts.check_rem_bound) {
      EXPECT_EQ(rank_of(got), rank) << what << ": " << got.violation;
    }
  }
}

TEST(ForestWalkDifferential, CorruptedStatesOneAtATime) {
  std::size_t applied[std::size(kCorruptions)] = {};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const State clean = healthy(seed);
    expect_agreement(clean, kNone, "healthy");
    EXPECT_TRUE(
        HealingForestWalk().check(clean.g, clean.st, {.check_rem_bound = true})
            .ok);
    for (std::size_t i = 0; i < std::size(kCorruptions); ++i) {
      State s = healthy(seed);
      Rng rng(seed * 31 + i);
      if (!kCorruptions[i].apply(s, rng)) continue;
      ++applied[i];
      expect_agreement(s, kCorruptions[i].rank,
                       std::string(kCorruptions[i].name) + ", seed " +
                           std::to_string(seed));
    }
  }
  for (std::size_t i = 0; i < std::size(kCorruptions); ++i) {
    EXPECT_GE(applied[i], 12u) << kCorruptions[i].name;
  }
}

TEST(ForestWalkDifferential, CorruptedStatesInPairsRankInCheckOrder) {
  std::size_t applied = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (std::size_t i = 0; i < std::size(kCorruptions); ++i) {
      for (std::size_t j = 0; j < std::size(kCorruptions); ++j) {
        if (i == j) continue;
        State s = healthy(seed);
        Rng rng(seed * 977 + i * 31 + j);
        if (!kCorruptions[i].apply(s, rng)) continue;
        if (!kCorruptions[j].apply(s, rng)) continue;
        ++applied;
        const Rank a = kCorruptions[i].rank;
        const Rank b = kCorruptions[j].rank;
        expect_agreement(s, a == kNone || b == kNone ? kNone : std::min(a, b),
                         std::string(kCorruptions[i].name) + " then " +
                             kCorruptions[j].name + ", seed " +
                             std::to_string(seed));
      }
    }
  }
  EXPECT_GE(applied, 400u);
}

TEST(ForestWalkDifferential, OneTreeOverEveryNodeFillsTheQueue) {
  // The line healer on a star whose hub is deleted: one G'-path over
  // every alive node.
  {
    Graph g = graph::star_graph(33);
    Rng rng(7);
    HealingState st(g, rng);
    const core::DeletionContext ctx = st.begin_deletion(g, 0);
    g.delete_node(0);
    core::LineHealStrategy().heal(g, st, ctx);
    const State s{std::move(g), std::move(st)};
    ASSERT_EQ(s.st.healing_component(s.g, 1).size(), s.g.num_alive());
    EXPECT_TRUE(HealingForestWalk().check(s.g, s.st, {}).ok);
    expect_agreement(s, kNone, "line-healed star");
  }
  // One G'-path over every id, none deleted: the BFS fills all n queue
  // slots, and the entries it reads after that still store one past
  // them.
  {
    constexpr std::size_t kIds = 33;
    Graph g(kIds);
    Rng rng(9);
    HealingState st(g, rng);
    std::vector<NodeId> all(kIds);
    for (NodeId v = 0; v < kIds; ++v) {
      all[v] = v;
      if (v > 0) st.add_healing_edge(g, v - 1, v);
    }
    st.propagate_min_id(g, all);
    const State s{std::move(g), std::move(st)};
    ASSERT_EQ(s.st.healing_component(s.g, 0).size(), kIds);
    EXPECT_TRUE(HealingForestWalk().check(s.g, s.st, {}).ok);
    expect_agreement(s, kNone, "G'-path over every id");
  }
}

TEST(ForestWalkDifferential, NamesTheLowestFailingNode) {
  // The walk meets node 5 before nodes 2 and 1 (its tree, rooted at 0,
  // comes first and 5 is nearer the root) but must name the lowest
  // failing node, as the ascending scans did.
  Graph g(6);
  Rng rng(5);
  HealingState st(g, rng);
  st.add_healing_edge(g, 0, 5);
  st.add_healing_edge(g, 5, 2);
  st.propagate_min_id(g, {0, 5, 2});
  HealingForestWalk walk;
  ASSERT_TRUE(walk.check(g, st, {}).ok);
  g.remove_edge(5, 2);
  EXPECT_EQ(walk.check(g, st, {}).violation,
            "healing edge {2,5} is not in the network");
  g.add_edge(5, 2);
  g.add_edge(5, 1);
  EXPECT_EQ(walk.check(g, st, {}).violation,
            "delta(1)=0 != deg_now - deg_init = 1");
}

}  // namespace
}  // namespace dash
